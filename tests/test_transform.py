"""Tests for FeatureSpec trees, parsing, and their numpy values against DuckDB."""
import numpy as np
import pandas as pd
import pytest

from repro.core.fpe import _random_spec
from repro.core.transform import apply_op, is_usable, leaf, parse_spec
from repro.oracle import assert_features_match, spec_sql


@pytest.fixture(scope="module")
def pdf():
    rng = np.random.default_rng(1)
    return pd.DataFrame(
        {
            "x0": rng.normal(size=300),
            "x1": rng.normal(size=300) * 2 + 1,
            "x2": np.where(rng.random(300) < 0.15, 0.0, rng.normal(size=300)),
        }
    )


@pytest.fixture(scope="module")
def specs():
    f0, f1, f2 = leaf(0), leaf(1), leaf(2)
    return [
        apply_op("log", f0),
        apply_op("mul", f0, f1),
        apply_op("div", apply_op("add", f0, f1), f2),
        apply_op("minmax", apply_op("mul", f0, f2)),
        apply_op("sqrt", apply_op("sub", f1, apply_op("reciprocal", f2))),
        apply_op("mod", f1, f0),
    ]


class TestStructure:
    def test_leaf_properties(self):
        s = leaf(3)
        assert s.is_leaf and s.order == 0 and s.name == "f3" and s.leaves() == {3}

    def test_order_counts_all_ops(self):
        s = apply_op("div", apply_op("add", leaf(0), leaf(1)), apply_op("log", leaf(2)))
        assert s.order == 3

    def test_name_canonical(self):
        s = apply_op("mul", leaf(0), apply_op("log", leaf(1)))
        assert s.name == "mul(f0,log(f1))"

    def test_leaves_union(self):
        s = apply_op("add", apply_op("mul", leaf(0), leaf(2)), leaf(2))
        assert s.leaves() == {0, 2}

    def test_hashable_and_equal(self):
        a = apply_op("log", leaf(1))
        b = apply_op("log", leaf(1))
        assert a == b and hash(a) == hash(b)

    def test_apply_op_validates_arity(self):
        with pytest.raises(ValueError):
            apply_op("add", leaf(0))
        with pytest.raises(ValueError):
            apply_op("what", leaf(0))


class TestParse:
    @pytest.mark.parametrize(
        "name",
        [
            "f0",
            "f17",
            "log(f2)",
            "mul(f0,f1)",
            "div(add(f0,f1),f2)",
            "minmax(mul(f0,f2))",
            "mod(f1,mul(f3,log(f4)))",
            "sqrt(sub(f1,reciprocal(f2)))",
        ],
    )
    def test_round_trip(self, name):
        assert parse_spec(name).name == name

    def test_round_trip_random_specs(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            s = _random_spec(5, 5, rng)
            assert parse_spec(s.name) == s

    def test_malformed(self):
        with pytest.raises(ValueError):
            parse_spec("log(f1")
        with pytest.raises(ValueError):
            parse_spec("add(f1)")
        with pytest.raises(ValueError):
            parse_spec("pow(f1,f2)")


class TestNumpyEval:
    def test_leaf_returns_column(self, pdf):
        X = pdf.values
        np.testing.assert_array_equal(leaf(1).to_numpy(X), X[:, 1])

    def test_composition(self, pdf):
        X = pdf.values
        s = apply_op("mul", apply_op("log", leaf(0)), leaf(1))
        expected = np.log(np.abs(X[:, 0]) + 1) * X[:, 1]
        np.testing.assert_allclose(s.to_numpy(X), expected)

    def test_all_fixture_specs_finite(self, pdf, specs):
        X = pdf.values
        for s in specs:
            assert np.isfinite(s.to_numpy(X)).all(), s.name


class TestIsUsable:
    def test_constant_column_with_nonzero_std(self):
        v = np.full(120, 0.7)
        assert v.std() > 0  # the rounding the helper must not be fooled by
        assert not is_usable(v)

    def test_generated_constant(self):
        # x * (1/x) = 1 up to rounding, then log: log 2 on every row.
        X = np.arange(1.0, 201.0)[:, None]
        s = apply_op("log", apply_op("mul", leaf(0), apply_op("reciprocal", leaf(0))))
        v = s.to_numpy(X)
        assert len(np.unique(v)) == 1 and v.std() > 0
        assert not is_usable(v)

    def test_non_finite_and_varying(self):
        assert not is_usable(np.array([1.0, np.nan, 2.0]))
        assert not is_usable(np.array([1.0, np.inf, 2.0]))
        assert is_usable(np.array([1.0, 1.0, 1.0 + 1e-15]))


class TestDuckDBOracle:
    @pytest.mark.parametrize("i", range(6))
    def test_numpy_matches_duckdb(self, pdf, specs, i):
        X = pdf.to_numpy()
        assert_features_match(X, [specs[i]], specs[i].to_numpy(X))

    def test_random_compositions_match_duckdb(self):
        """300 seeded random specs of order 1-5 on edge-valued columns:
        N(0, 10), 15% zeros, a constant, +-1e12 and all-negative."""
        rng = np.random.default_rng(7)
        n = 200
        X = np.column_stack([
            rng.normal(size=n) * 10,
            np.where(rng.random(n) < 0.15, 0.0, rng.normal(size=n)),
            np.full(n, 3.0),
            rng.choice([-1e12, 1e12], size=n) * rng.random(n),
            -rng.random(n) * 5 - 0.1,
        ])
        specs = [_random_spec(X.shape[1], 5, rng) for _ in range(300)]
        # _random_spec composes along one chain, so two minmax are nested.
        assert any(s.name.count("minmax") >= 2 for s in specs)
        values = np.column_stack([s.to_numpy(X) for s in specs])
        assert np.isfinite(values).all()
        assert_features_match(X, specs, values)

    def test_sql_grows_linearly_in_nesting(self):
        """Each node is rendered once: every level of nested ``minmax``
        (which reads its input six times) or ``reciprocal`` (twice) adds
        the same text, where writing the input out in place at each read
        multiplies the text per level."""
        for op in ("minmax", "reciprocal"):
            spec, lengths = leaf(0), []
            for _ in range(8):
                spec = apply_op(op, spec)
                lengths.append(len(spec_sql(spec, ["c0"], "t")))
            steps = np.diff(lengths)
            assert (steps == steps[0]).all(), (op, lengths)
            assert lengths[-1] < 8 * lengths[0], (op, lengths)
