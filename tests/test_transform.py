"""Tests for FeatureSpec trees, parsing, and Catalyst materialization."""
import numpy as np
import pandas as pd
import pytest

from repro.core.transform import (
    FeatureSpec, apply_op, is_usable, leaf, materialize, parse_spec,
)
from repro.oracle import assert_equivalent


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
        from repro.core.fpe import _random_spec

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


class TestSparkMaterialization:
    def test_materialize_adds_columns(self, spark, pdf, specs):
        sdf = spark.createDataFrame(pdf)
        out = materialize(sdf, list(pdf.columns), specs)
        assert out.columns == list(pdf.columns) + [f"gen_{i}" for i in range(len(specs))]

    @pytest.mark.parametrize("i", range(6))
    def test_spark_matches_numpy(self, spark, pdf, specs, i):
        s = specs[i]
        sdf = spark.createDataFrame(pdf)
        got = (
            materialize(sdf, list(pdf.columns), [s])
            .select("gen_0")
            .toPandas()["gen_0"]
            .to_numpy(dtype=np.float64)
        )
        expected = s.to_numpy(pdf.values)
        np.testing.assert_allclose(np.sort(got), np.sort(expected), rtol=1e-10, atol=1e-10)

    @pytest.mark.parametrize("i", range(6))
    def test_spark_matches_duckdb_oracle(self, spark, pdf, specs, i):
        s = specs[i]
        sdf = spark.createDataFrame(pdf)
        spark_out = materialize(sdf, list(pdf.columns), [s]).select(
            pdf.columns[0], "gen_0"
        )
        sql = (
            f'SELECT "x0", {s.to_duckdb(list(pdf.columns))} AS gen_0 FROM t'
        )
        assert_equivalent(spark_out, sql, t=pdf)

    def test_single_projected_plan(self, spark, pdf, specs):
        """All engineered columns land in one Catalyst projection (the
        analyzed plan; the optimizer may fold a local relation)."""
        sdf = spark.createDataFrame(pdf)
        out = materialize(sdf, list(pdf.columns), specs[:2])
        plan = out._jdf.queryExecution().analyzed().toString()
        assert "Project" in plan
        assert "gen_0" in plan and "gen_1" in plan
