"""Operator tests: the numpy operators against the DuckDB oracle.

Each of the 9 operators is implemented once, in numpy (``numpy_op``):
the only rendering any method scores. ``repro.oracle.spec_sql`` is an
independent DuckDB re-implementation; the two must agree row for row,
including on zeros, negatives, huge magnitudes and a constant column.
A wrong rewrite of either fails here.
"""
import os
import subprocess
import sys

import numpy as np
import pandas as pd
import pytest

import repro
from repro.core.operators import ALL_OPS, BINARY_OPS, UNARY_OPS, numpy_op
from repro.core.transform import FeatureSpec, apply_op, leaf
from repro.oracle import assert_features_match, spec_sql


@pytest.fixture(scope="module")
def pdf():
    rng = np.random.default_rng(0)
    n = 400
    edge = [0.0, -0.0, -3.0, -1e12, 1e12, 1.0]
    return pd.DataFrame(
        {
            "a": np.r_[rng.normal(size=n) * 10, edge],
            # include zeros and negatives to hit the guarded branches
            "b": np.r_[np.where(rng.random(n) < 0.1, 0.0, rng.normal(size=n) * 3), edge[::-1]],
            "c": np.full(n + len(edge), 2.5),
        }
    )


class TestNumpySemantics:
    def test_log_safe_on_negatives(self):
        out = numpy_op("log", np.array([-5.0, 0.0, 5.0]))
        assert np.isfinite(out).all()
        assert out[1] == 0.0

    def test_sqrt_abs(self):
        np.testing.assert_allclose(numpy_op("sqrt", np.array([-4.0, 9.0])), [2.0, 3.0])

    def test_reciprocal_zero_guard(self):
        out = numpy_op("reciprocal", np.array([0.0, 2.0]))
        np.testing.assert_allclose(out, [0.0, 0.5])

    def test_minmax_range(self):
        out = numpy_op("minmax", np.array([1.0, 3.0, 5.0]))
        np.testing.assert_allclose(out, [0.0, 0.5, 1.0])

    def test_minmax_constant(self):
        np.testing.assert_allclose(numpy_op("minmax", np.ones(4)), 0.0)

    def test_div_zero_guard(self):
        out = numpy_op("div", np.array([1.0, 1.0]), np.array([0.0, 2.0]))
        np.testing.assert_allclose(out, [0.0, 0.5])

    def test_mod_zero_guard(self):
        out = numpy_op("mod", np.array([5.0, 5.0]), np.array([0.0, 3.0]))
        np.testing.assert_allclose(out, [0.0, 2.0])

    def test_mod_sign_follows_dividend(self):
        out = numpy_op("mod", np.array([-5.0]), np.array([3.0]))
        np.testing.assert_allclose(out, [-2.0])

    def test_binary_requires_two(self):
        with pytest.raises(ValueError):
            numpy_op("add", np.ones(3))

    def test_unknown_op(self):
        with pytest.raises(ValueError):
            numpy_op("pow", np.ones(3), np.ones(3))


@pytest.mark.parametrize("op", ALL_OPS)
def test_numpy_matches_duckdb(pdf, op):
    """``numpy_op`` on every column (pair), constant column included."""
    X = pdf.to_numpy()
    if op in UNARY_OPS:
        args = [(i,) for i in range(X.shape[1])]
    else:
        args = [(i, j) for i in range(X.shape[1]) for j in range(X.shape[1])]
    specs = [apply_op(op, *map(leaf, ij)) for ij in args]
    values = np.column_stack([numpy_op(op, *(X[:, k] for k in ij)) for ij in args])
    assert_features_match(X, specs, values)


def test_duckdb_unknown_op():
    with pytest.raises(ValueError):
        spec_sql(FeatureSpec(op="pow", left=leaf(0), right=leaf(1)), ["a", "b"], "t")


def test_duckdb_binary_requires_two():
    with pytest.raises(ValueError):
        spec_sql(FeatureSpec(op="mul", left=leaf(0)), ["a"], "t")


def test_all_ops_enumeration():
    assert len(ALL_OPS) == 9
    assert set(UNARY_OPS) == {"log", "minmax", "sqrt", "reciprocal"}
    assert set(BINARY_OPS) == {"add", "sub", "mul", "div", "mod"}


def test_feature_modules_import_without_pyspark():
    """Spark only fans work out: the operators, the spec trees and the
    oracle that checks them load with no ``pyspark`` at all."""
    code = (
        "import sys; sys.modules['pyspark'] = None; "
        "import repro.core.operators, repro.core.transform, repro.oracle"
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(repro.__file__))}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
