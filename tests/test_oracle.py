"""Sanity tests for the DuckDB oracle itself."""
import numpy as np
import pandas as pd
import pytest

from repro.core.transform import apply_op, leaf
from repro.oracle import assert_equivalent, assert_features_match


@pytest.fixture(scope="module")
def pdf():
    rng = np.random.default_rng(0)
    return pd.DataFrame({"k": rng.integers(1, 5, 200), "v": rng.random(200)})


def test_passes_on_equal_aggregation(pdf):
    out = pdf.groupby("k", as_index=False)["v"].sum().rename(columns={"v": "s"})
    assert_equivalent(out, "SELECT k, sum(v) AS s FROM t GROUP BY k", t=pdf)


def test_fails_on_wrong_result(pdf):
    wrong = pdf.assign(w=pdf["v"] * 3)[["k", "w"]]
    with pytest.raises(AssertionError):
        assert_equivalent(wrong, "SELECT k, v * 2 AS w FROM t", t=pdf)


def test_fails_on_column_mismatch(pdf):
    out = pdf.rename(columns={"v": "not_aliased_same"})
    with pytest.raises(AssertionError, match="column mismatch"):
        assert_equivalent(out, "SELECT k, v AS w FROM t", t=pdf)


def test_row_order_irrelevant(pdf):
    out = pdf.sort_values("v")[["k", "v"]]
    assert_equivalent(out, "SELECT k, v FROM t ORDER BY k", t=pdf)


def test_fails_on_permuted_rows(pdf):
    """The right values in the wrong rows fail once a row id pairs them:
    a multiset of values alone (sorted values) would pass."""
    X = pdf[["v"]].to_numpy()
    spec = apply_op("log", leaf(0))
    values = spec.to_numpy(X)
    assert_features_match(X, [spec], values)
    with pytest.raises(AssertionError):
        assert_features_match(X, [spec], np.random.default_rng(1).permutation(values))
