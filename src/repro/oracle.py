"""DuckDB correctness oracle for the features every method scores.

``spec_sql(spec, cols, table)`` renders a :class:`FeatureSpec` as a
DuckDB SQL expression over the columns ``cols`` of ``table``: an
independent re-implementation of ``numpy_op`` (``core/operators.py``).
``assert_equivalent(got, sql, **tables)`` runs ``sql`` in DuckDB over
the pandas ``tables`` and asserts its rows equal those of the pandas
frame ``got``, for example the output of ``numpy_op``, ``to_numpy`` or
``build_feature_matrix``. This catches a wrong result from a rewritten
operator — "it ran" is not "it is correct".

Rows are compared as a multiset: row order is irrelevant. To pair the
rows of a computed column with the rows it came from, carry a row-id
column through both sides. Alias every output column identically on both
sides and project to scalar columns. ``assert_features_match`` does
both for a set of specs and their computed columns.
"""
import duckdb
import numpy as np
import pandas as pd

from repro.core.transform import FeatureSpec

# Floats agree to this relative and absolute tolerance: DuckDB and numpy
# may round a transcendental (ln) differently in the last bit.
TOL = 1e-9


def spec_sql(spec: FeatureSpec, cols: list[str], table: str) -> str:
    """DuckDB expression for ``spec``; leaf ``i`` is column ``cols[i]``.

    ``minmax`` reads its column's min and max through uncorrelated scalar
    subqueries over ``table``, so it composes anywhere in an expression,
    inside another ``minmax`` too.
    """
    if spec.is_leaf:
        return f'"{cols[spec.index]}"'
    op = spec.op
    a = spec_sql(spec.left, cols, table)
    if op == "log":
        return f"ln(abs({a}) + 1.0)"
    if op == "minmax":
        lo = f"(SELECT min({a}) FROM {table})"
        hi = f"(SELECT max({a}) FROM {table})"
        return f"(CASE WHEN {hi} > {lo} THEN ({a} - {lo}) / ({hi} - {lo}) ELSE 0.0 END)"
    if op == "sqrt":
        return f"sqrt(abs({a}))"
    if op == "reciprocal":
        return f"(CASE WHEN {a} <> 0 THEN 1.0 / {a} ELSE 0.0 END)"
    if spec.right is None:
        raise ValueError(f"binary operator {op!r} needs two inputs")
    b = spec_sql(spec.right, cols, table)
    if op == "add":
        return f"({a} + {b})"
    if op == "sub":
        return f"({a} - {b})"
    if op == "mul":
        return f"({a} * {b})"
    if op == "div":
        return f"(CASE WHEN {b} <> 0 THEN {a} / {b} ELSE 0.0 END)"
    if op == "mod":
        # DuckDB's % has dividend-sign semantics matching numpy fmod;
        # DuckDB's fmod() follows the divisor sign instead.
        return f"(CASE WHEN {b} <> 0 THEN ({a} % {b}) ELSE 0.0 END)"
    raise ValueError(f"unknown operator {op!r}")


def _canon(pdf: pd.DataFrame) -> pd.DataFrame:
    # Canonical column order first, then row order. Exact (non-float)
    # columns such as a row id lead the sort, so they pair the rows and
    # last-bit float differences cannot reorder them.
    cols = sorted(pdf.columns)
    floats = set(pdf.select_dtypes(include="float").columns)
    keys = [c for c in cols if c not in floats] + [c for c in cols if c in floats]
    return pdf[cols].sort_values(keys).reset_index(drop=True)


def assert_equivalent(got: pd.DataFrame, sql: str, **tables: pd.DataFrame) -> None:
    con = duckdb.connect()
    try:
        for name, t in tables.items():
            con.register(name, t)
        expected = con.execute(sql).fetchdf()
    finally:
        con.close()
    assert set(expected.columns) == set(got.columns), (
        f"column mismatch: {sorted(got.columns)} vs {sorted(expected.columns)} "
        "— alias every output column identically on both sides"
    )
    pd.testing.assert_frame_equal(
        _canon(got), _canon(expected), check_dtype=False, rtol=TOL, atol=TOL
    )


def assert_features_match(X: np.ndarray, specs: list[FeatureSpec], values: np.ndarray) -> None:
    """Assert that column ``j`` of ``values`` is ``specs[j]`` over the
    columns of ``X``, row for row, as DuckDB computes it.

    One query per spec: DuckDB's planning time grows faster than linearly
    in the number of ``minmax`` subqueries in one query.
    """
    cols = [f"c{i}" for i in range(X.shape[1])]
    rid = np.arange(len(X))
    t = pd.DataFrame(X, columns=cols).assign(rid=rid)
    for spec, v in zip(specs, np.reshape(values, (len(X), len(specs))).T, strict=True):
        got = pd.DataFrame({"rid": rid, "g": v})
        assert_equivalent(got, f"SELECT rid, {spec_sql(spec, cols, 't')} AS g FROM t", t=t)
