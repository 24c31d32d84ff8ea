"""DuckDB correctness oracle for the features every method scores.

``spec_sql(spec, cols, table)`` renders a :class:`FeatureSpec` as a
DuckDB query over the columns ``cols`` of ``table``: an independent
re-implementation of ``numpy_op`` (``core/operators.py``).
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
    """DuckDB query over ``table``: its rows, with all of its columns plus
    ``spec``'s value as column ``value``; leaf ``i`` is column ``cols[i]``.

    Each inner node is rendered once, children first, as the column
    ``_v<k>`` that the CTE ``_n<k>`` adds to the rows of the one before
    it, so every operator reads its inputs by name and the text grows
    linearly in the number of nodes. ``minmax`` reads its column's min and
    max as ``OVER ()`` aggregates over all rows, so it composes anywhere,
    inside another ``minmax`` too.
    """
    steps: list[str] = []

    def column(node: FeatureSpec) -> str:
        if node.is_leaf:
            return f'"{cols[node.index]}"'
        a = column(node.left)
        b = None if node.right is None else column(node.right)
        steps.append(_node_sql(node.op, a, b))
        return f"_v{len(steps)}"

    out = column(spec)
    if not steps:
        return f"SELECT *, {out} AS value FROM {table}"
    ctes = ", ".join(
        f"_n{k} AS (SELECT *, {e} AS _v{k} FROM {table if k == 1 else f'_n{k - 1}'})"
        for k, e in enumerate(steps, 1)
    )
    return f"WITH {ctes} SELECT *, {out} AS value FROM _n{len(steps)}"


def _node_sql(op: str, a: str, b: str | None) -> str:
    """One operator over the columns ``a`` (and ``b``)."""
    if op == "log":
        return f"ln(abs({a}) + 1.0)"
    if op == "minmax":
        lo, hi = f"min({a}) OVER ()", f"max({a}) OVER ()"
        return f"(CASE WHEN {hi} > {lo} THEN ({a} - {lo}) / ({hi} - {lo}) ELSE 0.0 END)"
    if op == "sqrt":
        return f"sqrt(abs({a}))"
    if op == "reciprocal":
        return f"(CASE WHEN {a} <> 0 THEN 1.0 / {a} ELSE 0.0 END)"
    if b is None:
        raise ValueError(f"binary operator {op!r} needs two inputs")
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
    columns of ``X``, row for row, as DuckDB computes it, one query per
    spec.
    """
    cols = [f"c{i}" for i in range(X.shape[1])]
    rid = np.arange(len(X))
    t = pd.DataFrame(X, columns=cols).assign(rid=rid)
    for spec, v in zip(specs, np.reshape(values, (len(X), len(specs))).T, strict=True):
        got = pd.DataFrame({"rid": rid, "g": v})
        assert_equivalent(got, f"SELECT rid, value AS g FROM ({spec_sql(spec, cols, 't')})", t=t)
