"""Feature expression trees and their materialization.

A :class:`FeatureSpec` is the unit the RL agents produce: a composition
of the 9 operators over original feature columns, bounded by the paper's
maximum order (default 5 — §IV-A4). One spec has three renderings:

- ``to_numpy(X)`` — evaluate against an (M, N) matrix (the RL loop);
- ``to_spark(df, cols)`` — a Catalyst ``Column`` (materializing results);
- ``to_duckdb(cols)`` — a SQL fragment (the correctness oracle).

Specs are immutable, hashable and carry a canonical ``name`` used for
de-duplication (the engine's set of seen specs keys on it).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from pyspark.sql import Column, DataFrame

from .operators import BINARY_OPS, UNARY_OPS, duckdb_op_sql, numpy_op, spark_op

__all__ = ["FeatureSpec", "leaf", "apply_op", "is_usable", "materialize", "parse_spec"]


@dataclass(frozen=True)
class FeatureSpec:
    """Immutable expression tree node.

    ``op`` is None for a leaf (then ``index`` is the original-feature
    position); otherwise one of the 9 operators with ``left`` (and for
    binary ops ``right``) sub-specs.
    """

    op: str | None = None
    index: int | None = None
    left: "FeatureSpec | None" = None
    right: "FeatureSpec | None" = None

    # -- structure ----------------------------------------------------------

    @property
    def is_leaf(self) -> bool:
        return self.op is None

    @property
    def order(self) -> int:
        """Number of operator applications (0 for an original feature)."""
        if self.is_leaf:
            return 0
        n = 1 + self.left.order
        if self.right is not None:
            n += self.right.order
        return n

    @property
    def name(self) -> str:
        if self.is_leaf:
            return f"f{self.index}"
        if self.op in UNARY_OPS:
            return f"{self.op}({self.left.name})"
        return f"{self.op}({self.left.name},{self.right.name})"

    def leaves(self) -> set[int]:
        """Original-feature indices referenced by this spec."""
        if self.is_leaf:
            return {self.index}
        out = set(self.left.leaves())
        if self.right is not None:
            out |= self.right.leaves()
        return out

    # -- renderings ---------------------------------------------------------

    def to_numpy(self, X: np.ndarray) -> np.ndarray:
        if self.is_leaf:
            return np.asarray(X[:, self.index], dtype=np.float64)
        a = self.left.to_numpy(X)
        b = self.right.to_numpy(X) if self.right is not None else None
        return numpy_op(self.op, a, b)

    def to_spark(self, df: DataFrame, cols: list[str]) -> Column:
        if self.is_leaf:
            return df[cols[self.index]].cast("double")
        a = self.left.to_spark(df, cols)
        b = self.right.to_spark(df, cols) if self.right is not None else None
        return spark_op(self.op, a, b)

    def to_duckdb(self, cols: list[str]) -> str:
        if self.is_leaf:
            return f'"{cols[self.index]}"'
        a = self.left.to_duckdb(cols)
        b = self.right.to_duckdb(cols) if self.right is not None else None
        return duckdb_op_sql(self.op, a, b)


def leaf(index: int) -> FeatureSpec:
    """Spec for an original feature column."""
    return FeatureSpec(index=index)


def apply_op(op: str, a: FeatureSpec, b: FeatureSpec | None = None) -> FeatureSpec:
    """Compose a new spec; validates arity."""
    if op in UNARY_OPS:
        return FeatureSpec(op=op, left=a)
    if op in BINARY_OPS:
        if b is None:
            raise ValueError(f"binary op {op!r} needs a second spec")
        return FeatureSpec(op=op, left=a, right=b)
    raise ValueError(f"unknown op {op!r}")


def is_usable(values: np.ndarray) -> bool:
    """Whether a generated column can be a new feature: all values finite
    and not all equal. ``max > min``, not ``std() > 0``: the float mean of
    a constant column can round so that its std is ~1e-16."""
    return bool(np.all(np.isfinite(values)) and values.max() > values.min())


def parse_spec(name: str) -> FeatureSpec:
    """Inverse of ``FeatureSpec.name`` — parse the canonical string form.

    Grammar: ``f<int>`` | ``op(child)`` | ``op(child,child)``. Used to
    round-trip specs through flat storage (labeling rows, job outputs).
    """
    name = name.strip()
    if name.startswith("f") and name[1:].isdigit():
        return leaf(int(name[1:]))
    lparen = name.index("(")
    op = name[:lparen]
    if not name.endswith(")"):
        raise ValueError(f"malformed spec {name!r}")
    inner = name[lparen + 1 : -1]
    if op in UNARY_OPS:
        return apply_op(op, parse_spec(inner))
    if op in BINARY_OPS:
        depth = 0
        for i, ch in enumerate(inner):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif ch == "," and depth == 0:
                return apply_op(op, parse_spec(inner[:i]), parse_spec(inner[i + 1 :]))
        raise ValueError(f"binary spec missing top-level comma: {name!r}")
    raise ValueError(f"unknown operator in spec {name!r}")


def materialize(
    df: DataFrame, cols: list[str], specs: list[FeatureSpec], prefix: str = "gen"
) -> DataFrame:
    """Append engineered columns to ``df`` through the DataFrame API.

    This is the Catalyst path: one ``withColumns`` call, so the whole
    feature set is a single projected plan. The oracle and integration
    tests materialize a run's selected specs with it and check them
    against the numpy path.
    """
    exprs = {f"{prefix}_{i}": s.to_spark(df, cols) for i, s in enumerate(specs)}
    return df.withColumns(exprs)
