"""Feature expression trees.

A :class:`FeatureSpec` is the unit the RL agents produce: a composition
of the 9 operators over original feature columns, bounded by the paper's
maximum order (default 5 — §IV-A4). ``to_numpy(X)`` evaluates a spec
against an (M, N) matrix with ``numpy_op``; that is the one rendering
every method scores. Tests check it against DuckDB
(``repro.oracle.spec_sql``).

Specs are immutable, hashable and carry a canonical ``name`` used for
de-duplication (the engine's set of seen specs keys on it).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import BINARY_OPS, UNARY_OPS, numpy_op

__all__ = ["FeatureSpec", "leaf", "apply_op", "is_usable", "parse_spec"]


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

    # -- rendering ----------------------------------------------------------

    def to_numpy(self, X: np.ndarray) -> np.ndarray:
        if self.is_leaf:
            return np.asarray(X[:, self.index], dtype=np.float64)
        a = self.left.to_numpy(X)
        b = self.right.to_numpy(X) if self.right is not None else None
        return numpy_op(self.op, a, b)


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
