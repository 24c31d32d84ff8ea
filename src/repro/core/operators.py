"""The paper's 9 feature-transformation operators, as numpy functions.

Every feature a method generates and scores is ``numpy_op`` output,
computed in memory inside the RL loop. Tests check each operator, and
compositions of them, row for row against an independent DuckDB
rendering (``repro.oracle.spec_sql``).

Domain safety follows common AFE practice (NFS does the same): log and
sqrt operate on |x| (log additionally on |x|+1), reciprocal / division /
modulo return 0 where the denominator is 0 — total functions, so any
composition up to the maximum order is well-defined.
"""
from __future__ import annotations

import numpy as np

UNARY_OPS = ("log", "minmax", "sqrt", "reciprocal")
BINARY_OPS = ("add", "sub", "mul", "div", "mod")
ALL_OPS = UNARY_OPS + BINARY_OPS

__all__ = ["UNARY_OPS", "BINARY_OPS", "ALL_OPS", "numpy_op"]


def numpy_op(op: str, a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """Apply operator ``op`` to float64 arrays; binary ops require ``b``."""
    a = np.asarray(a, dtype=np.float64)
    if op == "log":
        return np.log(np.abs(a) + 1.0)
    if op == "minmax":
        lo, hi = a.min(), a.max()
        return (a - lo) / (hi - lo) if hi > lo else np.zeros_like(a)
    if op == "sqrt":
        return np.sqrt(np.abs(a))
    if op == "reciprocal":
        return np.where(a != 0.0, np.divide(1.0, a, where=a != 0.0), 0.0)
    if b is None:
        raise ValueError(f"binary operator {op!r} needs two inputs")
    b = np.asarray(b, dtype=np.float64)
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        return np.where(b != 0.0, np.divide(a, b, where=b != 0.0), 0.0)
    if op == "mod":
        return np.where(b != 0.0, np.fmod(a, np.where(b != 0.0, b, 1.0)), 0.0)
    raise ValueError(f"unknown operator {op!r}")
