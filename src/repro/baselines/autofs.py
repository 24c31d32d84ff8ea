"""AutoFS_R baseline (paper §IV-A3(3)).

AutoFS (Fan et al., ICDM'20) is RL feature *selection* without feature
generation, so the paper pairs it with *randomly generated* features:
"we generated features randomly and selected features by AutoFS".

Reproduction (a substitution, DESIGN.md §3): a pool of uniformly random
transformation specs (same operator set and max order, no policy), then
greedy forward selection in place of AutoFS's multi-agent RL selection.
The pooled features are visited once each, in random order; each visit
scores the state with the feature added, one downstream evaluation
(Table IV counts), and the feature joins the state when its gain
exceeds ``accept_margin``.
"""
from __future__ import annotations

import time

import numpy as np

from ..core.eafe import AFEConfig, AFEResult, FeatureState
from ..core.operators import ALL_OPS, BINARY_OPS
from ..core.transform import apply_op, is_usable, leaf
# Scoring goes through FeatureState; this binding stays importable because
# the benchmark's tracer (afebench/spans.py) wraps it at every import site.
from ..ml.forest import cross_val_score  # noqa: F401

__all__ = ["random_pool", "run_autofs_r"]


def random_pool(
    X: np.ndarray, n_pool: int, max_order: int, rng: np.random.Generator
) -> list:
    """Uniformly random feature specs over the columns of ``X``."""
    n = X.shape[1]
    pool = []
    base = [leaf(i) for i in range(n)]
    candidates = list(base)
    attempts = 0
    while len(pool) < n_pool and attempts < n_pool * 10:
        attempts += 1
        op = ALL_OPS[rng.integers(0, len(ALL_OPS))]
        a = candidates[rng.integers(0, len(candidates))]
        if op in BINARY_OPS:
            b = candidates[rng.integers(0, len(candidates))]
            spec = apply_op(op, a, b)
        else:
            spec = apply_op(op, a)
        if spec.order > max_order or spec.is_leaf:
            continue
        pool.append(spec)
        candidates.append(spec)  # allow higher-order compositions
    return pool


def run_autofs_r(
    X: np.ndarray, y: np.ndarray, task: str, cfg: AFEConfig | None = None
) -> AFEResult:
    cfg = cfg or AFEConfig()
    rng = np.random.default_rng(cfg.seed)
    state = FeatureState(X, y, task, cfg)
    res, Xk = state.res, state.X
    # Random generation, same budget as the RL methods' formal step count.
    n_pool = cfg.max_agents * cfg.steps_per_agent * cfg.epochs_stage2
    t0 = time.perf_counter()
    pool = [(s, s.to_numpy(Xk)) for s in random_pool(Xk, n_pool, cfg.max_order, rng)]
    usable = [is_usable(v) for _, v in pool]
    res.gen_time += time.perf_counter() - t0
    res.n_generated = sum(usable)

    for idx in rng.permutation(len(pool)):
        if not usable[idx]:
            continue
        spec, values = pool[idx]
        s = state.evaluate(values)
        if s - state.score > cfg.accept_margin:
            state.add(spec, values, s)
        res.history.append(res.best_score)
        if state.full:
            break
    return state.report()
