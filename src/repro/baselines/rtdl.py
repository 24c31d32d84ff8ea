"""Deep-learning baselines: RTDL_N (DL_N), FE|DL and DL|FE (Table III).

- **RTDL_N**: a tabular ResNet is trained on a train/validation split
  (the pre-division the paper blames for DL's fragility on small data),
  its softmax head is then replaced by a Random Forest fitted on the
  penultimate representation, and the score is measured on the held-out
  test split (§IV-A3(2)).
- **FE|DL**: "put the features selected by feature engineering into the
  deep learning process" — the ResNet is trained directly on an
  engineered feature matrix and scored on the test split.
- **DL|FE**: "put the original features into deep learning, then the
  output features into the feature engineering method for selection" —
  greedy RF-guided selection over the learned representation, scored
  with RF cross-validation.
"""
from __future__ import annotations

import time

import numpy as np

from ..core.eafe import AFEConfig, AFEResult, final_report
from ..ml.forest import RandomForest, cross_val_score
from ..ml.metrics import check_target, score as metric_score
from ..ml.resnet import TabularResNet

__all__ = ["split_indices", "run_rtdl_n", "run_fe_dl", "run_dl_fe"]

# Train and validation shares of the split; the test split is the rest.
TRAIN_FRAC, VAL_FRAC = 0.6, 0.2
# DL|FE's cap on the representation columns it selects.
MAX_SELECTED = 16


def split_indices(n: int, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Deterministic train/validation/test split."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    n_tr = int(TRAIN_FRAC * n)
    n_va = int(VAL_FRAC * n)
    return perm[:n_tr], perm[n_tr : n_tr + n_va], perm[n_tr + n_va :]


def run_rtdl_n(X: np.ndarray, y: np.ndarray, task: str, seed: int = 0) -> dict:
    """ResNet feature extractor + RF head, train/val/test protocol."""
    check_target(y, task)
    t0 = time.perf_counter()
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    tr, va, te = split_indices(len(y), seed)
    trva = np.concatenate([tr, va])
    net = TabularResNet(task, seed).fit(X[tr], y[tr])
    rep = net.transform(X)
    rf = RandomForest(task=task, n_trees=10, seed=seed)
    rf.fit(rep[trva], y[trva])
    s = metric_score(y[te], rf.predict(rep[te]), task)
    return {"score": float(max(s, 0.0)), "time": time.perf_counter() - t0}


def run_fe_dl(
    X_engineered: np.ndarray, y: np.ndarray, task: str, seed: int = 0
) -> dict:
    """Engineered features -> ResNet, scored on the test split."""
    check_target(y, task)
    t0 = time.perf_counter()
    y = np.asarray(y)
    tr, va, te = split_indices(len(y), seed)
    net = TabularResNet(task, seed).fit(X_engineered[tr], y[tr])
    s = metric_score(y[te], net.predict(X_engineered[te]), task)
    return {"score": float(max(s, 0.0)), "time": time.perf_counter() - t0}


def run_dl_fe(X: np.ndarray, y: np.ndarray, task: str, seed: int = 0) -> dict:
    """ResNet representation -> greedy feature selection -> RF CV."""
    check_target(y, task)
    t0 = time.perf_counter()
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    tr, _, _ = split_indices(len(y), seed)
    net = TabularResNet(task, seed).fit(X[tr], y[tr])
    rep = net.transform(X)
    # Rank representation columns by variance, greedily add while CV improves.
    order = np.argsort(-rep.std(axis=0))
    chosen: list[int] = []
    best = -np.inf
    for j in order[: 2 * MAX_SELECTED]:
        cand = chosen + [int(j)]
        s = cross_val_score(rep[:, cand], y, task, k=3, n_trees=6, seed=seed)
        if s > best:
            best = s
            chosen = cand
        if len(chosen) >= MAX_SELECTED:
            break
    # Final report under the shared protocol, scoring the chosen
    # representation columns once (not the greedy max).
    final = final_report(
        AFEResult(0.0, 0.0), rep[:, chosen] if chosen else rep, None, y, task,
        AFEConfig(seed=seed),
    ).best_score
    return {"score": float(max(final, 0.0)), "time": time.perf_counter() - t0}
