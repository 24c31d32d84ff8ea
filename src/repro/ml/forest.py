"""Random Forest + cross-validation — the paper's downstream task.

Following NFS (and E-AFE, which keeps NFS's protocol for fairness), every
feature evaluation is a Random-Forest cross-validation score: F1 for
classification, 1-rae for regression. ``cross_val_score`` is the single
choke point all methods call, so its call count is also where Table IV's
"feature evaluation numbers" are measured (see ``repro.bench.harness``).
"""
from __future__ import annotations

import numpy as np

from .metrics import score as metric_score
from .tree import DecisionTree, apply_bins, bin_features, finite

__all__ = ["RandomForest", "kfold_indices", "cross_val_score"]


class RandomForest:
    """Bagged histogram-CART ensemble over one binning; deterministic in ``seed``."""

    def __init__(
        self,
        task: str = "C",
        n_trees: int = 10,
        max_depth: int = 6,
        min_leaf: int = 2,
        max_features: str | int | None = "sqrt",
        n_bins: int = 32,
        seed: int = 0,
    ):
        self.task = task
        self.n_trees = n_trees
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        self.max_features = max_features
        self.n_bins = n_bins
        self.seed = seed

    def _resolve_max_features(self, n_features: int) -> int | None:
        if self.max_features == "sqrt":
            return max(1, int(np.sqrt(n_features)))
        return self.max_features

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForest":
        """Bin ``X`` once and encode the classes once; every tree then
        fits on the bin codes and class indices of its bootstrap rows."""
        X = finite(X)
        y = np.asarray(y)
        rng = np.random.default_rng(self.seed)
        mf = self._resolve_max_features(X.shape[1])
        self.edges_ = bin_features(X, self.n_bins)
        Xb = apply_bins(X, self.edges_)
        classes = None
        if self.task == "C":
            self.classes_, y = np.unique(y, return_inverse=True)
            classes = self.classes_
        self.trees_: list[DecisionTree] = []
        for t in range(self.n_trees):
            boot = rng.integers(0, len(y), len(y))
            if self.task == "C" and np.ptp(y[boot]) == 0:
                boot = np.arange(len(y))  # degenerate bootstrap: fall back
            tree = DecisionTree(
                task=self.task,
                max_depth=self.max_depth,
                min_leaf=self.min_leaf,
                max_features=mf,
                n_bins=self.n_bins,
                seed=self.seed * 1000 + t,
            )
            tree.fit(Xb[boot], y[boot], edges=self.edges_, classes=classes)
            self.trees_.append(tree)
        imp = np.sum([t.feature_importances_ for t in self.trees_], axis=0)
        total = imp.sum()
        self.feature_importances_ = imp / total if total > 0 else imp
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Bin ``X`` once; each tree maps the codes to its leaves' values.
        Classification sums the trees' class fractions (all trees share
        the forest's class encoding) and takes the argmax."""
        Xb = apply_bins(finite(X), self.edges_)
        total = sum(tree.value_[tree.apply(Xb)] for tree in self.trees_)
        if self.task == "C":
            return self.classes_[np.argmax(total, axis=1)]
        return total / len(self.trees_)


def kfold_indices(
    y: np.ndarray, k: int, task: str, seed: int = 0
) -> list[tuple[np.ndarray, np.ndarray]]:
    """K-fold splits; stratified by label for classification."""
    y = np.asarray(y)
    n = len(y)
    rng = np.random.default_rng(seed)
    if task == "C":
        order = np.empty(0, dtype=np.int64)
        for c in np.unique(y):
            idx = np.flatnonzero(y == c)
            rng.shuffle(idx)
            order = np.concatenate([order, idx])
        # Deal round-robin so each fold gets ~equal class mix.
        folds = [order[i::k] for i in range(k)]
    else:
        perm = rng.permutation(n)
        folds = [perm[i::k] for i in range(k)]
    out = []
    for i in range(k):
        test = folds[i]
        train = np.concatenate([folds[j] for j in range(k) if j != i])
        out.append((train, test))
    return out


def cross_val_score(
    X: np.ndarray,
    y: np.ndarray,
    task: str,
    *,
    k: int = 3,
    n_trees: int = 8,
    max_depth: int = 6,
    seed: int = 0,
) -> float:
    """Mean RF cross-validation score (F1 or 1-rae) — the downstream task.

    This is the expensive call whose invocation count Table IV reports and
    whose share of wall-clock Table I reports.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    scores = []
    for fold, (tr, te) in enumerate(kfold_indices(y, k, task, seed)):
        rf = RandomForest(
            task=task, n_trees=n_trees, max_depth=max_depth, seed=seed + fold
        )
        rf.fit(X[tr], y[tr])
        scores.append(metric_score(y[te], rf.predict(X[te]), task))
    return float(np.mean(scores))
