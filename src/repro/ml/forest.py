"""Random Forest + cross-validation — the paper's downstream task.

Following NFS (and E-AFE, which keeps NFS's protocol for fairness), every
feature evaluation is a Random-Forest cross-validation score: F1 for
classification, 1-rae for regression. ``cross_val_score`` is the single
CV implementation every method calls. Table IV's "feature evaluation
numbers" are counted by the caller (``AFEResult.n_evaluated``), since
the final report and the base score call it too.

A search scores many matrices that differ from its current state by one
column. ``BinnedFolds`` holds that state binned per fold, one column at
a time, so scoring a candidate bins only the candidate's column; the
codes are the same as binning the whole matrix from scratch.
"""
from __future__ import annotations

import copy

import numpy as np

from .metrics import score as metric_score
from .tree import DecisionTree, apply_bins, bin_features, finite

__all__ = ["RandomForest", "BinnedFolds", "kfold_indices", "cross_val_score"]

# Every forest in the pipeline grows its trees alike: depth 6, leaves of
# at least 2 rows, sqrt(F) candidate features per node, over
# ``bin_features``'s quantile bins.
MAX_DEPTH = 6
MIN_LEAF = 2


class RandomForest:
    """Bagged histogram-CART ensemble over one binning; deterministic in ``seed``."""

    def __init__(self, task: str = "C", n_trees: int = 10, seed: int = 0):
        self.task = task
        self.n_trees = n_trees
        self.seed = seed

    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        edges: np.ndarray | None = None,
        classes: np.ndarray | None = None,
    ) -> "RandomForest":
        """Bin ``X`` once and encode the classes once; every tree then
        fits on the bin codes and class indices of its bootstrap rows.

        With ``edges``, ``X`` already holds the ``apply_bins(X, edges)``
        codes; with ``classes`` (classification), ``y`` already holds
        indices into ``classes``.
        """
        y = np.asarray(y)
        rng = np.random.default_rng(self.seed)
        if edges is None:
            X = finite(X)
            edges = bin_features(X)
            X = apply_bins(X, edges)
        self.edges_ = edges
        mf = max(1, int(np.sqrt(X.shape[1])))
        if self.task == "C":
            if classes is None:
                classes, y = np.unique(y, return_inverse=True)
            self.classes_ = np.asarray(classes)
        self.trees_: list[DecisionTree] = []
        for t in range(self.n_trees):
            boot = rng.integers(0, len(y), len(y))
            if self.task == "C" and np.ptp(y[boot]) == 0:
                boot = np.arange(len(y))  # degenerate bootstrap: fall back
            tree = DecisionTree(self.task, MAX_DEPTH, MIN_LEAF, mf, seed=self.seed * 1000 + t)
            tree.fit(X[boot], y[boot], edges=edges, classes=classes)
            self.trees_.append(tree)
        imp = np.sum([t.feature_importances_ for t in self.trees_], axis=0)
        total = imp.sum()
        self.feature_importances_ = imp / total if total > 0 else imp
        return self

    def predict(self, X: np.ndarray, binned: bool = False) -> np.ndarray:
        """Bin ``X`` once (unless ``binned``: ``X`` holds codes under the
        fit's edges); each tree maps the codes to its leaves' values.
        Classification sums the trees' class fractions (all trees share
        the forest's class encoding) and takes the argmax."""
        Xb = X if binned else apply_bins(finite(X), self.edges_)
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


class BinnedFolds:
    """A feature matrix binned per cross-validation fold, column by column.

    For one target ``y``, task and fold seed it holds the folds of
    ``kfold_indices``, each fold's class indices (classification), and
    per fold and column the bin edges fitted on the fold's training rows
    with the training and test rows' codes. Each column is binned on its
    own, so ``append`` and ``drop`` give the codes that binning the
    resulting matrix from scratch would. Both return a new state and
    leave this one as it is.
    """

    def __init__(self, X: np.ndarray, y: np.ndarray, task: str, *, k: int = 3, seed: int = 0):
        self.y = np.asarray(y)
        self.task, self.k, self.seed = task, k, seed
        self.folds = kfold_indices(self.y, k, task, seed)
        # Per fold: (classes, class indices) or (None, targets) of the
        # training rows.
        self.targets = [
            np.unique(self.y[tr], return_inverse=True) if task == "C" else (None, self.y[tr])
            for tr, _ in self.folds
        ]
        self.codes = self._bin(X)  # per fold: (edges, train codes, test codes)

    def _bin(self, X: np.ndarray) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        X = finite(X)
        if X.ndim == 1:
            X = X[:, None]
        out = []
        for tr, te in self.folds:
            edges = bin_features(X[tr])
            out.append((edges, apply_bins(X[tr], edges), apply_bins(X[te], edges)))
        return out

    def _with(self, codes: list) -> "BinnedFolds":
        new = copy.copy(self)
        new.codes = codes
        return new

    def append(self, X: np.ndarray) -> "BinnedFolds":
        """This state with the column(s) of ``X`` appended; only ``X`` is binned."""
        return self._with(
            [
                (np.concatenate([e, e2]), np.hstack([tr, tr2]), np.hstack([te, te2]))
                for (e, tr, te), (e2, tr2, te2) in zip(self.codes, self._bin(X))
            ]
        )

    def drop(self, j: int) -> "BinnedFolds":
        """This state without column ``j``."""
        return self._with(
            [
                (np.delete(e, j, 0), np.delete(tr, j, 1), np.delete(te, j, 1))
                for e, tr, te in self.codes
            ]
        )


def cross_val_score(
    X: np.ndarray | BinnedFolds,
    y: np.ndarray,
    task: str,
    *,
    k: int = 3,
    n_trees: int = 8,
    seed: int = 0,
) -> float:
    """Mean RF cross-validation score (F1 or 1-rae) — the downstream task.

    ``X`` is a raw matrix, or a ``BinnedFolds`` built for this ``y``,
    ``task``, ``k`` and ``seed``; a raw matrix is binned into one first.
    This is the expensive call whose share of wall-clock Table I reports.
    """
    state = X if isinstance(X, BinnedFolds) else BinnedFolds(X, y, task, k=k, seed=seed)
    if (state.task, state.k, state.seed) != (task, k, seed):
        raise ValueError("the binned folds were built for another task, k or seed")
    scores = []
    for fold, ((_, te), (classes, y_tr), (edges, X_tr, X_te)) in enumerate(
        zip(state.folds, state.targets, state.codes)
    ):
        rf = RandomForest(task=task, n_trees=n_trees, seed=seed + fold)
        rf.fit(X_tr, y_tr, edges=edges, classes=classes)
        scores.append(metric_score(state.y[te], rf.predict(X_te, binned=True), task))
    return float(np.mean(scores))
