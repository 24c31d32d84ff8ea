"""Histogram-based CART decision tree (classifier + regressor), numpy only.

This is the substrate under ``repro.ml.forest`` — the paper's downstream
evaluation task is Random-Forest cross-validation, and the box has no
sklearn, so the tree is built from scratch, after the ``hist`` tree
method of LightGBM and XGBoost. Features are quantile-binned to uint8
codes; ``RandomForest`` bins once per forest fit and hands every tree
the codes of its bootstrap rows. A tree grows level by level: at each
depth the frontier's nodes draw their candidate features (one draw for
the whole level, nodes in breadth-first order), one ``np.bincount``
builds every (node, candidate, bin, class) histogram (three for
regression: count, sum, sum of squares), and a vectorised scan picks
each node's best split. No Python runs per node, so a depth-6 fit costs
a fixed few dozen numpy calls per level (a few milliseconds on 667 x 34
codes) — essential because AFE evaluates hundreds of candidate features
per epoch.
"""
from __future__ import annotations

import numpy as np

__all__ = ["bin_features", "apply_bins", "DecisionTree"]

_LEAF = -1


def bin_features(X: np.ndarray, n_bins: int = 32) -> np.ndarray:
    """Quantile bin edges per feature; shape (F, n_bins - 1).

    Edges are interior cut points; values are later assigned with
    ``searchsorted`` so constant features collapse to a single bin.
    """
    X = np.asarray(X, dtype=np.float64)
    qs = np.linspace(0, 1, n_bins + 1)[1:-1]
    return np.quantile(X, qs, axis=0).T.copy()


def apply_bins(X: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Map raw values to uint8 bin codes using per-feature ``edges``."""
    X = np.asarray(X, dtype=np.float64)
    out = np.empty(X.shape, dtype=np.uint8)
    for f in range(X.shape[1]):
        out[:, f] = np.searchsorted(edges[f], X[:, f], side="right")
    return out


def finite(X: np.ndarray) -> np.ndarray:
    """``X`` as float64 with NaN and ±inf replaced by 0 (before binning)."""
    return np.nan_to_num(np.asarray(X, dtype=np.float64), nan=0.0, posinf=0.0, neginf=0.0)


def _impurity(s: np.ndarray, task: str) -> tuple[np.ndarray, np.ndarray]:
    """Row count and count-weighted impurity of sufficient statistics.

    Axis 0 of ``s`` holds class counts ('C': the weighted impurity is
    n·gini) or (count, sum, sum of squares) ('R': the sum of squared
    errors).
    """
    if task == "C":
        n = s.sum(0)
        return n, n - (s * s).sum(0) / np.maximum(n, 1)
    return s[0], s[2] - s[1] ** 2 / np.maximum(s[0], 1)


class DecisionTree:
    """CART over quantile-binned features, grown level by level.

    Parameters
    ----------
    task : 'C' (gini) or 'R' (variance reduction).
    max_depth, min_leaf : usual stopping rules.
    max_features : number of candidate features per node (random-forest
        style column subsampling); ``None`` means all.

    After ``fit`` the tree is a set of flat per-node arrays in
    breadth-first order (node 0 is the root): ``feature_`` (-1 at a
    leaf), ``threshold_`` (a row goes left when its bin code is
    ``<= threshold_``), ``left_``/``right_`` (a leaf points to itself)
    and ``value_`` — class fractions, shape (nodes, classes), or the
    mean target, shape (nodes,).
    """

    def __init__(
        self,
        task: str = "C",
        max_depth: int = 6,
        min_leaf: int = 2,
        max_features: int | None = None,
        n_bins: int = 32,
        seed: int = 0,
    ):
        if task not in ("C", "R"):
            raise ValueError("task must be 'C' or 'R'")
        self.task = task
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        self.max_features = max_features
        self.n_bins = n_bins
        self.seed = seed

    # -- fitting -----------------------------------------------------------

    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        edges: np.ndarray | None = None,
        classes: np.ndarray | None = None,
    ) -> "DecisionTree":
        """Fit on raw ``X``, or on bin codes when ``edges`` is given.

        With ``edges``, ``X`` holds the ``apply_bins(X, edges)`` codes
        (``RandomForest`` bins once and passes each tree its bootstrap
        rows). With ``classes`` (classification), ``y`` holds indices
        into ``classes`` instead of labels.
        """
        if edges is None:
            X = finite(X)
            edges = bin_features(X, self.n_bins)
            X = apply_bins(X, edges)
        self.edges_ = edges
        Xb = np.ascontiguousarray(X)
        n, n_features = Xb.shape
        n_bins = edges.shape[1] + 1
        if self.task == "C":
            if classes is None:
                classes, y = np.unique(y, return_inverse=True)
            self.classes_ = np.asarray(classes)
            y = np.asarray(y, dtype=np.intp)
            k = len(self.classes_)
            root = np.bincount(y, minlength=k).astype(np.float64)
        else:
            y = np.asarray(y, dtype=np.float64)
            mean = y.mean()
            y = y - mean  # centred, so the sums of squares keep their precision
            k = 3
            root = np.array([n, y.sum(), (y * y).sum()])
        mf = n_features
        if self.max_features is not None:
            mf = min(self.max_features, n_features)
        rng = np.random.default_rng(self.seed)
        importances = np.zeros(n_features)

        # Per level: node stats (k, width), split feature / bin, child ids.
        stats, feats, thrs, lefts, rights = [root[:, None]], [], [], [], []
        rows = np.arange(n)  # rows still in a splittable node ...
        pos = np.zeros(n, dtype=np.intp)  # ... and that node's frontier index
        first = 0  # node id of the frontier's first node
        for depth in range(self.max_depth + 1):
            S = stats[-1]
            width = S.shape[1]
            feat = np.full(width, _LEAF, dtype=np.intp)
            thr = np.zeros(width, dtype=np.intp)
            left_id = np.arange(first, first + width)  # a leaf points to itself
            right_id = left_id.copy()
            feats.append(feat)
            thrs.append(thr)
            lefts.append(left_id)
            rights.append(right_id)
            if depth == self.max_depth:
                break
            nn, sse = _impurity(S, self.task)
            open_ = nn >= 2 * self.min_leaf
            if self.task == "C":
                open_ &= S.max(0) < nn  # a pure node stays a leaf
            cand = np.flatnonzero(open_)
            if len(cand) == 0:
                break
            # Keep the rows of the open nodes, renumbered 0..P-1.
            P = len(cand)
            at = np.full(width, -1)
            at[cand] = np.arange(P)
            pos = at[pos]
            rows, pos = rows[pos >= 0], pos[pos >= 0]
            if mf < n_features:
                fs = np.argsort(rng.random((P, n_features)), axis=1)[:, :mf]
            else:
                fs = np.broadcast_to(np.arange(n_features), (P, n_features))
            # One histogram over (stat, bin, node, candidate); the stat and
            # bin axes lead so that the sums over them add whole slabs.
            codes = np.take(Xb, rows[:, None] * n_features + fs[pos]).astype(np.intp)
            cell = (codes * P + pos[:, None]) * mf + np.arange(mf)
            size = n_bins * P * mf
            if self.task == "C":
                hist = np.bincount((y[rows, None] * size + cell).ravel(), minlength=k * size)
            else:
                cell = cell.ravel()
                yr = np.repeat(y[rows], mf)
                hist = np.concatenate(
                    [
                        np.bincount(cell, minlength=size),
                        np.bincount(cell, weights=yr, minlength=size),
                        np.bincount(cell, weights=yr * yr, minlength=size),
                    ]
                )
            hist = hist.reshape(k, n_bins, P, mf)
            left = np.cumsum(hist, axis=1, dtype=np.float64)[:, :-1]
            right = S[:, None, cand, None] - left
            ln, lsse = _impurity(left, self.task)
            rn, rsse = _impurity(right, self.task)
            child = np.where((ln >= self.min_leaf) & (rn >= self.min_leaf), lsse + rsse, np.inf)
            # Per node, candidates in draw order, then bins: ties go to the
            # first candidate, then the lowest bin.
            child = child.transpose(1, 2, 0).reshape(P, -1)
            best = np.argmin(child, axis=1)
            gain_n = sse[cand] - child[np.arange(P), best]  # gain x node rows
            split = np.flatnonzero(gain_n > 1e-12 * nn[cand])
            if len(split) == 0:
                break
            j, b = np.divmod(best[split], n_bins - 1)
            f = fs[split, j]
            node = cand[split]
            feat[node] = f
            thr[node] = b
            left_id[node] = first + width + 2 * np.arange(len(split))
            right_id[node] = left_id[node] + 1
            np.add.at(importances, f, gain_n[split])
            # Children in breadth-first order: left, right per split node.
            pair = np.stack([left[:, b, split, j], right[:, b, split, j]], 2)
            stats.append(pair.reshape(k, -1))
            # Route the rows of the split nodes to their children.
            at = np.full(P, -1)
            at[split] = np.arange(len(split))
            pos = at[pos]
            rows, pos = rows[pos >= 0], pos[pos >= 0]
            go_right = np.take(Xb, rows * n_features + f[pos]) > b[pos]
            pos = 2 * pos + go_right
            first += width

        self.feature_ = np.concatenate(feats)
        self.threshold_ = np.concatenate(thrs)
        self.left_ = np.concatenate(lefts)
        self.right_ = np.concatenate(rights)
        S = np.concatenate(stats, axis=1)
        if self.task == "C":
            self.value_ = (S / np.maximum(S.sum(0), 1)).T
        else:
            self.value_ = mean + S[1] / np.maximum(S[0], 1)
        self.depth_ = len(stats) - 1
        self.feature_importances_ = importances
        return self

    # -- prediction --------------------------------------------------------

    def apply(self, Xb: np.ndarray) -> np.ndarray:
        """Leaf id of every row of bin codes ``Xb``."""
        node = np.zeros(len(Xb), dtype=np.intp)
        r = np.arange(len(Xb))
        # Leaves point to themselves, so depth_ steps land every row on its
        # leaf; at a leaf, feature_ = -1 reads a column nobody uses.
        for _ in range(self.depth_):
            go_left = Xb[r, self.feature_[node]] <= self.threshold_[node]
            node = np.where(go_left, self.left_[node], self.right_[node])
        return node

    def _leaf_values(self, X: np.ndarray) -> np.ndarray:
        return self.value_[self.apply(apply_bins(finite(X), self.edges_))]

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Class-probability matrix (classification only)."""
        if self.task != "C":
            raise ValueError("predict_proba is classification-only")
        return self._leaf_values(X)

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self.task == "C":
            return self.classes_[np.argmax(self.predict_proba(X), axis=1)]
        return self._leaf_values(X)
