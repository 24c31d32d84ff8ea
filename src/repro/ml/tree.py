"""Histogram-based CART decision tree (classifier + regressor), numpy only.

This is the substrate under ``repro.ml.forest`` — the paper's downstream
evaluation task is Random-Forest cross-validation, and the box has no
sklearn, so the tree is built from scratch, after the ``hist`` tree
method of LightGBM and XGBoost. Features are quantile-binned to uint8
codes (``bin_features``, ``apply_bins``), with NaN and ±inf cells read
as 0 first (``finite``, the one bad-cell rule of the package). A
``DecisionTree`` fits bin codes and class indices only: binning and
class encoding are done by ``RandomForest.fit`` for a raw matrix, once
per forest, and by ``repro.ml.forest.BinnedFolds`` per CV fold; every
tree gets the codes of its bootstrap rows. A fitted tree is flat node
arrays plus ``apply``, which routes rows of codes to their leaves.

A tree grows level by level: at each depth the frontier's nodes draw
their candidate features (one draw for the whole level, nodes in
breadth-first order), one ``np.bincount`` builds every (class, node,
candidate, bin) histogram (three for regression: count, sum, sum of
squares), one impurity call scores the left and right children of every
split, and a vectorised scan picks each node's best split. No Python
runs per node, so a depth-6 fit costs a fixed few dozen numpy calls per
level (about a millisecond on 667 x 15 codes) — essential because AFE
evaluates hundreds of candidate features per epoch.
"""
from __future__ import annotations

import numpy as np

__all__ = ["bin_features", "apply_bins", "finite", "DecisionTree"]

_LEAF = -1
# Quantile bins per feature, for every binning in the pipeline.
N_BINS = 32


def bin_features(X: np.ndarray) -> np.ndarray:
    """Quantile bin edges per feature; shape (F, N_BINS - 1).

    Edges are interior cut points; values are later assigned with
    ``searchsorted`` so constant features collapse to a single bin.
    """
    X = np.asarray(X, dtype=np.float64)
    qs = np.linspace(0, 1, N_BINS + 1)[1:-1]
    return np.quantile(X, qs, axis=0).T.copy()


def apply_bins(X: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Map raw values to uint8 bin codes using per-feature ``edges``."""
    X = np.asarray(X, dtype=np.float64)
    out = np.empty(X.shape, dtype=np.uint8)
    for f in range(X.shape[1]):
        out[:, f] = np.searchsorted(edges[f], X[:, f], side="right")
    return out


def finite(X: np.ndarray) -> np.ndarray:
    """``X`` as float64 with NaN and ±inf replaced by 0: how every model
    of the package reads a bad cell."""
    return np.nan_to_num(np.asarray(X, dtype=np.float64), nan=0.0, posinf=0.0, neginf=0.0)


def _renumber(
    rows: np.ndarray, pos: np.ndarray, keep: np.ndarray, width: int
) -> tuple[np.ndarray, np.ndarray]:
    """The rows whose frontier index is in ``keep``, with that index
    renumbered to its position in ``keep``."""
    at = np.full(width, -1)
    at[keep] = np.arange(len(keep))
    pos = at.take(pos)
    inside = pos >= 0
    return rows[inside], pos[inside]


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
        seed: int = 0,
    ):
        if task not in ("C", "R"):
            raise ValueError("task must be 'C' or 'R'")
        self.task = task
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        self.max_features = max_features
        self.seed = seed

    # -- fitting -----------------------------------------------------------

    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        edges: np.ndarray,
        classes: np.ndarray | None = None,
    ) -> "DecisionTree":
        """Fit on the bin codes ``X = apply_bins(raw, edges)``.

        For classification ``y`` holds indices into ``classes``; for
        regression it holds the targets.
        """
        Xb = np.ascontiguousarray(X, dtype=np.intp)  # codes widen once per fit
        n, n_features = Xb.shape
        n_bins = edges.shape[1] + 1
        if self.task == "C":
            y = np.asarray(y, dtype=np.intp)
            k = len(classes)
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

        stats = [root[:, None]]  # per level: node stats, shape (k, width)
        splits = []  # per level: split node ids, feature, bin, left child ids, gain
        rows = np.arange(n)  # rows still in a splittable node ...
        pos = np.zeros(n, dtype=np.intp)  # ... and that node's frontier index
        first = 0  # node id of the frontier's first node
        for _depth in range(self.max_depth):
            S = stats[-1]
            width = S.shape[1]
            nn, sse = _impurity(S, self.task)
            open_ = nn >= 2 * self.min_leaf
            if self.task == "C":
                open_ &= S.max(0) < nn  # a pure node stays a leaf
            cand = np.flatnonzero(open_)
            P = len(cand)
            if P == 0:
                break
            if P < width:  # keep the rows of the open nodes, renumbered 0..P-1
                rows, pos = _renumber(rows, pos, cand, width)
            if mf < n_features:
                fs = np.argsort(rng.random((P, n_features)), axis=1)[:, :mf]
            else:
                fs = np.broadcast_to(np.arange(n_features), (P, n_features))
            # One histogram over (stat, node, candidate, bin): the stat axis
            # leads, so the sums over it add whole slabs, and each node's
            # (candidate, bin) splits are one contiguous row.
            codes = Xb.take((rows * n_features)[:, None] + fs.take(pos, axis=0))
            size = P * mf * n_bins
            row = pos * (mf * n_bins)
            if self.task == "C":
                row += y.take(rows) * size
            cell = (codes + row[:, None] + np.arange(0, mf * n_bins, n_bins)).ravel()
            if self.task == "C":
                hist = np.bincount(cell, minlength=k * size)
            else:
                yr = np.repeat(y.take(rows), mf)
                hist = np.concatenate(
                    [
                        np.bincount(cell, minlength=size),
                        np.bincount(cell, weights=yr, minlength=size),
                        np.bincount(cell, weights=yr * yr, minlength=size),
                    ]
                )
            hist = hist.reshape(k, P, mf, n_bins)
            # Left and right children of every (node, candidate, bin) split,
            # on axis 1 of one array, so one impurity call scores both sides.
            sides = np.empty((k, 2, P, mf, n_bins - 1))
            sides[:, 0] = np.cumsum(hist[..., :-1], axis=3)  # exact for counts
            np.subtract(S.take(cand, axis=1)[:, :, None, None], sides[:, 0], out=sides[:, 1])
            cn, csse = _impurity(sides, self.task)
            child = np.where((cn >= self.min_leaf).all(0), csse[0] + csse[1], np.inf)
            # Per node, candidates in draw order, then bins: ties go to the
            # first candidate, then the lowest bin.
            child = child.reshape(P, -1)
            best = np.argmin(child, axis=1)
            gain_n = sse[cand] - child[np.arange(P), best]  # gain x node rows
            split = np.flatnonzero(gain_n > 1e-12 * nn[cand])
            n_split = len(split)
            if n_split == 0:
                break
            j, b = np.divmod(best[split], n_bins - 1)
            f = fs[split, j]
            left_id = first + width + 2 * np.arange(n_split)
            splits.append((first + cand[split], f, b, left_id, gain_n[split]))
            # Children in breadth-first order: left, right per split node.
            pair = sides[:, :, split, j, b]  # (k, side, split node)
            stats.append(pair.transpose(0, 2, 1).reshape(k, -1))
            # Route the rows of the split nodes to their children.
            if n_split < P:
                rows, pos = _renumber(rows, pos, split, P)
            go_right = Xb.take(rows * n_features + f.take(pos)) > b.take(pos)
            pos = 2 * pos + go_right
            first += width

        n_nodes = first + stats[-1].shape[1]
        self.feature_ = np.full(n_nodes, _LEAF, dtype=np.intp)
        self.threshold_ = np.zeros(n_nodes, dtype=np.intp)
        self.left_ = np.arange(n_nodes)  # a leaf points to itself
        self.right_ = self.left_.copy()
        importances = np.zeros(n_features)
        if splits:
            node, f, b, left_id, gain_n = (np.concatenate(a) for a in zip(*splits))
            self.feature_[node] = f
            self.threshold_[node] = b
            self.left_[node] = left_id
            self.right_[node] = left_id + 1
            # Sums each feature's gains in split order, as adding per level would.
            importances = np.bincount(f, weights=gain_n, minlength=n_features)
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
        n, n_features = Xb.shape
        node = np.zeros(n, dtype=np.intp)
        at = np.arange(n) * n_features  # row offsets into the flat codes
        # Leaves point to themselves, so depth_ steps land every row on its
        # leaf; at a leaf, feature_ = -1 reads a code nobody uses.
        for _ in range(self.depth_):
            go_left = Xb.take(at + self.feature_.take(node)) <= self.threshold_.take(node)
            node = np.where(go_left, self.left_.take(node), self.right_.take(node))
        return node
