"""Tests for the histogram-CART tree and Random Forest substrate."""
import numpy as np
import pytest

from repro.ml.forest import BinnedFolds, RandomForest, cross_val_score, kfold_indices
from repro.ml.metrics import score as metric_score
from repro.ml.tree import DecisionTree, apply_bins, bin_features


@pytest.fixture()
def clf_data():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(400, 6))
    y = (X[:, 0] + 0.5 * X[:, 1] > 0).astype(int)
    return X, y


@pytest.fixture()
def reg_data():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(400, 6))
    y = 2.0 * X[:, 0] - X[:, 1] + 0.05 * rng.normal(size=400)
    return X, y


class TestBinning:
    def test_edges_shape(self):
        X = np.random.default_rng(0).normal(size=(100, 4))
        edges = bin_features(X, n_bins=16)
        assert edges.shape == (4, 15)

    def test_bins_in_range(self):
        X = np.random.default_rng(0).normal(size=(100, 3))
        edges = bin_features(X, n_bins=8)
        b = apply_bins(X, edges)
        assert b.dtype == np.uint8
        assert b.min() >= 0 and b.max() <= 7

    def test_constant_column_single_bin(self):
        X = np.ones((50, 1))
        edges = bin_features(X, n_bins=8)
        b = apply_bins(X, edges)
        assert len(np.unique(b)) == 1

    def test_monotone_mapping(self):
        X = np.arange(100, dtype=float)[:, None]
        edges = bin_features(X, n_bins=10)
        b = apply_bins(X, edges)[:, 0].astype(int)
        assert (np.diff(b) >= 0).all()


class TestDecisionTree:
    def test_classification_separable(self, clf_data):
        X, y = clf_data
        t = DecisionTree(task="C", max_depth=6).fit(X, y)
        assert (t.predict(X) == y).mean() > 0.9

    def test_regression_fit(self, reg_data):
        X, y = reg_data
        t = DecisionTree(task="R", max_depth=6).fit(X, y)
        resid = y - t.predict(X)
        assert resid.var() < 0.3 * y.var()

    def test_predict_proba_rows_sum_to_one(self, clf_data):
        X, y = clf_data
        t = DecisionTree(task="C").fit(X, y)
        p = t.predict_proba(X[:20])
        np.testing.assert_allclose(p.sum(axis=1), 1.0)

    def test_proba_regression_raises(self, reg_data):
        X, y = reg_data
        t = DecisionTree(task="R").fit(X, y)
        with pytest.raises(ValueError):
            t.predict_proba(X)

    def test_max_depth_zero_is_constant(self, clf_data):
        X, y = clf_data
        t = DecisionTree(task="C", max_depth=0).fit(X, y)
        assert len(np.unique(t.predict(X))) == 1

    def test_invalid_task(self):
        with pytest.raises(ValueError):
            DecisionTree(task="Z")

    def test_pure_node_stops(self):
        X = np.random.default_rng(0).normal(size=(50, 2))
        y = np.zeros(50, dtype=int)
        t = DecisionTree(task="C").fit(X, y)
        assert (t.predict(X) == 0).all()

    def test_importances_identify_signal(self, clf_data):
        X, y = clf_data
        t = DecisionTree(task="C", max_depth=5).fit(X, y)
        # Signal features 0/1 should dominate the noise columns.
        assert t.feature_importances_[:2].sum() > t.feature_importances_[2:].sum()

    def test_nan_inputs_handled(self, clf_data):
        X, y = clf_data
        X = X.copy()
        X[0, 0] = np.nan
        t = DecisionTree(task="C").fit(X, y)
        assert np.isfinite(t.predict_proba(X)).all()

    def test_deterministic(self, clf_data):
        X, y = clf_data
        p1 = DecisionTree(task="C", seed=3, max_features=2).fit(X, y).predict(X)
        p2 = DecisionTree(task="C", seed=3, max_features=2).fit(X, y).predict(X)
        assert (p1 == p2).all()


class TestRandomForest:
    def test_classification_beats_chance(self, clf_data):
        X, y = clf_data
        rf = RandomForest(task="C", n_trees=8).fit(X, y)
        assert (rf.predict(X) == y).mean() > 0.9

    def test_regression_fit(self, reg_data):
        X, y = reg_data
        rf = RandomForest(task="R", n_trees=8).fit(X, y)
        assert np.corrcoef(rf.predict(X), y)[0, 1] > 0.9

    def test_deterministic_in_seed(self, clf_data):
        X, y = clf_data
        a = RandomForest(task="C", seed=7).fit(X, y).predict(X)
        b = RandomForest(task="C", seed=7).fit(X, y).predict(X)
        assert (a == b).all()

    def test_importances_normalized(self, clf_data):
        X, y = clf_data
        rf = RandomForest(task="C").fit(X, y)
        assert rf.feature_importances_.sum() == pytest.approx(1.0)
        assert np.argmax(rf.feature_importances_) in (0, 1)


class TestKFold:
    def test_partition_covers_all(self):
        y = np.arange(100) % 2
        folds = kfold_indices(y, 4, "C", seed=0)
        all_test = np.concatenate([te for _, te in folds])
        assert sorted(all_test) == list(range(100))

    def test_train_test_disjoint(self):
        y = np.random.default_rng(0).integers(0, 2, 60)
        for tr, te in kfold_indices(y, 3, "C"):
            assert not set(tr) & set(te)

    def test_stratification(self):
        y = np.array([0] * 80 + [1] * 20)
        for _, te in kfold_indices(y, 4, "C", seed=1):
            # each fold should hold ~5 positives (exactly, by round-robin)
            assert 3 <= (y[te] == 1).sum() <= 7

    def test_regression_unstratified(self):
        y = np.random.default_rng(0).normal(size=50)
        folds = kfold_indices(y, 5, "R")
        assert len(folds) == 5


class TestCrossVal:
    def test_signal_beats_shuffled(self, clf_data):
        X, y = clf_data
        s_real = cross_val_score(X, y, "C", k=3, n_trees=6)
        s_null = cross_val_score(X, np.random.default_rng(2).permutation(y), "C", k=3, n_trees=6)
        assert s_real > s_null + 0.2

    def test_informative_feature_raises_score(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(500, 8))
        y = (X[:, 0] * X[:, 1] > 0).astype(int)  # pure interaction
        base = cross_val_score(X, y, "C", k=3, n_trees=6)
        engineered = cross_val_score(np.c_[X, X[:, 0] * X[:, 1]], y, "C", k=3, n_trees=6)
        assert engineered > base + 0.1

    def test_regression_range(self, reg_data):
        X, y = reg_data
        s = cross_val_score(X, y, "R", k=3, n_trees=6)
        assert 0.5 < s <= 1.0

    def test_deterministic(self, clf_data):
        X, y = clf_data
        assert cross_val_score(X, y, "C", seed=5) == cross_val_score(X, y, "C", seed=5)


def _brute_force_root(Xb, y, task, min_leaf):
    """Every (feature, bin) split of the root, scored from scratch:
    returns {(f, b): rows-weighted child impurity}."""
    def impurity(v):
        if task == "C":
            p = np.bincount(v) / len(v)
            return 1.0 - np.sum(p**2)
        return v.var()

    out = {}
    for f in range(Xb.shape[1]):
        for b in range(int(Xb[:, f].max())):
            go_left = Xb[:, f] <= b
            nl = int(go_left.sum())
            if nl < min_leaf or len(y) - nl < min_leaf:
                continue
            out[(f, b)] = nl * impurity(y[go_left]) + (len(y) - nl) * impurity(y[~go_left])
    return out


def _node_depths(tree):
    depth = np.zeros(len(tree.feature_), dtype=int)
    for node in range(len(tree.feature_)):  # breadth-first: parents come first
        if tree.feature_[node] >= 0:
            depth[tree.left_[node]] = depth[tree.right_[node]] = depth[node] + 1
    return depth


class TestLevelWiseTree:
    @pytest.mark.parametrize("task", ["C", "R"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_root_split_is_brute_force_optimum(self, task, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(300, 5))
        if task == "C":
            y = (X[:, 2] + 0.7 * rng.normal(size=300) > 0.3).astype(int)
        else:
            y = np.sin(2 * X[:, 3]) + 0.3 * rng.normal(size=300)
        t = DecisionTree(task=task, max_depth=3, min_leaf=4, max_features=None).fit(X, y)
        cands = _brute_force_root(apply_bins(X, t.edges_), y, task, 4)
        best = min(cands, key=cands.get)
        runner_up = sorted(cands.values())[1]
        assert runner_up - cands[best] > 1e-9  # the optimum is unique
        assert (t.feature_[0], t.threshold_[0]) == best
        # A stump's importance is the root's gain x rows.
        stump = DecisionTree(task=task, max_depth=1, min_leaf=4).fit(X, y)
        parent = len(y) * (1.0 - np.sum((np.bincount(y) / len(y)) ** 2) if task == "C" else y.var())
        assert stump.feature_importances_.sum() == pytest.approx(parent - cands[best], rel=1e-9)

    @pytest.mark.parametrize("task", ["C", "R"])
    def test_leaves_respect_min_leaf_and_max_depth(self, task):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(500, 7))
        y = (X[:, 0] * X[:, 1] > 0).astype(int) if task == "C" else X[:, 0] * X[:, 1]
        for max_depth, min_leaf in ((4, 5), (7, 2), (2, 40)):
            t = DecisionTree(task, max_depth, min_leaf, max_features=3, seed=1).fit(X, y)
            counts = np.bincount(t.apply(apply_bins(X, t.edges_)), minlength=len(t.feature_))
            leaf = t.feature_ < 0
            assert (counts[leaf] >= min_leaf).all()
            assert (counts[~leaf] == 0).all()  # every row ends at a leaf
            assert _node_depths(t).max() <= max_depth
            assert t.depth_ == _node_depths(t).max()

    def test_leaf_values_are_training_rows_of_the_leaf(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(400, 4))
        y = X[:, 0] + 10.0 * (X[:, 1] > 0) + 1e6  # large offset: exercise precision
        t = DecisionTree("R", max_depth=5, min_leaf=3).fit(X, y)
        leaves = t.apply(apply_bins(X, t.edges_))
        for node in np.unique(leaves):
            assert t.value_[node] == pytest.approx(y[leaves == node].mean(), rel=1e-12)

    def test_regression_target_with_large_offset(self, reg_data):
        X, y = reg_data
        t = DecisionTree(task="R", max_depth=6).fit(X, y + 1e9)
        resid = y + 1e9 - t.predict(X)
        assert resid.var() < 0.3 * y.var()

    def test_forest_fit_bins_once(self, monkeypatch, clf_data):
        import repro.ml.forest as forest_mod
        import repro.ml.tree as tree_mod

        calls = []
        orig = tree_mod.bin_features

        def counting(*args, **kwargs):
            calls.append(1)
            return orig(*args, **kwargs)

        monkeypatch.setattr(tree_mod, "bin_features", counting)
        monkeypatch.setattr(forest_mod, "bin_features", counting)
        X, y = clf_data
        RandomForest(task="C", n_trees=5).fit(X, y)
        assert len(calls) == 1

    @pytest.mark.parametrize("task", ["C", "R"])
    def test_forest_predict_averages_its_trees(self, task, clf_data, reg_data):
        X, y = clf_data if task == "C" else reg_data
        y = np.where(y == 1, "yes", "no") if task == "C" else y
        rf = RandomForest(task=task, n_trees=4, seed=2).fit(X[:300], y[:300])
        if task == "C":
            p = sum(t.predict_proba(X[300:]) for t in rf.trees_)
            expected = rf.classes_[np.argmax(p, axis=1)]
            np.testing.assert_array_equal(rf.predict(X[300:]), expected)
        else:
            expected = np.mean([t.predict(X[300:]) for t in rf.trees_], axis=0)
            np.testing.assert_allclose(rf.predict(X[300:]), expected, rtol=1e-12)

    def test_tree_on_codes_equals_tree_on_raw(self, clf_data):
        X, y = clf_data
        edges = bin_features(X)
        a = DecisionTree("C", seed=5, max_features=2).fit(X, y)
        b = DecisionTree("C", seed=5, max_features=2).fit(
            apply_bins(X, edges), y, edges=edges, classes=np.unique(y)
        )
        for attr in ("feature_", "threshold_", "left_", "right_", "value_"):
            np.testing.assert_array_equal(getattr(a, attr), getattr(b, attr))

    def test_wide_frontier_codes_do_not_overflow(self):
        """Histogram cells reach n_bins x nodes x candidates, far past 255;
        uint8 codes must widen before they are multiplied."""
        rng = np.random.default_rng(8)
        X = rng.normal(size=(1500, 40))
        y = (X[:, :8].sum(1) > 0).astype(int)  # many weak features: wide trees
        edges = bin_features(X)
        codes = apply_bins(X, edges)
        kw = dict(task="C", max_depth=7, min_leaf=1, max_features=None, seed=0)
        a = DecisionTree(**kw).fit(codes, y, edges=edges)
        b = DecisionTree(**kw).fit(codes.astype(np.int64), y, edges=edges)
        widths = np.bincount(_node_depths(a)[a.feature_ >= 0])
        assert widths.max() * X.shape[1] > 255  # some level split > 6 nodes
        for attr in ("feature_", "threshold_", "left_", "right_", "value_"):
            np.testing.assert_array_equal(getattr(a, attr), getattr(b, attr))
        assert (a.predict(X) == y).mean() > 0.85


def _reference_cv(X, y, task, k=3, n_trees=8, seed=0):
    """Per-fold RF CV on raw matrices: fit on X[tr], predict X[te]."""
    X, y = np.asarray(X, dtype=np.float64), np.asarray(y)
    scores = []
    for fold, (tr, te) in enumerate(kfold_indices(y, k, task, seed)):
        rf = RandomForest(task=task, n_trees=n_trees, seed=seed + fold)
        rf.fit(X[tr], y[tr])
        scores.append(metric_score(y[te], rf.predict(X[te]), task))
    return float(np.mean(scores))


def _cases():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(90, 5))
    y_c = (X[:, 0] + 0.5 * rng.normal(size=90) > 0).astype(int)
    y_r = X[:, 1] * X[:, 2] + 0.1 * rng.normal(size=90)
    bad = X.copy()
    bad[::7, 0], bad[1::9, 1], bad[2::11, 2] = np.nan, np.inf, -np.inf
    const = X.copy()
    const[:, [1, 3]] = 2.5
    # One member of class 1: the fold that tests it trains on class 0 only.
    lone = np.zeros(90, dtype=int)
    lone[4] = 1
    return {
        "classification": (X, y_c, "C"),
        "regression": (X, y_r, "R"),
        "nan_inf_C": (bad, y_c, "C"),
        "nan_inf_R": (bad, y_r, "R"),
        "constant_columns": (const, y_c, "C"),
        "single_class_fold": (X, lone, "C"),
        "string_labels": (X, np.where(y_c == 1, "yes", "no"), "C"),
    }


class TestBinnedFolds:
    CASES = _cases()

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("seed", [0, 3])
    def test_equals_reference_loop(self, case, seed):
        X, y, task = self.CASES[case]
        kw = dict(k=3, n_trees=4, seed=seed)
        expected = _reference_cv(X, y, task, **kw)
        assert cross_val_score(X, y, task, **kw) == expected
        state = BinnedFolds(X, y, task, k=3, seed=seed)
        assert cross_val_score(state, y, task, **kw) == expected

    def test_single_class_fold_is_degenerate(self):
        X, y, task = self.CASES["single_class_fold"]
        state = BinnedFolds(X, y, task)
        assert min(len(classes) for classes, _ in state.targets) == 1

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_append_and_drop_equal_binning_from_scratch(self, case):
        X, y, task = self.CASES[case]

        def same(a, b):
            for fold_a, fold_b in zip(a.codes, b.codes):
                for u, v in zip(fold_a, fold_b):
                    assert u.dtype == v.dtype
                    np.testing.assert_array_equal(u, v)

        full = BinnedFolds(X, y, task, k=3, seed=1)
        grown = BinnedFolds(X[:, :2], y, task, k=3, seed=1).append(X[:, 2:4]).append(X[:, 4])
        same(grown, full)
        for j in range(X.shape[1]):
            same(full.drop(j), BinnedFolds(np.delete(X, j, 1), y, task, k=3, seed=1))
        kw = dict(k=3, n_trees=3, seed=1)
        assert cross_val_score(grown.drop(1), y, task, **kw) == _reference_cv(
            np.delete(X, 1, 1), y, task, **kw
        )

    def test_append_and_drop_leave_the_state_unchanged(self, clf_data):
        X, y = clf_data
        state = BinnedFolds(X, y, "C")
        before = [tuple(a.copy() for a in fold) for fold in state.codes]
        assert state.append(X[:, 0] ** 2).codes[0][0].shape == (7, 31)
        assert state.drop(0).codes[0][0].shape == (5, 31)
        for fold, kept in zip(state.codes, before):
            for a, b in zip(fold, kept):
                np.testing.assert_array_equal(a, b)

    def test_other_folds_rejected(self, clf_data):
        X, y = clf_data
        state = BinnedFolds(X, y, "C", k=3, seed=0)
        for kw in (dict(k=4), dict(seed=1)):
            with pytest.raises(ValueError):
                cross_val_score(state, y, "C", **kw)
        with pytest.raises(ValueError):
            cross_val_score(state, y, "R")


class TestCrossValDegenerate:
    """Degenerate inputs still give a finite score."""

    def _data(self, n=60, f=4, seed=0):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, f))
        return X, (X[:, 0] > 0).astype(int)

    def test_nan_and_inf(self):
        X, y = self._data()
        X[::7, 0] = np.nan
        X[1::9, 1] = np.inf
        X[2::11, 2] = -np.inf
        for task, target in (("C", y), ("R", X[:, 3])):
            assert np.isfinite(cross_val_score(X, target, task, k=3, n_trees=3))

    def test_all_constant_columns(self):
        X, y = self._data()
        assert np.isfinite(cross_val_score(np.ones_like(X), y, "C", k=3, n_trees=3))
        assert np.isfinite(cross_val_score(np.zeros_like(X), X[:, 0], "R", k=3, n_trees=3))

    def test_class_with_two_members(self):
        X, y = self._data()
        y[:2] = 2
        assert np.isfinite(cross_val_score(X, y, "C", k=3, n_trees=3))

    def test_single_class(self):
        X, _ = self._data()
        assert np.isfinite(cross_val_score(X, np.zeros(len(X), dtype=int), "C", k=3, n_trees=3))

    def test_five_rows(self):
        X, y = self._data(n=5)
        y[:3] = [0, 1, 0]
        for task, target in (("C", y), ("R", X[:, 1])):
            assert np.isfinite(cross_val_score(X, target, task, k=3, n_trees=3))

    def test_constant_regression_target(self):
        X, _ = self._data()
        assert np.isfinite(cross_val_score(X, np.full(len(X), 4.2), "R", k=3, n_trees=3))

    def test_huge_values(self):
        X, y = self._data()
        assert np.isfinite(cross_val_score(X * 1e300, y, "C", k=3, n_trees=3))
        assert np.isfinite(cross_val_score(X * 1e300, X[:, 0], "R", k=3, n_trees=3))
