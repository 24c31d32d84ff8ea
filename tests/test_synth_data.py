"""Tests for the synthetic tabular data generators."""
import numpy as np
import pytest

from repro import synth_data
from repro.synth_data import fpe_corpus, make_tabular


class TestMakeTabular:
    def test_shapes(self):
        X, y = make_tabular(task="C", n_samples=123, n_features=7, seed=0)
        assert X.shape == (123, 7) and y.shape == (123,)
        assert list(X.columns) == [f"f{i}" for i in range(7)]

    def test_classification_binary_balanced(self):
        _, y = make_tabular(task="C", n_samples=400, n_features=6, seed=1)
        assert set(y) == {0, 1}
        assert 0.4 < y.mean() < 0.6

    def test_multiclass(self, monkeypatch):
        monkeypatch.setattr(synth_data, "N_CLASSES", 3)
        _, y = make_tabular(task="C", n_samples=300, n_features=6, seed=2)
        assert set(y) == {0, 1, 2}

    def test_regression_float_target(self):
        _, y = make_tabular(task="R", n_samples=200, n_features=5, seed=3)
        assert y.dtype == np.float64 and np.std(y) > 0

    def test_deterministic(self):
        a = make_tabular(task="C", n_samples=100, n_features=5, seed=9)
        b = make_tabular(task="C", n_samples=100, n_features=5, seed=9)
        assert a[0].equals(b[0]) and (a[1] == b[1]).all()

    def test_different_seeds_differ(self):
        a, _ = make_tabular(task="C", n_samples=100, n_features=5, seed=1)
        b, _ = make_tabular(task="C", n_samples=100, n_features=5, seed=2)
        assert not a.equals(b)

    def test_invalid_task(self):
        with pytest.raises(ValueError):
            make_tabular(task="Z", n_samples=10, n_features=3)

    def test_target_needs_interactions(self):
        """The planted signal: engineered interactions beat raw columns."""
        from repro.ml.forest import cross_val_score

        X, y = make_tabular(task="C", n_samples=600, n_features=8, seed=4)
        base = cross_val_score(X.values, y, "C", k=3, n_trees=6)
        assert base < 0.97  # headroom must exist

    def test_informative_clipped_to_features(self):
        X, y = make_tabular(task="C", n_samples=100, n_features=3, n_informative=50, seed=5)
        assert X.shape[1] == 3


class TestFpeCorpus:
    def test_corpus_size_and_fields(self):
        c = fpe_corpus(6, seed=1000)
        assert len(c) == 6
        for e in c:
            assert set(e) == {"name", "task", "X", "y"}
            assert len(e["X"]) == len(e["y"])

    def test_mixes_tasks(self):
        c = fpe_corpus(9, seed=1000)
        tasks = {e["task"] for e in c}
        assert tasks == {"C", "R"}

    def test_deterministic(self):
        a = fpe_corpus(4, seed=42)
        b = fpe_corpus(4, seed=42)
        assert all(x["X"].equals(y["X"]) for x, y in zip(a, b))

    def test_shapes_vary(self):
        c = fpe_corpus(8, seed=7)
        shapes = {e["X"].shape for e in c}
        assert len(shapes) > 4
