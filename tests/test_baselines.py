"""Tests for the baselines: NFS, AutoFS_R, and the DL family."""
from dataclasses import fields, replace

import numpy as np
import pytest

from repro.baselines.autofs import random_pool, run_autofs_r
from repro.baselines.nfs import nfs_config, run_nfs
from repro.baselines.rtdl import run_dl_fe, run_fe_dl, run_rtdl_n, split_indices
from repro.bench.datasets import by_name, load_dataset
from repro.core.eafe import AFEConfig, build_feature_matrix, run_afe
from repro.core.transform import leaf
from repro.synth_data import make_tabular

TINY = AFEConfig(
    epochs_stage1=1, epochs_stage2=2, steps_per_agent=2, max_agents=5,
    cv_k=3, cv_trees=4, seed=0,
)


@pytest.fixture(scope="module")
def data():
    X, y = make_tabular(task="C", n_samples=220, n_features=6, seed=5)
    return X.values, y


class TestNFSConfig:
    def test_flags(self):
        c = nfs_config(TINY)
        assert c.evaluate_all and not c.two_stage and not c.dedup
        assert c.dropout_keep is None

    def test_budget_carried_over(self):
        base = AFEConfig(
            epochs_stage1=2, epochs_stage2=3, steps_per_agent=5, max_order=4,
            gamma=0.8, lam=0.7, thre=0.02, max_agents=6, max_state_features=12,
            dropout_keep=0.3, two_stage=False, evaluate_all=True, dedup=False,
            proposals_per_step=3, gate_keep=0.5, cv_k=4, cv_trees=5,
            final_cv_k=3, final_cv_trees=2, accept_margin=0.01, seed=7,
        )
        assert all(getattr(base, f.name) != f.default for f in fields(AFEConfig))
        c = nfs_config(base)
        nfs_flags = {"dropout_keep", "two_stage", "evaluate_all", "dedup"}
        for f in fields(AFEConfig):
            if f.name not in nfs_flags:
                assert getattr(c, f.name) == getattr(base, f.name), f.name

    def test_run(self, data):
        X, y = data
        r = run_nfs(X, y, "C", TINY)
        assert r.best_score >= r.base_score
        assert r.n_evaluated > 0


class TestFinalReport:
    def test_shared_base_score(self, data):
        """Every RF method reports its kept originals under one final CV,
        the one its config asks for."""
        X, y = data
        cfg = replace(TINY, final_cv_k=3, final_cv_trees=2)
        runs = [
            run_afe(X, y, "C", None, replace(cfg, dropout_keep=0.5)),
            run_nfs(X, y, "C", cfg),
            run_autofs_r(X, y, "C", cfg),
        ]
        for r in runs[1:]:
            np.testing.assert_array_equal(r.kept_columns, runs[0].kept_columns)
            assert r.base_score == runs[0].base_score


class TestGoldenRows:
    """Pinned results on ``labor`` at the TINY config. A change that moves
    any of them changes the methods' results, not only their speed."""

    GOLDEN = {
        "NFS": (0.7437161531279177, 11, ["add(f0,f0)", "log(f4)"]),
        "E-AFE_D": (0.7857703081232492, 5, ["reciprocal(f2)"]),
        "FS_R": (0.8116573295985061, 20, ["div(f3,f2)", "div(div(f3,f2),log(f1))"]),
    }
    BASE_SCORE = 0.7214285714285714

    @pytest.mark.parametrize("method", sorted(GOLDEN))
    def test_labor(self, method):
        X, y = load_dataset(by_name("labor"))
        X = X.values.astype(np.float64)
        run = {
            "NFS": lambda: run_nfs(X, y, "C", TINY),
            "E-AFE_D": lambda: run_afe(X, y, "C", None, replace(TINY, dropout_keep=0.5)),
            "FS_R": lambda: run_autofs_r(X, y, "C", TINY),
        }[method]
        r = run()
        assert (r.best_score, r.n_evaluated, r.feature_names) == self.GOLDEN[method]
        assert r.base_score == self.BASE_SCORE


class TestRandomPool:
    def test_pool_size_and_orders(self):
        X = np.random.default_rng(0).normal(size=(50, 4))
        pool = random_pool(X, 30, max_order=3, rng=np.random.default_rng(1))
        assert len(pool) == 30
        assert all(1 <= s.order <= 3 for s in pool)

    def test_no_leaves_in_pool(self):
        X = np.random.default_rng(0).normal(size=(50, 4))
        pool = random_pool(X, 20, 5, np.random.default_rng(2))
        assert all(not s.is_leaf for s in pool)

    def test_leaves_within_columns(self):
        X = np.random.default_rng(0).normal(size=(50, 3))
        pool = random_pool(X, 20, 4, np.random.default_rng(3))
        assert all(s.leaves() <= {0, 1, 2} for s in pool)


class TestAutoFSR:
    def test_run(self, data):
        X, y = data
        r = run_autofs_r(X, y, "C", TINY)
        assert r.best_score >= r.base_score
        # FS_R evaluates every (valid) pooled feature once
        assert r.n_evaluated <= r.n_generated
        assert r.n_evaluated >= r.n_generated * 0.5

    def test_selected_specs_buildable(self, data):
        X, y = data
        r = run_autofs_r(X, y, "C", TINY)
        M = build_feature_matrix(X, r)
        assert M.shape[1] == len(r.kept_columns) + len(r.selected_specs)

    def test_deterministic(self, data):
        X, y = data
        a = run_autofs_r(X, y, "C", TINY)
        b = run_autofs_r(X, y, "C", TINY)
        assert a.best_score == b.best_score


class TestSplits:
    def test_disjoint_and_complete(self):
        tr, va, te = split_indices(100, seed=0)
        allidx = np.concatenate([tr, va, te])
        assert sorted(allidx) == list(range(100))
        assert not (set(tr) & set(va)) and not (set(va) & set(te))

    def test_fractions(self):
        tr, va, te = split_indices(1000, seed=1)
        assert len(tr) == 600 and len(va) == 200 and len(te) == 200

    def test_deterministic(self):
        a = split_indices(50, seed=2)
        b = split_indices(50, seed=2)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)


class TestDLBaselines:
    def test_rtdl_n_classification(self, data):
        X, y = data
        out = run_rtdl_n(X, y, "C", seed=0)
        assert 0.0 <= out["score"] <= 1.0
        assert out["time"] > 0

    def test_rtdl_n_regression(self):
        X, y = make_tabular(task="R", n_samples=200, n_features=5, seed=6)
        out = run_rtdl_n(X.values, y, "R", seed=0)
        assert 0.0 <= out["score"] <= 1.0  # clipped at 0

    def test_fe_dl(self, data):
        X, y = data
        out = run_fe_dl(X, y, "C", seed=0)
        assert 0.0 <= out["score"] <= 1.0

    def test_dl_fe(self, data):
        X, y = data
        out = run_dl_fe(X, y, "C", seed=0, max_selected=6)
        assert 0.0 <= out["score"] <= 1.0

    def test_tree_method_beats_dl_on_small_data(self, data):
        """The paper's Q4 shape: on small tabular data, RF-based AFE
        outperforms the ResNet pipeline."""
        X, y = data
        dl = run_rtdl_n(X, y, "C", seed=0)["score"]
        fe = run_nfs(X, y, "C", TINY).best_score
        assert fe > dl
