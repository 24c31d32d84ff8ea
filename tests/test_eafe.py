"""Tests for the E-AFE engine (Algorithm 2) and its method configurations."""
import numpy as np
import pytest

from repro.core.eafe import (
    AFEConfig,
    _Engine,
    build_feature_matrix,
    run_afe,
    select_important_features,
)
from repro.core.fpe import FPEModel, label_corpus
from repro.ml.forest import cross_val_score
from repro.synth_data import fpe_corpus, make_tabular

TINY = AFEConfig(
    epochs_stage1=1,
    epochs_stage2=2,
    steps_per_agent=2,
    max_agents=5,
    cv_k=3,
    cv_trees=4,
    seed=0,
)


@pytest.fixture(scope="module")
def data():
    X, y = make_tabular(task="C", n_samples=250, n_features=6, seed=3)
    return X.values, y


@pytest.fixture(scope="module")
def fpe(spark):
    corpus = fpe_corpus(5, seed=1000)
    labels = label_corpus(spark, corpus, thre=0.01, cv_cfg={"k": 3, "n_trees": 4})
    return FPEModel.fit(corpus, labels, fixed_variant="ccws", d_options=(16,), seed=0)


def _cfg(**kw):
    base = vars(TINY).copy()
    base.update(kw)
    return AFEConfig(**base)


class TestEAFERun:
    def test_eafe_end_to_end(self, data, fpe):
        X, y = data
        r = run_afe(X, y, "C", fpe, TINY)
        assert r.best_score >= r.base_score
        assert r.n_evaluated <= r.n_generated
        assert r.total_time > 0
        assert len(r.history) == TINY.epochs_stage1 + TINY.epochs_stage2

    def test_nfs_mode_evaluates_everything_kept(self, data):
        X, y = data
        r = run_afe(X, y, "C", None, _cfg(evaluate_all=True, two_stage=False,
                                          dedup=False))
        # every generated (finite, non-degenerate) feature is evaluated
        assert r.n_evaluated == r.n_generated

    def test_dropout_mode(self, data):
        X, y = data
        r = run_afe(X, y, "C", None, _cfg(dropout_keep=0.5))
        assert r.n_evaluated < r.n_generated

    def test_single_stage_with_fpe(self, data, fpe):
        X, y = data
        r = run_afe(X, y, "C", fpe, _cfg(two_stage=False))
        assert len(r.history) == TINY.epochs_stage2

    def test_missing_fpe_raises(self, data):
        X, y = data
        # E-AFE (two-stage) and E-AFE_R (single-stage) both gate on the FPE.
        for cfg in (TINY, _cfg(two_stage=False)):
            with pytest.raises(ValueError):
                run_afe(X, y, "C", None, cfg)

    def test_deterministic_in_seed(self, data, fpe):
        X, y = data
        a = run_afe(X, y, "C", fpe, TINY)
        b = run_afe(X, y, "C", fpe, TINY)
        assert a.best_score == b.best_score
        assert a.feature_names == b.feature_names

    def test_regression_task(self, fpe):
        X, y = make_tabular(task="R", n_samples=200, n_features=5, seed=4)
        r = run_afe(X.values, y, "R", fpe, TINY)
        assert np.isfinite(r.best_score)

    def test_timers_partition_total(self, data, fpe):
        X, y = data
        r = run_afe(X, y, "C", fpe, TINY)
        assert r.gen_time + r.eval_time <= r.total_time
        assert r.eval_time > r.gen_time  # the paper's core observation

    def test_max_order_respected(self, data, fpe):
        X, y = data
        r = run_afe(X, y, "C", fpe, _cfg(max_order=2, epochs_stage2=3))
        from repro.core.transform import parse_spec

        for name in r.feature_names:
            assert parse_spec(name).order <= 2


class TestStateInvariants:
    @pytest.mark.parametrize("dedup", [True, False])
    def test_full_state_accepts_nothing_more(self, data, dedup):
        """With every gain accepted and room for one column, the state keeps
        the first accepted column, and its score is that matrix's score."""
        X, y = data
        cfg = _cfg(evaluate_all=True, two_stage=False, dedup=dedup,
                   max_state_features=1, accept_margin=-1.0)
        eng = _Engine(X, y, "C", None, cfg)
        eng.stage2(cfg.epochs_stage2, use_lambda=False)
        assert eng.res.n_evaluated > 1
        assert len(eng.accepted) == len(eng.state.columns) == 1
        M = eng.state.matrix()
        np.testing.assert_array_equal(M[:, -1], eng.accepted[0].to_numpy(eng.X))
        fresh = cross_val_score(M, eng.y, "C", k=cfg.cv_k, n_trees=cfg.cv_trees, seed=cfg.seed)
        assert eng.state.score == fresh
        # Single-stage subgroups hold the originals and the accepted spec only.
        engineered = [s for sub in eng.subgroups for s, _ in sub if not s.is_leaf]
        assert engineered == eng.accepted


class TestFeatureMatrix:
    def test_build_feature_matrix_shape(self, data, fpe):
        X, y = data
        r = run_afe(X, y, "C", fpe, TINY)
        M = build_feature_matrix(X, r)
        assert M.shape == (X.shape[0], len(r.kept_columns) + len(r.selected_specs))

    def test_matrix_columns_match_specs(self, data, fpe):
        X, y = data
        r = run_afe(X, y, "C", fpe, TINY)
        M = build_feature_matrix(X, r)
        Xk = X[:, r.kept_columns]
        for j, s in enumerate(r.selected_specs):
            np.testing.assert_allclose(M[:, len(r.kept_columns) + j], s.to_numpy(Xk))


class TestImportanceSelection:
    def test_no_selection_when_small(self):
        X = np.random.default_rng(0).normal(size=(50, 4))
        y = (X[:, 0] > 0).astype(int)
        np.testing.assert_array_equal(
            select_important_features(X, y, "C", 10), np.arange(4)
        )

    def test_selects_signal_columns(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(400, 12))
        y = (X[:, 3] + X[:, 7] > 0).astype(int)
        keep = select_important_features(X, y, "C", 4)
        assert len(keep) == 4
        assert 3 in keep and 7 in keep

    def test_sorted_output(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(200, 8))
        y = rng.normal(size=200)
        keep = select_important_features(X, y, "R", 5)
        assert (np.diff(keep) > 0).all()
