"""Tests for the E-AFE engine (Algorithm 2) and its method configurations."""
from dataclasses import replace

import numpy as np
import pytest

from repro.core.eafe import (
    AFEConfig,
    _Engine,
    build_feature_matrix,
    run_afe,
    select_important_features,
)
from repro.ml.forest import cross_val_score
from repro.synth_data import make_tabular

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
        r = run_afe(X, y, "C", None, replace(TINY, gate="none", two_stage=False))
        # every generated (finite, non-degenerate) feature is evaluated
        assert r.n_evaluated == r.n_generated

    def test_dropout_mode(self, data):
        X, y = data
        r = run_afe(X, y, "C", None, replace(TINY, gate="dropout"))
        assert r.n_evaluated < r.n_generated

    def test_single_stage_with_fpe(self, data, fpe):
        X, y = data
        r = run_afe(X, y, "C", fpe, replace(TINY, two_stage=False))
        assert len(r.history) == TINY.epochs_stage2

    def test_missing_fpe_raises(self, data):
        X, y = data
        # E-AFE (two-stage) and E-AFE_R (single-stage) both gate on the FPE.
        for cfg in (TINY, replace(TINY, two_stage=False)):
            with pytest.raises(ValueError):
                run_afe(X, y, "C", None, cfg)

    def test_no_gate_two_stage_raises(self, data):
        """With no gate every p is 0.5: stage 1 would have no reward signal."""
        X, y = data
        with pytest.raises(ValueError, match="single-stage"):
            run_afe(X, y, "C", None, replace(TINY, gate="none"))

    def test_unknown_gate_raises(self, data, fpe):
        X, y = data
        for gate in ("FPE", "all", ""):
            with pytest.raises(ValueError, match="unknown gate"):
                run_afe(X, y, "C", fpe, replace(TINY, gate=gate))

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
        r = run_afe(X, y, "C", fpe, replace(TINY, max_order=2, epochs_stage2=3))
        from repro.core.transform import parse_spec

        for name in r.feature_names:
            assert parse_spec(name).order <= 2


class TestStateInvariants:
    @pytest.mark.parametrize("unique", [True, False])
    def test_full_state_accepts_nothing_more(self, data, unique):
        """With every gain accepted and room for one column, the state keeps
        the first accepted column, and its score is that matrix's score.
        Re-generated specs are rejected under every gate but "none"."""
        X, y = data
        cfg = replace(TINY, gate="dropout" if unique else "none", two_stage=False,
                      max_state_features=1, accept_margin=-1.0)
        eng = _Engine(X, y, "C", None, cfg)
        assert eng.unique == unique
        eng.stage2()
        assert eng.res.n_evaluated > 1
        assert len(eng.state.features) == 1
        M = eng.state.matrix()
        np.testing.assert_array_equal(M[:, -1], eng.state.specs[0].to_numpy(eng.X))
        fresh = cross_val_score(M, eng.y, "C", k=cfg.cv_k, n_trees=cfg.cv_trees, seed=cfg.seed)
        assert eng.state.score == fresh
        # Single-stage subgroups hold the originals and the accepted spec only.
        engineered = [s for sub in eng.subgroups for s, _ in sub if not s.is_leaf]
        assert engineered == eng.state.specs


class TestReplay:
    def test_stage2_parents_are_stage1_keepers_by_p(self, data, fpe, monkeypatch):
        """Each agent's replay holds the features its stage 1 kept, sorted
        once at the start of stage 2 by descending p (ties in stage-1
        order), and stage 2 seeds that agent's steps only from them."""
        X, y = data
        eng = _Engine(X, y, "C", fpe, replace(TINY, epochs_stage1=2, epochs_stage2=3))
        eng.stage1()
        kept = [list(buf) for buf in eng.replay]
        assert sum(map(len, kept)) > 1
        for i, buf in enumerate(kept):
            # A keeper joins its own agent's subgroup.
            assert all(any(f is g for g in eng.subgroups[i]) for f, _ in buf)
        seeded = []
        generate = eng._generate

        def spy(i, parent=None):
            if parent is not None:
                seeded.append((i, parent))
            return generate(i, parent=parent)

        monkeypatch.setattr(eng, "_generate", spy)
        eng.stage2()
        for i, buf in enumerate(kept):
            order = sorted(range(len(buf)), key=lambda k: -buf[k][1])
            assert [id(f) for f, _ in eng.replay[i]] == [id(buf[k][0]) for k in order]
        assert seeded
        for i, parent in seeded:
            assert any(parent is f for f, _ in kept[i])


class TestGeneratedCount:
    @pytest.mark.parametrize("gate", ["fpe", "dropout", "none"])
    def test_one_per_usable_action(self, data, fpe, gate, monkeypatch):
        """``n_generated`` counts the usable candidates of the policy's own
        actions, one per step; the FPE gate's extra proposals do not count."""
        X, y = data
        cfg = replace(TINY, gate=gate, two_stage=gate != "none")
        eng = _Engine(X, y, "C", fpe if gate == "fpe" else None, cfg)
        usable = []
        generate = eng._generate

        def spy(i, parent=None):
            out, cache = generate(i, parent=parent)
            usable.append(out is not None)
            return out, cache

        monkeypatch.setattr(eng, "_generate", spy)
        if cfg.two_stage:
            eng.stage1()
        eng.stage2()
        assert sum(usable) > 0
        assert eng.res.n_generated == sum(usable)


class TestDiscount:
    @pytest.mark.parametrize("two_stage", [True, False])
    def test_stage2_discounts_at_gamma_lambda(self, data, fpe, two_stage, monkeypatch):
        """Stage 1 and single-stage runs discount at γ; a two-stage run's
        stage 2 discounts at γλ (Eq. 10's λ-return with no value function)."""
        import repro.core.eafe as eafe

        X, y = data
        gammas = []
        real = eafe.discounted_returns
        monkeypatch.setattr(
            eafe, "discounted_returns", lambda r, g: gammas.append(g) or real(r, g)
        )
        eng = _Engine(X, y, "C", fpe, replace(TINY, two_stage=two_stage))
        if two_stage:
            eng.stage1()
        n1 = len(gammas)
        eng.stage2()
        assert gammas[:n1] == [eafe.GAMMA] * n1
        assert set(gammas[n1:]) == {eafe.GAMMA * eafe.LAM if two_stage else eafe.GAMMA}


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
