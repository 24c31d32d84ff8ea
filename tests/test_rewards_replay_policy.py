"""Tests for reward shaping (Eq. 7-10) and the policy."""
import numpy as np
import pytest

from repro.core import policy
from repro.core.operators import ALL_OPS
from repro.core.policy import STATE_DIM, AgentPolicy, state_embedding
from repro.core.rewards import discounted_returns, pseudo_score


class TestPseudoScore:
    def test_neutral_probability_gives_base(self):
        assert pseudo_score(0.5, 0.7) == pytest.approx(0.7)

    def test_confident_positive_gives_max_gain(self):
        a = pseudo_score(1.0, 0.7, d_a_max=0.2, thre=0.01)
        assert a == pytest.approx(0.7 + (0.2 - 0.01))

    def test_confident_negative_gives_min(self):
        a = pseudo_score(0.0, 0.7, d_a_min=-0.15, thre=0.01)
        assert a == pytest.approx(0.7 + (-0.15 + 0.01))

    def test_monotone_in_p(self):
        ps = np.linspace(0, 1, 11)
        scores = [pseudo_score(p, 0.5) for p in ps]
        assert (np.diff(scores) >= -1e-12).all()

    def test_clips_out_of_range(self):
        assert pseudo_score(1.5, 0.5) == pseudo_score(1.0, 0.5)


def _eq10_lambda_returns(r, gamma, lam):
    """Eq. 10 written out: U_t = (1-λ) Σ_{n=1}^{T-t-1} λ^{n-1} G_t^(n)
    + λ^{T-t-1} G_t^(T-t), with the n-step returns
    G_t^(n) = Σ_{i<n} γ^i r_{t+i} and no value function."""
    T = len(r)
    out = np.zeros(T)
    for t in range(T):
        h = T - t
        g = [sum(gamma**i * r[t + i] for i in range(n)) for n in range(1, h + 1)]
        out[t] = sum((1 - lam) * lam ** (n - 1) * g[n - 1] for n in range(1, h)) + (
            lam ** (h - 1) * g[h - 1]
        )
    return out


class TestReturns:
    def test_discounted_manual(self):
        r = np.array([1.0, 0.0, 2.0])
        u = discounted_returns(r, gamma=0.5)
        np.testing.assert_allclose(u, [1 + 0 + 0.25 * 2, 0 + 0.5 * 2, 2.0])

    def test_gamma_zero_is_identity(self):
        r = np.array([0.3, -0.2, 0.9])
        np.testing.assert_allclose(discounted_returns(r, 0.0), r)

    @pytest.mark.parametrize("lam", [0.0, 0.8, 1.0])
    @pytest.mark.parametrize("T", [0, 1, 4, 9])
    def test_lambda_return_is_gamma_lambda_discount(self, lam, T):
        """Eq. 10's λ-return with no bootstrap equals the return discounted
        at γλ, which is how stage 2 computes it."""
        gamma = 0.9
        r = np.random.default_rng(T).normal(size=T)
        np.testing.assert_allclose(
            discounted_returns(r, gamma * lam), _eq10_lambda_returns(r, gamma, lam), rtol=1e-12
        )


class TestStateEmbedding:
    def test_shape_and_bounds(self):
        v = np.random.default_rng(0).normal(size=200)
        e = state_embedding(v, subgroup_size=3, t=5)
        assert e.shape == (STATE_DIM,)
        assert (np.abs(e) <= 1.0).all()

    def test_handles_nonfinite(self):
        v = np.array([np.nan, np.inf, 1.0, -1.0])
        assert np.isfinite(state_embedding(v, 1, 0)).all()

    def test_constant_vector(self):
        e = state_embedding(np.ones(10), 2, 1)
        assert np.isfinite(e).all()


class TestAgentPolicy:
    def test_probs_sum_to_one(self):
        a = AgentPolicy(seed=0)
        p, _ = a.probs(np.zeros(STATE_DIM))
        assert p.shape == (len(ALL_OPS),)
        assert p.sum() == pytest.approx(1.0)

    def test_initial_distribution_near_uniform(self):
        a = AgentPolicy(seed=0)
        p, _ = a.probs(np.zeros(STATE_DIM))
        assert p.max() - p.min() < 0.1

    def test_act_returns_valid_action(self):
        a = AgentPolicy(seed=1)
        act, cache = a.act(np.zeros(STATE_DIM))
        assert 0 <= act < len(ALL_OPS)
        assert cache["a"] == act

    def test_update_reinforces_rewarded_action(self, monkeypatch):
        monkeypatch.setattr(policy, "LR", 0.05)
        monkeypatch.setattr(policy, "ENTROPY_COEF", 0.0)
        a = AgentPolicy(seed=2)
        x = np.zeros(STATE_DIM)
        target = 3
        for _ in range(60):
            a.h = np.zeros_like(a.h)
            p, cache = a.probs(x)
            cache["a"] = target
            # Hand the agent a positive return for `target`, negative
            # baseline comes from a second step with another action.
            other = {**cache, "a": (target + 1) % len(ALL_OPS)}
            a.update([(cache, 1.0), (other, -1.0)])
        a.h = np.zeros_like(a.h)
        p, _ = a.probs(x)
        assert np.argmax(p) == target

    def test_update_empty_is_noop(self):
        a = AgentPolicy(seed=3)
        w = a.Wo.copy()
        a.update([])
        np.testing.assert_array_equal(w, a.Wo)

    def test_hidden_state_evolves(self):
        a = AgentPolicy(seed=4)
        h0 = a.h.copy()
        a.probs(np.ones(STATE_DIM) * 0.3)
        assert not np.allclose(h0, a.h)
