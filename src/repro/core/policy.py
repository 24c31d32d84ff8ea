"""RNN policy agents + REINFORCE (paper Fig. 4, Eq. 1, Eq. 11–12).

One agent per original feature. The agent is a small recurrent cell
whose hidden state carries the "action probability distribution" role
the paper gives h_t: at each generation round the agent receives a
fixed-size embedding of its feature subgroup (the RL state s_t), updates
its hidden state, and emits a softmax distribution over the 9 operators.

Training is REINFORCE (Eq. 12) with a λ-return credit signal, an entropy
regularizer and L2 weight decay — the three terms of the paper's Eq. 1
(reward-weighted log-prob, the h·log h term, and ||θ||²). Gradients are
hand-derived; each step treats the incoming hidden state as a constant
(no backprop-through-time), a standard truncation that keeps the update
O(params) — the policy has a few hundred weights, the paper's RNN adds
nothing at 9 actions.
"""
from __future__ import annotations

import numpy as np

from ..ml.linear import Adam
from ..ml.tree import finite
from .operators import ALL_OPS

__all__ = ["STATE_DIM", "AgentPolicy", "state_embedding"]

STATE_DIM = 8
_N_ACTIONS = len(ALL_OPS)
# RNN width, Adam step size, L2 weight decay and entropy bonus (Eq. 1).
HIDDEN = 16
LR = 0.01
L2 = 1e-4
ENTROPY_COEF = 0.01


def state_embedding(values: np.ndarray, subgroup_size: int, t: int) -> np.ndarray:
    """Fixed-size embedding of the agent's current subgroup state s_t.

    Summary statistics of the most recently generated (or original)
    feature values plus subgroup-size/round context. Bounded via tanh so
    the RNN input scale is stable across datasets.
    """
    v = finite(values)
    sd = v.std()
    sk = float(np.mean(((v - v.mean()) / sd) ** 3)) if sd > 0 else 0.0
    raw = np.array(
        [
            v.mean(),
            sd,
            v.min(),
            v.max(),
            sk,
            float(np.mean(v == 0.0)),
            np.log1p(subgroup_size),
            np.log1p(t),
        ]
    )
    return np.tanh(raw / 10.0)


class AgentPolicy:
    """One feature-agent: tanh RNN cell -> softmax over the 9 operators.

    The hidden state ``h`` starts at zero and is never reset: it carries
    over from episode to episode, and from stage 1 into stage 2."""

    def __init__(self, seed: int = 0):
        g = np.random.default_rng(seed)
        s = 1.0 / np.sqrt(HIDDEN)
        self.Wx = g.normal(scale=s, size=(STATE_DIM, HIDDEN))
        self.Wh = g.normal(scale=s, size=(HIDDEN, HIDDEN))
        self.bh = np.zeros(HIDDEN)
        self.Wo = g.normal(scale=s, size=(HIDDEN, _N_ACTIONS))
        self.bo = np.zeros(_N_ACTIONS)
        self.h = np.zeros(HIDDEN)
        self._rng = g
        self._opt = Adam(self._params(), LR)

    def _params(self) -> dict[str, np.ndarray]:
        return {"Wx": self.Wx, "Wh": self.Wh, "bh": self.bh, "Wo": self.Wo, "bo": self.bo}

    def probs(self, x: np.ndarray) -> tuple[np.ndarray, dict]:
        """Advance the RNN one step; return action distribution + cache."""
        h_prev = self.h
        pre = x @ self.Wx + h_prev @ self.Wh + self.bh
        h = np.tanh(pre)
        logits = h @ self.Wo + self.bo
        z = logits - logits.max()
        e = np.exp(z)
        p = e / e.sum()
        self.h = h
        return p, {"x": x, "h_prev": h_prev, "h": h, "p": p}

    def act(self, x: np.ndarray) -> tuple[int, dict]:
        p, cache = self.probs(x)
        a = int(self._rng.choice(_N_ACTIONS, p=p))
        cache["a"] = a
        return a, cache

    # -- learning -----------------------------------------------------------

    def update(self, steps: list[tuple[dict, float]]) -> None:
        """REINFORCE over an episode: ``steps`` is [(cache, return)].

        Maximizes sum_t log pi(a_t) * U_t + ENTROPY_COEF * H(pi_t)
        - L2 * ||theta||^2 via one Adam step on the summed gradient.
        A mean-return baseline reduces variance without a critic.
        """
        if not steps:
            return
        grads = {k: np.zeros_like(v) for k, v in self._params().items()}
        returns = np.array([u for _, u in steps], dtype=np.float64)
        baseline = returns.mean()
        for cache, u in steps:
            p, a, h, x, h_prev = (
                cache["p"],
                cache["a"],
                cache["h"],
                cache["x"],
                cache["h_prev"],
            )
            adv = u - baseline
            onehot = np.zeros(_N_ACTIONS)
            onehot[a] = 1.0
            # d/dlogits of [adv * log p_a + ent_coef * H(p)], ascent direction.
            dlogits = adv * (onehot - p)
            logp = np.log(np.maximum(p, 1e-12))
            ent_grad = -p * (logp - np.dot(p, logp))
            dlogits += ENTROPY_COEF * ent_grad
            grads["Wo"] += np.outer(h, dlogits)
            grads["bo"] += dlogits
            dh = self.Wo @ dlogits
            dpre = dh * (1.0 - h**2)
            grads["Wx"] += np.outer(x, dpre)
            grads["Wh"] += np.outer(h_prev, dpre)
            grads["bh"] += dpre
        # Descent on the negated ascent gradient, which includes -L2*theta.
        self._opt.step({k: L2 * theta - grads[k] for k, theta in self._params().items()})
