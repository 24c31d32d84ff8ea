"""Reward shaping and returns (paper Eq. 7–10).

Stage 1 converts the FPE classifier's positive-class probability ``p``
into a pseudo evaluation score A_t^h (Eq. 8): p < 0.5 maps above the
original score A^O (towards A^O + (dA_max - thre)), p >= 0.5 maps below
(towards A^O + (thre - dA_min)). NOTE the paper's piecewise cases read
inverted relative to its own labeling convention (positive features have
p -> 1); we implement the orientation that makes stage-1 rewards agree
with the labels — p -> 1 yields a score *gain* — and keep the paper's
linear-in-p form and (dA_max, dA_min, thre) parameterization.

Returns: Eq. 9's middle expression is the standard forward discounted
return while its right-hand side sums *past* rewards; we implement the
standard forward form U_t = sum_{k>=t} gamma^{k-t} r_k (what REINFORCE
needs). Eq. 10's λ-return is the TD(λ) mix of the n-step returns
G_t^(n) = sum_{i<n} gamma^i r_{t+i}, truncated at the episode's end T:

    U_t^λ = (1-λ) sum_{n=1}^{T-t-1} λ^{n-1} G_t^(n) + λ^{T-t-1} G_t^(T-t).

With no bootstrap value function this is a plain discounted return:
r_{t+i} appears in every G_t^(n) with n > i, and those n's weights sum
to λ^i, so U_t^λ = sum_i (γλ)^i r_{t+i} = ``discounted_returns(r, γλ)``
(λ = 1 gives Eq. 9's return, λ = 0 the reward itself).
"""
from __future__ import annotations

import numpy as np

__all__ = ["pseudo_score", "discounted_returns"]


def pseudo_score(
    p: float,
    a_orig: float,
    d_a_max: float = 0.1,
    d_a_min: float = -0.1,
    thre: float = 0.01,
) -> float:
    """Eq. 8: map FPE probability to a pseudo evaluation score A_t^h."""
    p = float(np.clip(p, 0.0, 1.0))
    if p >= 0.5:
        # Confidently positive feature: score above A^O, up to the
        # maximum observed gain (minus the labeling threshold).
        return a_orig + (p - 0.5) / 0.5 * (d_a_max - thre)
    # Negative feature: score below A^O, down to the worst gain.
    return a_orig + (0.5 - p) / 0.5 * (d_a_min + thre)


def discounted_returns(rewards: np.ndarray, gamma: float = 0.9) -> np.ndarray:
    """U_t = sum_{k>=t} gamma^{k-t} r_k (Eq. 9, forward form)."""
    r = np.asarray(rewards, dtype=np.float64)
    out = np.zeros_like(r)
    acc = 0.0
    for t in range(len(r) - 1, -1, -1):
        acc = r[t] + gamma * acc
        out[t] = acc
    return out
