"""(Weighted) MinHash sample compressors — FPE's hashing module.

A feature column with M samples is treated as a weighted set over the
sample indices {0..M-1}; each of ``d`` hash functions consistently
selects one index, and the compressed representation is the feature's
*values at the selected indices* — "select d instances with the minimum
hashing values as the compressed results" (paper §III-B). Because the
per-(hash, index) random draws depend only on (seed, hash k, index i),
two similar columns select overlapping indices, so the weighted-Jaccard
similarity between columns is approximately preserved (Eq. 2); this is
the property the tests check.

Variants (paper Table III: E-AFE^I = ICWS, E-AFE^L = LICWS/0-bit CWS,
E-AFE^P = PCWS, default = CCWS):

- ``icws`` (Ioffe 2010): r, c ~ Gamma(2,1), b ~ U(0,1);
  t = floor(ln w / r + b), y = exp(r (t - b)), a = c / (y e^r).
- ``licws`` (0-bit CWS, Li 2015): ICWS with the c-dependent component
  dropped (the "0-bit" signature discards t): a = 1 / (y e^r).
- ``pcws`` (Wu et al. 2017): the Gamma(2,1) draws realized from uniforms
  (r = -ln(u1 u2)) and c replaced by a single exponential -ln(u4).
- ``ccws`` (Wu et al. 2016): canonical/linear weighting — t uses w
  directly instead of ln w: t = floor(w / r + b), y = r (t - b),
  a = c / (y + r).

Exact constants of each published scheme matter for tight similarity
bounds, not for this pipeline; what the reproduction needs (and what the
paper itself reports) is that the variants behave near-identically as
sample compressors. DESIGN.md §7 documents this.
"""
from __future__ import annotations

import functools

import numpy as np

from ..ml.tree import finite

VARIANTS = ("icws", "licws", "pcws", "ccws")

__all__ = ["VARIANTS", "select_indices", "weighted_jaccard"]


def _normalize_weights(x: np.ndarray) -> np.ndarray:
    """Shift to strictly-positive weights with unit mean.

    Weighted MinHash needs w > 0; feature values are arbitrary reals, so
    shift by the minimum and add a small floor. Mean-normalizing makes
    the selection scale-invariant, which keeps signatures comparable
    across features with wildly different magnitudes (a requirement for
    a cross-dataset FPE classifier).
    """
    x = finite(x)
    w = x - x.min() + 1e-9
    m = w.mean()
    return w / m if m > 0 else np.full_like(w, 1e-9)


@functools.lru_cache(maxsize=4)
def _draws(d: int, m: int, seed: int) -> tuple[np.ndarray, ...]:
    """Deterministic per-(hash k, index i) draws and the weight-independent
    terms built from them, shape (d, m) each: uniforms ``u3, u4`` and
    ``r = -ln(u1 u2)``, ``c = -ln(u4 roll(u4))`` (both Gamma(2,1)).

    The draws depend only on (seed, k, i) — never on the weights — which
    is what makes the selection *consistent* across features and hence
    similarity-preserving. Every feature of a dataset hashes with the
    same (d, m, seed), so the arrays are cached (a few datasets' worth)
    and made read-only, since every caller shares them.
    """
    g = np.random.default_rng(seed)
    u1 = g.random((d, m))
    u2 = g.random((d, m))
    u3 = g.random((d, m))
    u4 = g.random((d, m))
    r = -np.log(u1 * u2)
    c = -np.log(u4 * np.roll(u4, 1, axis=1))
    out = (u3, u4, r, c)
    for a in out:
        a.flags.writeable = False
    return out


def _scores(w: np.ndarray, d: int, variant: str, seed: int) -> np.ndarray:
    """Matrix a[k, i]; per hash k the argmin_i is the selected sample."""
    b, u4, r, c = _draws(d, len(w), seed)
    lw = np.log(w)[None, :]
    if variant in ("icws", "licws", "pcws"):
        t = np.floor(lw / r + b)
        ln_y = r * (t - b)
        # ln a = ln c - ln y - r ; argmin in log space is the same argmin.
        if variant == "icws":
            return np.log(c) - ln_y - r  # c ~ Gamma(2,1)
        if variant == "licws":
            return -ln_y - r
        # pcws: single exponential in place of the gamma.
        return np.log(-np.log(u4)) - ln_y - r
    if variant == "ccws":
        # c / (r (t - b) + r) with t = floor(w / r + b), in one buffer.
        a = np.divide(w, r)
        a += b
        np.floor(a, out=a)
        a -= b
        a *= r
        a += r
        return np.divide(c, a, out=a)
    raise ValueError(f"unknown MinHash variant {variant!r}; choose from {VARIANTS}")


def select_indices(
    x: np.ndarray, d: int = 48, variant: str = "ccws", seed: int = 0
) -> np.ndarray:
    """The d sample indices the hash family selects for column ``x``."""
    w = _normalize_weights(x)
    return np.argmin(_scores(w, d, variant, seed), axis=1)


def weighted_jaccard(x: np.ndarray, y: np.ndarray) -> float:
    """Generalized (weighted) Jaccard similarity sum(min)/sum(max) on
    the normalized nonnegative weights of two equal-length columns."""
    wx, wy = _normalize_weights(x), _normalize_weights(y)
    denom = np.sum(np.maximum(wx, wy))
    return float(np.sum(np.minimum(wx, wy)) / denom) if denom > 0 else 1.0
