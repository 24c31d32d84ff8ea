"""Tabular ResNet in the style of RTDL (Gorishniy et al., NeurIPS 2021).

Used for the paper's DL baselines: RTDL_N (aka DL_N) trains the ResNet,
then swaps the softmax head for a Random Forest fitted on the
penultimate representation (paper §IV-A3(2)); DL|FE feeds the learned
representation into feature engineering; FE|DL trains the ResNet on
engineered features. ``transform`` exposes the penultimate activations
for those pipelines.

Architecture: input linear projection to ``width``, then ``n_blocks``
residual blocks (Linear -> ReLU -> Linear, identity skip), ReLU, linear
head. Trained by ``mlp.FullBatchNet``; this class holds only the
architecture.
"""
from __future__ import annotations

import numpy as np

from .mlp import FullBatchNet

__all__ = ["TabularResNet"]


class TabularResNet(FullBatchNet):
    def __init__(
        self,
        task: str = "C",
        width: int = 32,
        n_blocks: int = 2,
        lr: float = 0.01,
        epochs: int = 150,
        l2: float = 1e-4,
        seed: int = 0,
    ):
        super().__init__(task, lr, epochs, l2, seed)
        self.width = width
        self.n_blocks = n_blocks

    def _init(self, in_dim: int, out_dim: int, rng: np.random.Generator):
        w = self.width

        def lin(a, b):
            return rng.normal(scale=np.sqrt(2.0 / a), size=(a, b))

        p = {"W_in": lin(in_dim, w), "b_in": np.zeros(w)}
        for i in range(self.n_blocks):
            p[f"W{i}a"] = lin(w, w)
            p[f"b{i}a"] = np.zeros(w)
            p[f"W{i}b"] = lin(w, w) * 0.1  # near-identity residual init
            p[f"b{i}b"] = np.zeros(w)
        p["W_out"] = lin(w, out_dim)
        p["b_out"] = np.zeros(out_dim)
        return p

    def _forward(self, Xs: np.ndarray):
        cache: dict[str, np.ndarray] = {"X": Xs}
        h = Xs @ self._p["W_in"] + self._p["b_in"]
        for i in range(self.n_blocks):
            cache[f"x{i}"] = h
            a = np.maximum(h @ self._p[f"W{i}a"] + self._p[f"b{i}a"], 0.0)
            cache[f"a{i}"] = a
            h = h + (a @ self._p[f"W{i}b"] + self._p[f"b{i}b"])
        rep = np.maximum(h, 0.0)
        cache["h_last"] = h
        cache["rep"] = rep
        logits = rep @ self._p["W_out"] + self._p["b_out"]
        return logits, cache

    def _backward(self, cache: dict, dlogits: np.ndarray):
        g = {"W_out": cache["rep"].T @ dlogits, "b_out": dlogits.sum(0)}
        dh = (dlogits @ self._p["W_out"].T) * (cache["h_last"] > 0)
        for i in range(self.n_blocks - 1, -1, -1):
            da = dh @ self._p[f"W{i}b"].T
            da *= cache[f"a{i}"] > 0
            g[f"W{i}b"] = cache[f"a{i}"].T @ dh
            g[f"b{i}b"] = dh.sum(0)
            g[f"W{i}a"] = cache[f"x{i}"].T @ da
            g[f"b{i}a"] = da.sum(0)
            dh = dh + da @ self._p[f"W{i}a"].T  # skip path + block path
        g["W_in"] = cache["X"].T @ dh
        g["b_in"] = dh.sum(0)
        return g

    def transform(self, X: np.ndarray) -> np.ndarray:
        """Penultimate-layer representation (the 'DL features')."""
        return self._forward(self._standardize(X))[1]["rep"]
