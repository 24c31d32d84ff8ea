"""Full-batch neural trainer, and the multi-layer perceptron built on it.

``FullBatchNet`` is the one training loop of the numpy networks: NaN
scrub and standardisation, class or target encoding, the softmax
cross-entropy (classification) or MSE (regression) gradient, L2 on the
weight matrices only, and full-batch Adam with manual backprop — the box
has no autograd framework, and the roster datasets are small enough that
full-batch training is both simpler and faster than minibatching. A
subclass gives only its architecture: ``_init`` (named parameters; names
starting with ``W`` get the L2), ``_forward`` (logits and a cache) and
``_backward`` (named gradients from the cache).

``MLP`` (Table V's 'MLP'; also FE|DL's DL stage and the FPE's feature
pre-selector): ReLU hidden layers, linear head.
"""
from __future__ import annotations

import numpy as np

from .linear import Adam, standardize_apply, standardize_fit

__all__ = ["FullBatchNet", "MLP"]


def _finite(X: np.ndarray) -> np.ndarray:
    return np.nan_to_num(np.asarray(X, dtype=np.float64), nan=0.0, posinf=0.0, neginf=0.0)


def _softmax(logits: np.ndarray) -> np.ndarray:
    p = np.exp(logits - logits.max(axis=1, keepdims=True))
    return p / p.sum(axis=1, keepdims=True)


class FullBatchNet:
    def __init__(self, task: str, lr: float, epochs: int, l2: float, seed: int):
        if task not in ("C", "R"):
            raise ValueError("task must be 'C' or 'R'")
        self.task = task
        self.lr = lr
        self.epochs = epochs
        self.l2 = l2
        self.seed = seed

    def _standardize(self, X: np.ndarray) -> np.ndarray:
        return standardize_apply(_finite(X), self._mu, self._sd)

    def fit(self, X: np.ndarray, y: np.ndarray):
        self._mu, self._sd = standardize_fit(_finite(X))
        Xs = self._standardize(X)
        y = np.asarray(y)
        n = len(Xs)
        if self.task == "C":
            self.classes_, y_enc = np.unique(y, return_inverse=True)
            T = np.eye(len(self.classes_))[y_enc]
        else:
            self._ym, self._ys = float(np.mean(y)), float(np.std(y) or 1.0)
            T = ((y.astype(np.float64) - self._ym) / self._ys)[:, None]
        self._p = self._init(Xs.shape[1], T.shape[1], np.random.default_rng(self.seed))
        opt = Adam(self._p, self.lr)
        for _ in range(self.epochs):
            logits, cache = self._forward(Xs)
            if self.task == "C":
                dlogits = (_softmax(logits) - T) / n
            else:
                dlogits = 2.0 * (logits - T) / n
            g = self._backward(cache, dlogits)
            for k, w in self._p.items():
                if k.startswith("W"):
                    g[k] += self.l2 * w
            opt.step(g)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        logits, _ = self._forward(self._standardize(X))
        if self.task == "C":
            return self.classes_[np.argmax(logits, axis=1)]
        return logits[:, 0] * self._ys + self._ym

    def class_proba(self, X: np.ndarray, label) -> np.ndarray:
        """Per row, the softmax probability of class ``label``."""
        logits, _ = self._forward(self._standardize(X))
        return _softmax(logits)[:, list(self.classes_).index(label)]


class MLP(FullBatchNet):
    def __init__(
        self,
        task: str = "C",
        hidden: tuple[int, ...] = (64, 32),
        lr: float = 0.01,
        epochs: int = 200,
        l2: float = 1e-4,
        seed: int = 0,
    ):
        super().__init__(task, lr, epochs, l2, seed)
        self.hidden = hidden

    def _init(self, in_dim: int, out_dim: int, rng: np.random.Generator):
        sizes = [in_dim, *self.hidden, out_dim]
        p = {}
        for i, (a, b) in enumerate(zip(sizes, sizes[1:])):
            p[f"W{i}"] = rng.normal(scale=np.sqrt(2.0 / a), size=(a, b))
            p[f"b{i}"] = np.zeros(b)
        return p

    def _forward(self, Xs: np.ndarray):
        acts = [Xs]
        out = len(self.hidden)
        for i in range(out):
            acts.append(np.maximum(acts[-1] @ self._p[f"W{i}"] + self._p[f"b{i}"], 0.0))
        return acts[-1] @ self._p[f"W{out}"] + self._p[f"b{out}"], acts

    def _backward(self, acts: list[np.ndarray], delta: np.ndarray):
        g = {}
        for i in range(len(self.hidden), -1, -1):
            g[f"W{i}"] = acts[i].T @ delta
            g[f"b{i}"] = delta.sum(axis=0)
            if i > 0:
                delta = (delta @ self._p[f"W{i}"].T) * (acts[i] > 0)
        return g
