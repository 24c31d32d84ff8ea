"""Linear SVM from scratch, and the column standardisation and Adam
optimiser the numpy models share.

The linear SVM (squared-hinge, L2) is a Table V replacement downstream
task, trained with full-batch Adam — the inputs are small (a few
thousand rows), so batching machinery would be dead weight. ``Adam`` is
the one optimiser: the SVM, the ``FullBatchNet`` models (MLP, ResNet)
and the policy agents all step through it.
"""
from __future__ import annotations

import numpy as np

__all__ = ["standardize_fit", "standardize_apply", "Adam", "LinearSVM"]


def standardize_fit(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column means and stds (zero-variance columns get std 1)."""
    mu = X.mean(axis=0)
    sd = X.std(axis=0)
    sd[sd == 0] = 1.0
    return mu, sd


def standardize_apply(X: np.ndarray, mu: np.ndarray, sd: np.ndarray) -> np.ndarray:
    return (X - mu) / sd


class Adam:
    """Adam (Kingma & Ba 2014) over named parameter arrays.

    One first and second moment per array; ``step`` moves every array in
    place against its gradient.
    """

    def __init__(self, params: dict[str, np.ndarray], lr: float):
        self.params = params
        self.lr = lr
        self.m = {k: np.zeros_like(p) for k, p in params.items()}
        self.v = {k: np.zeros_like(p) for k, p in params.items()}
        self.t = 0

    def step(self, grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        c1, c2 = 1 - 0.9**self.t, 1 - 0.999**self.t
        for k, p in self.params.items():
            g, m, v = grads[k], self.m[k], self.v[k]
            m *= 0.9
            m += 0.1 * g
            v *= 0.999
            v += 0.001 * g**2
            p -= self.lr * (m / c1) / (np.sqrt(v / c2) + 1e-8)


class LinearSVM:
    """One-vs-rest linear SVM with squared hinge loss (Table V's 'SVM')."""

    def __init__(self, lr: float = 0.05, epochs: int = 300, l2: float = 1e-3, seed: int = 0):
        self.lr = lr
        self.epochs = epochs
        self.l2 = l2
        self.seed = seed

    def _fit_binary(self, Xb: np.ndarray, t: np.ndarray) -> np.ndarray:
        n, f1 = Xb.shape
        rng = np.random.default_rng(self.seed)
        w = rng.normal(scale=0.01, size=f1)
        opt = Adam({"w": w}, self.lr)
        for _ in range(self.epochs):
            margin = 1.0 - t * (Xb @ w)
            active = margin > 0
            g = -(Xb[active].T @ (t[active] * margin[active])) * 2.0 / n
            g[:-1] += self.l2 * w[:-1]
            opt.step({"w": g})
        return w

    def fit(self, X: np.ndarray, y: np.ndarray) -> "LinearSVM":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y)
        self._mu, self._sd = standardize_fit(X)
        Xs = standardize_apply(X, self._mu, self._sd)
        Xb = np.c_[Xs, np.ones(len(Xs))]
        self.classes_ = np.unique(y)
        self._W = np.stack(
            [self._fit_binary(Xb, np.where(y == c, 1.0, -1.0)) for c in self.classes_]
        )
        return self

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        Xs = standardize_apply(np.asarray(X, dtype=np.float64), self._mu, self._sd)
        return np.c_[Xs, np.ones(len(Xs))] @ self._W.T

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.classes_[np.argmax(self.decision_function(X), axis=1)]
