"""Gaussian-process regression (Table V's 'GP'), numpy only.

RBF kernel with a fixed noise term, solved with a Cholesky factorization.
The length scale is sqrt(n_features), so the RBF operates on a
per-dimension-normalized distance regardless of feature count.
Inputs are standardized and the target centered, which is what sklearn's
``GaussianProcessRegressor(normalize_y=True)`` — the likely original —
does. Dataset sizes in the roster (< 2000) keep the O(n^3) solve cheap.
"""
from __future__ import annotations

import numpy as np

from .linear import standardize_apply, standardize_fit
from .tree import finite

__all__ = ["GPRegressor"]

# Added to the kernel's diagonal.
NOISE = 1e-2


class GPRegressor:
    def _kernel(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        # Squared euclidean distances via the expansion trick.
        d2 = (
            np.sum(A**2, axis=1)[:, None]
            + np.sum(B**2, axis=1)[None, :]
            - 2.0 * A @ B.T
        )
        return np.exp(-0.5 * np.maximum(d2, 0.0) / self._ls**2)

    def fit(self, X: np.ndarray, y: np.ndarray) -> "GPRegressor":
        X = finite(X)
        y = np.asarray(y, dtype=np.float64)
        self._mu, self._sd = standardize_fit(X)
        self._Xtr = standardize_apply(X, self._mu, self._sd)
        self._ls = float(np.sqrt(X.shape[1]))
        self._ymean = y.mean()
        K = self._kernel(self._Xtr, self._Xtr)
        K[np.diag_indices_from(K)] += NOISE
        L = np.linalg.cholesky(K)
        self._alpha = np.linalg.solve(L.T, np.linalg.solve(L, y - self._ymean))
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = finite(X)
        Ks = self._kernel(standardize_apply(X, self._mu, self._sd), self._Xtr)
        return Ks @ self._alpha + self._ymean
