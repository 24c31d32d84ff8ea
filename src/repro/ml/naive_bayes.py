"""Gaussian naive Bayes classifier (Table V's 'NB'), numpy only."""
from __future__ import annotations

import numpy as np

from .tree import finite

__all__ = ["GaussianNB"]

# Share of the largest feature variance added to every class variance.
VAR_SMOOTHING = 1e-9


class GaussianNB:
    """Per-class Gaussian likelihoods with variance smoothing."""

    def fit(self, X: np.ndarray, y: np.ndarray) -> "GaussianNB":
        X = finite(X)
        y = np.asarray(y)
        self.classes_ = np.unique(y)
        self._theta = np.stack([X[y == c].mean(axis=0) for c in self.classes_])
        self._var = np.stack([X[y == c].var(axis=0) for c in self.classes_])
        self._var += VAR_SMOOTHING * X.var(axis=0).max() + 1e-12
        self._log_prior = np.log(
            np.array([(y == c).mean() for c in self.classes_])
        )
        return self

    def _joint_log_likelihood(self, X: np.ndarray) -> np.ndarray:
        X = finite(X)
        # (n, C): sum over features of log N(x | theta_c, var_c) + log prior
        diff = X[:, None, :] - self._theta[None, :, :]
        ll = -0.5 * np.sum(
            np.log(2.0 * np.pi * self._var)[None, :, :] + diff**2 / self._var[None, :, :],
            axis=2,
        )
        return ll + self._log_prior[None, :]

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.classes_[np.argmax(self._joint_log_likelihood(X), axis=1)]
