"""Tests for the numpy ML models used by FPE, Table V and the DL baselines."""
import numpy as np
import pytest

from repro.ml.gp import GPRegressor
from repro.ml.linear import LinearSVM, standardize_apply, standardize_fit
from repro.ml.metrics import f1_score, one_minus_rae
from repro.ml.mlp import MLP
from repro.ml.naive_bayes import GaussianNB
from repro.ml.resnet import TabularResNet


@pytest.fixture()
def linear_clf_data():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(500, 5))
    y = (X[:, 0] - X[:, 2] > 0).astype(int)
    return X, y


@pytest.fixture()
def nonlinear_clf_data():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(500, 5))
    y = (X[:, 0] * X[:, 1] > 0).astype(int)
    return X, y


@pytest.fixture()
def reg_data():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(400, 5))
    y = np.sin(X[:, 0]) + X[:, 1]
    return X, y


class TestStandardize:
    def test_round_trip_stats(self):
        X = np.random.default_rng(0).normal(3.0, 2.0, size=(200, 3))
        mu, sd = standardize_fit(X)
        Z = standardize_apply(X, mu, sd)
        np.testing.assert_allclose(Z.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(Z.std(axis=0), 1.0, atol=1e-12)

    def test_constant_column_safe(self):
        X = np.c_[np.ones(10), np.arange(10.0)]
        mu, sd = standardize_fit(X)
        assert sd[0] == 1.0
        assert np.isfinite(standardize_apply(X, mu, sd)).all()


class TestLinearSVM:
    def test_learns_linear_boundary(self, linear_clf_data):
        X, y = linear_clf_data
        m = LinearSVM().fit(X, y)
        assert f1_score(y, m.predict(X)) > 0.9

    def test_multiclass(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(450, 2))
        y = np.argmax(X @ rng.normal(size=(2, 3)), axis=1)
        m = LinearSVM().fit(X, y)
        assert (m.predict(X) == y).mean() > 0.8

    def test_decision_function_shape(self, linear_clf_data):
        X, y = linear_clf_data
        m = LinearSVM().fit(X, y)
        assert m.decision_function(X[:7]).shape == (7, 2)


class TestGaussianNB:
    def test_gaussian_blobs(self):
        rng = np.random.default_rng(5)
        X0 = rng.normal(-1, 0.5, size=(200, 3))
        X1 = rng.normal(1, 0.5, size=(200, 3))
        X = np.vstack([X0, X1])
        y = np.array([0] * 200 + [1] * 200)
        m = GaussianNB().fit(X, y)
        assert (m.predict(X) == y).mean() > 0.95

    def test_prior_used_for_ties(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(100, 2))
        y = np.array([0] * 90 + [1] * 10)
        m = GaussianNB().fit(X, y)
        # Features are pure noise -> predictions dominated by the prior.
        assert (m.predict(X) == 0).mean() > 0.8

    def test_handles_nan(self):
        X = np.random.default_rng(0).normal(size=(50, 2))
        X[0, 0] = np.nan
        y = (np.arange(50) % 2).astype(int)
        m = GaussianNB().fit(X, y)
        assert len(m.predict(X)) == 50


class TestGP:
    def test_fits_smooth_function(self, reg_data):
        X, y = reg_data
        m = GPRegressor().fit(X, y)
        assert one_minus_rae(y, m.predict(X)) > 0.8

    def test_interpolation_near_training_points(self, reg_data):
        X, y = reg_data
        m = GPRegressor(noise=1e-6).fit(X[:100], y[:100])
        pred = m.predict(X[:100])
        assert np.abs(pred - y[:100]).mean() < 0.05

    def test_explicit_length_scale(self, reg_data):
        X, y = reg_data
        m = GPRegressor(length_scale=2.0).fit(X, y)
        assert np.isfinite(m.predict(X)).all()


class TestMLP:
    def test_learns_nonlinear_boundary(self, nonlinear_clf_data):
        X, y = nonlinear_clf_data
        m = MLP(task="C", epochs=300).fit(X, y)
        assert f1_score(y, m.predict(X)) > 0.85

    def test_regression(self, reg_data):
        X, y = reg_data
        m = MLP(task="R", epochs=300).fit(X, y)
        assert one_minus_rae(y, m.predict(X)) > 0.7

    def test_invalid_task(self):
        with pytest.raises(ValueError):
            MLP(task="Q")

    def test_multiclass(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(300, 2))
        y = (np.arctan2(X[:, 1], X[:, 0]) > 0).astype(int) + (X[:, 0] > 1).astype(int)
        m = MLP(task="C", epochs=200).fit(X, y)
        assert set(m.predict(X)) <= set(np.unique(y))

    def test_deterministic(self, nonlinear_clf_data):
        X, y = nonlinear_clf_data
        a = MLP(task="C", seed=2, epochs=50).fit(X, y).predict(X)
        b = MLP(task="C", seed=2, epochs=50).fit(X, y).predict(X)
        assert (a == b).all()


class TestTabularResNet:
    def test_learns_classification(self, nonlinear_clf_data):
        X, y = nonlinear_clf_data
        m = TabularResNet(task="C", epochs=200).fit(X, y)
        assert f1_score(y, m.predict(X)) > 0.8

    def test_learns_regression(self, reg_data):
        X, y = reg_data
        m = TabularResNet(task="R", epochs=200).fit(X, y)
        assert one_minus_rae(y, m.predict(X)) > 0.6

    def test_transform_shape(self, nonlinear_clf_data):
        X, y = nonlinear_clf_data
        m = TabularResNet(task="C", width=16, epochs=30).fit(X, y)
        rep = m.transform(X[:9])
        assert rep.shape == (9, 16)
        assert (rep >= 0).all()  # post-ReLU representation

    def test_invalid_task(self):
        with pytest.raises(ValueError):
            TabularResNet(task="nope")

    def test_deterministic(self, nonlinear_clf_data):
        X, y = nonlinear_clf_data
        a = TabularResNet(task="C", seed=5, epochs=40).fit(X, y).transform(X[:5])
        b = TabularResNet(task="C", seed=5, epochs=40).fit(X, y).transform(X[:5])
        np.testing.assert_allclose(a, b)
