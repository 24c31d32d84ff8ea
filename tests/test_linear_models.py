"""Tests for the numpy ML models used by FPE, Table V and the DL baselines."""
import numpy as np
import pytest

from repro.core import policy
from repro.core.policy import AgentPolicy, state_embedding
from repro.ml import gp, linear, resnet
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

    def test_interpolation_near_training_points(self, reg_data, monkeypatch):
        X, y = reg_data
        monkeypatch.setattr(gp, "NOISE", 1e-6)
        m = GPRegressor().fit(X[:100], y[:100])
        pred = m.predict(X[:100])
        assert np.abs(pred - y[:100]).mean() < 0.05


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
    def test_learns_classification(self, nonlinear_clf_data, monkeypatch):
        X, y = nonlinear_clf_data
        monkeypatch.setattr(resnet, "EPOCHS", 200)
        m = TabularResNet(task="C").fit(X, y)
        assert f1_score(y, m.predict(X)) > 0.8

    def test_learns_regression(self, reg_data, monkeypatch):
        X, y = reg_data
        monkeypatch.setattr(resnet, "EPOCHS", 200)
        m = TabularResNet(task="R").fit(X, y)
        assert one_minus_rae(y, m.predict(X)) > 0.6

    def test_transform_shape(self, nonlinear_clf_data, monkeypatch):
        X, y = nonlinear_clf_data
        monkeypatch.setattr(resnet, "WIDTH", 16)
        monkeypatch.setattr(resnet, "EPOCHS", 30)
        m = TabularResNet(task="C").fit(X, y)
        rep = m.transform(X[:9])
        assert rep.shape == (9, 16)
        assert (rep >= 0).all()  # post-ReLU representation

    def test_invalid_task(self):
        with pytest.raises(ValueError):
            TabularResNet(task="nope")

    def test_deterministic(self, nonlinear_clf_data, monkeypatch):
        X, y = nonlinear_clf_data
        monkeypatch.setattr(resnet, "EPOCHS", 40)
        a = TabularResNet(task="C", seed=5).fit(X, y).transform(X[:5])
        b = TabularResNet(task="C", seed=5).fit(X, y).transform(X[:5])
        np.testing.assert_allclose(a, b)


class TestGoldenOutputs:
    """Exact outputs of every Adam-trained model, compared with ``==``: a
    change to the optimiser or the shared trainer must keep their
    arithmetic bit for bit. The learning tests above only check that each
    model learns."""

    @pytest.fixture(scope="class")
    def data(self):
        rng = np.random.default_rng(11)
        X = np.c_[rng.normal(size=(40, 3)), np.full(40, 2.5)]
        y_c = rng.integers(0, 3, size=40)
        y_r = X[:, 0] - 2.0 * X[:, 1] + 0.1 * rng.normal(size=40)
        X_dirty = X.copy()
        X_dirty[0, 1] = np.nan
        X_dirty[1, 2] = np.inf
        return X, X_dirty, y_c, y_r

    def test_mlp(self, data):
        _, X, y_c, y_r = data
        m = MLP(task="C", hidden=(5, 4), epochs=12, seed=3).fit(X, y_c)
        assert m.predict(X[:8]).tolist() == [2, 0, 2, 2, 2, 2, 2, 1]
        assert [m.class_proba(X[:2], c).tolist() for c in (0, 1, 2)] == [
            [0.3556831007346946, 0.42279705508291177],
            [0.28538461875065846, 0.3439387690096264],
            [0.3589322805146469, 0.23326417590746193],
        ]
        m = MLP(task="R", hidden=(5,), epochs=12, seed=3).fit(X, y_r)
        assert m.predict(X[:3]).tolist() == [
            0.1724001048521943, 1.8653470183325398, 0.44784172505804404
        ]

    def test_resnet(self, data, monkeypatch):
        _, X, y_c, y_r = data
        monkeypatch.setattr(resnet, "WIDTH", 3)
        monkeypatch.setattr(resnet, "EPOCHS", 12)
        m = TabularResNet(task="C", seed=3).fit(X, y_c)
        assert m.predict(X[:8]).tolist() == [0, 2, 0, 1, 0, 0, 0, 2]
        assert m.transform(X[:2]).tolist() == [
            [0.0, 0.0, 0.0], [0.0, 0.4798871896150449, 0.19202092142108282]
        ]
        monkeypatch.setattr(resnet, "N_BLOCKS", 1)
        m = TabularResNet(task="R", seed=3).fit(X, y_r)
        assert m.predict(X[:3]).tolist() == [
            0.4521514671860087, 0.2776333052516396, 0.7555133440917448
        ]

    def test_linear_svm(self, data, monkeypatch):
        X, _, y_c, _ = data
        monkeypatch.setattr(linear, "SVM_EPOCHS", 12)
        m = LinearSVM(seed=3).fit(X, y_c)
        assert m.decision_function(X[:2]).tolist() == [
            [-1.153443985674754, -0.5875192052283353, 0.4472109462525442],
            [0.1314721300928688, -0.4463350989368491, -0.9883896390424444],
        ]

    def test_agent_policy(self, monkeypatch):
        monkeypatch.setattr(policy, "HIDDEN", 3)
        a = AgentPolicy(seed=4)
        rng = np.random.default_rng(5)
        for _ in range(3):
            a.h = np.zeros_like(a.h)
            steps = []
            for t in range(4):
                _, cache = a.act(state_embedding(rng.normal(size=20), 3, t))
                steps.append((cache, float(rng.normal())))
            a.update(steps)
        assert a.bh.tolist() == [
            -0.02581084672383359, 0.008934784639753718, -0.023655419728105125
        ]
        assert a.bo.tolist() == [
            -0.025495801190263404, 0.0031079584906686013, -0.024782270587704845,
            0.020953180410513916, -0.022386646031811452, -0.0028315493657531656,
            -0.02299924156026984, 0.02355452534070035, -0.003119855790126993,
        ]
        # The next step's distribution reads every weight (Wx, Wh, bh, Wo, bo).
        assert a.probs(state_embedding(np.arange(6.0), 3, 1))[0].tolist() == [
            0.16150547462374568, 0.08186399140460451, 0.11724317217241058,
            0.1433100792216023, 0.11678901226601993, 0.0494189460131247,
            0.084198427693935, 0.11629296493379203, 0.12937793167076525,
        ]
