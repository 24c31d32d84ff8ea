"""Tests for the FPE model: signatures, corpus labeling (Spark), training."""
import numpy as np
import pandas as pd
import pytest

from repro.core.fpe import (
    FPEModel,
    _corr_pairs,
    _label_one_dataset,
    _random_spec,
    _safe_corr,
    feature_signature,
    label_corpus,
)
from repro.synth_data import fpe_corpus


@pytest.fixture(scope="module")
def tiny_corpus():
    return fpe_corpus(6, seed=1000)


@pytest.fixture(scope="module")
def labels(spark, tiny_corpus):
    return label_corpus(spark, tiny_corpus, thre=0.01, cv_cfg={"k": 3, "n_trees": 4})


@pytest.fixture(scope="module")
def model(tiny_corpus, labels):
    return FPEModel.fit(
        tiny_corpus, labels, fixed_variant="ccws", d_options=(16, 32), seed=0
    )


class TestSignature:
    def _xy(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=500)
        y = (x + 0.1 * rng.normal(size=500) > 0).astype(int)
        return x, y

    def test_fixed_size_any_m(self):
        rng = np.random.default_rng(1)
        for m in (30, 300, 3000):
            x = rng.normal(size=m)
            y = (x > 0).astype(int)
            sig = feature_signature(x, y, "C", d=32)
            assert sig.shape == (3 * 32 + 6,)

    def test_deterministic(self):
        x, y = self._xy()
        a = feature_signature(x, y, "C", d=16)
        b = feature_signature(x, y, "C", d=16)
        np.testing.assert_array_equal(a, b)

    def test_target_alignment_scalar(self):
        x, y = self._xy()
        sig = feature_signature(x, y, "C", d=48)
        corr_scalar = sig[3 * 48]  # first scalar: corr(xs, ys)
        assert corr_scalar > 0.3  # x predicts y by construction

    def test_redundancy_block_detects_copy(self):
        x, y = self._xy()
        context = np.c_[x, np.random.default_rng(2).normal(size=len(x))]
        # affine (monotone) reshaping of a context column -> max redundancy
        sig = feature_signature(2.0 * x + 1.0, y, "C", d=32, context=context)
        red_max = sig[-2]
        assert red_max > 0.95

    def test_redundancy_zero_without_context(self):
        x, y = self._xy()
        sig = feature_signature(x, y, "C", d=16)
        assert sig[-2] == 0.0 and sig[-1] == 0.0

    def test_exclude_self(self):
        x, y = self._xy()
        context = x[:, None]
        sig = feature_signature(x, y, "C", d=16, context=context, exclude=0)
        assert sig[-2] == 0.0  # only column excluded -> no redundancy signal

    def test_near_constant_column_corr_is_zero(self):
        a, b = np.full(48, 0.1), np.linspace(0.0, 1.0, 48)
        assert a.std() > 0  # rounding: a std() == 0 test lets this column through
        assert _safe_corr(a, b) == 0.0 and _safe_corr(b, a) == 0.0

    def test_corr_pairs_equals_corrcoef_bytes(self):
        """The stacked pass gives ``_safe_corr`` (``np.corrcoef`` behind the
        constant and non-finite guards) byte for byte, row by row."""
        rng = np.random.default_rng(4)
        for n in (2, 3, 16, 48, 64):
            a = rng.normal(size=(30, n)) * 10.0 ** rng.integers(-6, 7, size=(30, 1))
            b = rng.random((30, n))
            a[0], b[1] = 0.1, 7.0  # constant rows
            a[2, 0], b[3, n - 1], a[4, 1] = np.nan, np.inf, -np.inf
            b[5] = a[5] * 3.0 + 1.0  # |corr| = 1 before the clip
            with np.errstate(invalid="ignore", divide="ignore"):
                ref = np.array([_safe_corr(a[i], b[i]) for i in range(len(a))])
            assert _corr_pairs(a, b).tobytes() == ref.tobytes()

    def test_values_bounded(self):
        x, y = self._xy()
        sig = feature_signature(x * 1e9, y, "C", d=16)
        assert np.isfinite(sig).all()
        assert sig[: 3 * 16].min() >= 0.0 and sig[: 3 * 16].max() <= 1.0


def _reference_signature(x, y, d, variant, seed, context=None, exclude=None):
    """The signature with every column min-max scaled over all M rows
    before the d selected rows are taken."""
    from repro.core.fpe import _safe_corr
    from repro.hashing.minhash import select_indices

    def minmax01(v):
        v = np.nan_to_num(np.asarray(v, dtype=np.float64), nan=0.0, posinf=0.0, neginf=0.0)
        lo, hi = v.min(), v.max()
        return (v - lo) / (hi - lo) if hi > lo else np.zeros_like(v)

    idx = select_indices(x, d, variant, seed)
    xs_raw, ys_raw = minmax01(x)[idx], minmax01(np.asarray(y, dtype=np.float64))[idx]
    order = np.argsort(xs_raw, kind="stable")
    xs, ys = xs_raw[order], ys_raw[order]
    c = _safe_corr(xs, ys)
    cr = _safe_corr(np.linspace(0.0, 1.0, len(xs)), ys)
    red_max, red_mean = 0.0, 0.0
    if context is not None:
        rs = [
            abs(_safe_corr(xs_raw, minmax01(context[:, j])[idx]))
            for j in range(context.shape[1])
            if j != exclude
        ]
        if rs:
            red_max, red_mean = float(max(rs)), float(np.mean(rs))
    return np.concatenate([xs, ys, xs * ys, [c, abs(c), cr, abs(cr), red_max, red_mean]])


class TestSignatureExact:
    """``feature_signature`` scales only the d selected rows; the result
    equals scaling every row first, bit for bit."""

    @pytest.fixture()
    def data(self):
        rng = np.random.default_rng(11)
        M = 400
        context = np.c_[
            rng.normal(size=M),
            np.full(M, 3.5),  # constant column
            rng.exponential(size=M) * 1e6,
            rng.integers(0, 3, M).astype(float),
        ]
        context[5, 0] = np.nan
        context[9, 2] = np.inf
        x = context[:, 0] * 2.0 + rng.normal(size=M)
        x[17] = np.nan
        y = (rng.normal(size=M) + np.nan_to_num(x) > 0).astype(int)
        return x, y, context

    @pytest.mark.parametrize("variant", ["ccws", "icws", "pcws"])
    @pytest.mark.parametrize("exclude", [None, 0, 1])
    def test_equals_full_column_scaling(self, data, variant, exclude):
        x, y, context = data
        for d in (16, 48):
            np.testing.assert_array_equal(
                feature_signature(x, y, "C", d, variant, 3, context=context, exclude=exclude),
                _reference_signature(x, y, d, variant, 3, context=context, exclude=exclude),
            )

    def test_regression_target_and_no_context(self, data):
        x, _, context = data
        y = context[:, 2]  # holds an inf, read as 0
        np.testing.assert_array_equal(
            feature_signature(x, y, "R", 32), _reference_signature(x, y, 32, "ccws", 0)
        )


class TestRandomSpec:
    def test_orders_respected(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            s = _random_spec(4, 3, rng)
            assert 1 <= s.order <= 3
            assert s.leaves() <= {0, 1, 2, 3}


class TestLabeling:
    def test_label_one_dataset_rows(self, tiny_corpus):
        e = tiny_corpus[0]
        df = _label_one_dataset(e, thre=0.01, cv_cfg={"k": 3, "n_trees": 4}, n_generated=5)
        n_orig = e["X"].shape[1]
        assert (df["kind"] == "orig").sum() == n_orig
        assert (df["kind"] == "gen").sum() == 5
        assert set(df["label"]) <= {0, 1}

    def test_label_rule_matches_gain(self, tiny_corpus):
        e = tiny_corpus[0]
        df = _label_one_dataset(e, thre=0.01, cv_cfg={"k": 3, "n_trees": 4}, n_generated=3)
        assert ((df["gain"] > 0.01) == (df["label"] == 1)).all()

    def test_rows_equal_scoring_raw_matrices(self, tiny_corpus):
        """Eq. 3's scores, computed on the raw matrices: A_0 on X, A_j on X
        without column j, A_+j on X with the candidate appended."""
        from repro.core.transform import parse_spec
        from repro.ml.forest import cross_val_score

        cv_cfg = {"k": 3, "n_trees": 4, "seed": 2}
        for e in tiny_corpus[:2]:
            df = _label_one_dataset(e, 0.01, cv_cfg, n_generated=4)
            X = e["X"].values.astype(np.float64)
            y = np.asarray(e["y"])
            a0 = cross_val_score(X, y, e["task"], **cv_cfg)
            assert (df["a0"] == a0).all()
            for r in df.itertuples():
                if r.kind == "orig":
                    M = np.delete(X, r.feature, axis=1)
                else:
                    M = np.c_[X, parse_spec(r.spec).to_numpy(X)]
                assert r.aj == cross_val_score(M, y, e["task"], **cv_cfg)

    def test_spark_fanout_covers_corpus(self, labels, tiny_corpus):
        assert set(labels["dataset"]) == {e["name"] for e in tiny_corpus}

    def test_spark_matches_local(self, spark, tiny_corpus):
        """The Spark-fanned labeling equals the worker function run locally."""
        local = pd.concat(
            [_label_one_dataset(e, 0.01, {"k": 3, "n_trees": 4}) for e in tiny_corpus]
        ).sort_values(["dataset", "feature"]).reset_index(drop=True)
        via_spark = label_corpus(spark, tiny_corpus, thre=0.01, cv_cfg={"k": 3, "n_trees": 4})
        pd.testing.assert_frame_equal(
            local[["dataset", "feature", "label"]],
            via_spark[["dataset", "feature", "label"]],
            check_dtype=False,  # Spark schema uses int32 for 'feature'
        )


class TestFPEModel:
    def test_fit_selects_valid_config(self, model):
        assert model.variant == "ccws"
        assert model.d in (16, 32)
        assert 0.0 <= model.recall_ <= 1.0

    def test_gain_extremes_recorded(self, model, labels):
        assert model.d_a_max == pytest.approx(labels["gain"].max())
        assert model.d_a_min == pytest.approx(labels["gain"].min())

    def test_predict_proba_in_unit_interval(self, model, tiny_corpus):
        e = tiny_corpus[0]
        X = e["X"].values
        p = model.predict_proba(X[:, 0], e["y"], e["task"], context=X)
        assert 0.0 <= p <= 1.0

    def test_threshold_calibrated(self, model):
        assert 0.05 <= model.threshold_ <= 0.95

    def test_no_positives_raises_before_signatures(self, tiny_corpus, labels, monkeypatch):
        """A split side with no positive label fails the search before any
        signature is built, whatever ``d_options`` holds."""
        import repro.core.fpe as fpe_mod

        calls = []
        monkeypatch.setattr(
            fpe_mod, "feature_signature", lambda *a, **k: calls.append(1) or np.zeros(54)
        )
        negatives = labels.assign(label=0)
        with pytest.raises(RuntimeError, match="no trainable configuration"):
            FPEModel.fit(tiny_corpus, negatives, d_options=(16, 32), seed=0)
        assert calls == []

    def test_picklable(self, model):
        import pickle

        m2 = pickle.loads(pickle.dumps(model))
        assert m2.d == model.d and m2.variant == model.variant

    def test_calibration_median_keep_rate(self, model, tiny_corpus):
        """Roughly half of random candidates should clear the calibrated gate."""
        rng = np.random.default_rng(3)
        e = tiny_corpus[2]
        X = e["X"].values
        ps = []
        for _ in range(60):
            s = _random_spec(X.shape[1], 3, rng)
            v = s.to_numpy(X)
            if np.all(np.isfinite(v)) and v.std() > 0:
                ps.append(model.predict_proba(v, e["y"], e["task"], context=X))
        keep = np.mean([p >= 0.5 for p in ps])
        assert 0.1 <= keep <= 0.9
