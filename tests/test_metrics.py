"""Unit tests for repro.ml.metrics against hand-computed values."""
import numpy as np
import pytest

from repro.ml.metrics import f1_score, one_minus_rae, precision_recall, score


class TestPrecisionRecall:
    def test_perfect(self):
        y = np.array([0, 1, 1, 0])
        assert precision_recall(y, y) == (1.0, 1.0)

    def test_hand_computed(self):
        y_true = np.array([1, 1, 1, 0, 0, 0])
        y_pred = np.array([1, 1, 0, 1, 0, 0])
        p, r = precision_recall(y_true, y_pred)
        assert p == pytest.approx(2 / 3)
        assert r == pytest.approx(2 / 3)

    def test_no_predictions_of_positive(self):
        p, r = precision_recall(np.array([1, 1, 0]), np.array([0, 0, 0]))
        assert p == 0.0 and r == 0.0

    def test_no_true_positives_in_labels(self):
        p, r = precision_recall(np.array([0, 0, 0]), np.array([1, 0, 0]))
        assert r == 0.0
        assert p == 0.0

    def test_custom_positive_label(self):
        y_true = np.array([2, 2, 3])
        y_pred = np.array([2, 3, 3])
        p, r = precision_recall(y_true, y_pred, positive=2)
        assert p == 1.0
        assert r == pytest.approx(0.5)


class TestF1:
    def test_perfect_binary(self):
        y = np.array([0, 1, 0, 1])
        assert f1_score(y, y) == 1.0

    def test_hand_computed_binary(self):
        y_true = np.array([1, 1, 1, 0, 0, 0])
        y_pred = np.array([1, 1, 0, 1, 0, 0])
        # Both classes have P=R=2/3 -> F1=2/3 each -> macro 2/3.
        assert f1_score(y_true, y_pred) == pytest.approx(2 / 3)

    def test_all_wrong(self):
        y_true = np.array([0, 0, 1, 1])
        y_pred = np.array([1, 1, 0, 0])
        assert f1_score(y_true, y_pred) == 0.0

    def test_multiclass_macro(self):
        y_true = np.array([0, 1, 2, 0, 1, 2])
        y_pred = np.array([0, 1, 2, 0, 1, 0])
        # class0: P=2/3 R=1 F=0.8; class1: perfect; class2: P=1 R=1/2 F=2/3
        assert f1_score(y_true, y_pred) == pytest.approx((0.8 + 1.0 + 2 / 3) / 3)

    def test_string_labels(self):
        y = np.array(["a", "b", "a"])
        assert f1_score(y, y) == 1.0


class TestOneMinusRae:
    def test_perfect(self):
        y = np.array([1.0, 2.0, 3.0])
        assert one_minus_rae(y, y) == 1.0

    def test_mean_prediction_is_zero(self):
        y = np.array([1.0, 2.0, 3.0])
        pred = np.full(3, 2.0)
        assert one_minus_rae(y, pred) == pytest.approx(0.0)

    def test_hand_computed(self):
        y = np.array([0.0, 2.0])
        pred = np.array([0.5, 1.5])
        # sum|err|=1, sum|mean-y|=2 -> 1 - 1/2 = 0.5
        assert one_minus_rae(y, pred) == pytest.approx(0.5)

    def test_worse_than_mean_goes_negative(self):
        y = np.array([0.0, 2.0])
        pred = np.array([4.0, -4.0])
        assert one_minus_rae(y, pred) < 0.0

    def test_constant_target(self):
        y = np.full(4, 5.0)
        assert one_minus_rae(y, y) == 1.0
        assert one_minus_rae(y, y + 1) == 0.0


class TestDispatchAndAccuracy:
    def test_score_dispatch_classification(self):
        y = np.array([0, 1, 1])
        assert score(y, y, "C") == 1.0

    def test_score_dispatch_regression(self):
        y = np.array([0.0, 1.0, 2.0])
        assert score(y, y, "R") == 1.0

    def test_score_bad_task(self):
        with pytest.raises(ValueError):
            score(np.array([0]), np.array([0]), "X")
