"""Evaluation metrics from the paper (§IV-A2), implemented from scratch.

Classification is scored with F1 (macro-averaged over classes, which for
balanced binary problems coincides with the conventional positive-class
F1 up to class symmetry); regression with 1-rae (one minus relative
absolute error). Both are "higher is better" and live in (-inf, 1].
"""
from __future__ import annotations

import numpy as np

__all__ = ["precision_recall", "f1_score", "one_minus_rae", "score"]


def precision_recall(
    y_true: np.ndarray, y_pred: np.ndarray, positive: int = 1
) -> tuple[float, float]:
    """Binary precision and recall for the given positive label.

    Returns (0, 0) components when the respective denominator is empty,
    matching the convention the FPE recall-maximization objective needs
    (Prec > 0 constraint in Eq. 6 rejects degenerate all-positive
    classifiers only when they produce no true positives).
    """
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    tp = float(np.sum((y_pred == positive) & (y_true == positive)))
    fp = float(np.sum((y_pred == positive) & (y_true != positive)))
    fn = float(np.sum((y_pred != positive) & (y_true == positive)))
    prec = tp / (tp + fp) if (tp + fp) > 0 else 0.0
    rec = tp / (tp + fn) if (tp + fn) > 0 else 0.0
    return prec, rec


def f1_score(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Macro-averaged F1 over the classes present in ``y_true``."""
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    classes = np.unique(y_true)
    f1s = []
    for c in classes:
        p, r = precision_recall(y_true, y_pred, positive=c)
        f1s.append(2 * p * r / (p + r) if (p + r) > 0 else 0.0)
    return float(np.mean(f1s)) if f1s else 0.0


def one_minus_rae(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """1 - relative absolute error: 1 - sum|yhat-y| / sum|mean(y)-y|.

    Equals 1 for a perfect prediction, 0 for predicting the mean, and can
    go negative for predictions worse than the mean baseline.
    """
    y_true = np.asarray(y_true, dtype=np.float64)
    y_pred = np.asarray(y_pred, dtype=np.float64)
    denom = np.sum(np.abs(y_true.mean() - y_true))
    if denom == 0.0:
        # Constant target: perfect iff predictions match it exactly.
        return 1.0 if np.allclose(y_pred, y_true) else 0.0
    return float(1.0 - np.sum(np.abs(y_pred - y_true)) / denom)


def score(y_true: np.ndarray, y_pred: np.ndarray, task: str) -> float:
    """Dispatch to the paper's metric for ``task`` ('C' or 'R')."""
    if task == "C":
        return f1_score(y_true, y_pred)
    if task == "R":
        return one_minus_rae(y_true, y_pred)
    raise ValueError(f"unknown task type {task!r} (expected 'C' or 'R')")
