"""Model-quality metrics.

The model metrics Sage's SLAed validators cover (§3.3): a loss metric
(MSE, lower is better) and accuracy (higher is better).  Validators need
*per-example* losses so they can clip each one into [0, B] before summing
(Listing 2), so each metric comes in a per-example and an aggregate form.
"""

from __future__ import annotations

import numpy as np

from repro.errors import DataError

__all__ = [
    "squared_errors",
    "mse",
    "accuracy",
    "zero_one_losses",
]


def _as_1d(a: np.ndarray, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=float).reshape(-1)
    if a.size == 0:
        raise DataError(f"{name} must be non-empty")
    return a


def squared_errors(y_true: np.ndarray, y_pred: np.ndarray) -> np.ndarray:
    """Per-example squared errors (the regression loss of Fig. 5a/5b)."""
    y_true = _as_1d(y_true, "y_true")
    y_pred = _as_1d(y_pred, "y_pred")
    if y_true.shape != y_pred.shape:
        raise DataError("y_true and y_pred must have the same shape")
    return (y_true - y_pred) ** 2


def mse(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    return float(np.mean(squared_errors(y_true, y_pred)))


def zero_one_losses(y_true: np.ndarray, label_pred: np.ndarray) -> np.ndarray:
    """Per-example 0/1 losses (1 on a miss)."""
    y_true = _as_1d(y_true, "y_true")
    label_pred = _as_1d(label_pred, "label_pred")
    if y_true.shape != label_pred.shape:
        raise DataError("y_true and label_pred must have the same shape")
    return (y_true != label_pred).astype(float)


def accuracy(y_true: np.ndarray, label_pred: np.ndarray) -> float:
    """Fraction of correct predictions (the Criteo metric of Fig. 5c/5d)."""
    return float(1.0 - np.mean(zero_one_losses(y_true, label_pred)))
