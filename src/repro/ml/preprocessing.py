"""Feature transformation operators.

The non-private analogue of the TFX-Transform operator that Listing 1 uses
(``tft.scale_to_0_1``), plus the train/test split.  DP *aggregate* features
(e.g. the hour-of-day mean speed) are built from ``repro.dp.queries``; the
operators here are record-local and therefore do not consume privacy budget
-- they are shipped with the model as its "features" bundle.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import DataError

__all__ = [
    "scale_to_0_1",
    "train_test_split",
]


def scale_to_0_1(values: np.ndarray, lower: float, upper: float) -> np.ndarray:
    """Clip to [lower, upper] then rescale into [0, 1] (tft.scale_to_0_1)."""
    if lower >= upper:
        raise DataError(f"need lower < upper, got [{lower}, {upper}]")
    values = np.asarray(values, dtype=float)
    return (np.clip(values, lower, upper) - lower) / (upper - lower)


def train_test_split(
    X: np.ndarray,
    y: np.ndarray,
    test_fraction: float,
    rng: np.random.Generator,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Shuffle and split into train/test (the paper's default is 90::10)."""
    if not 0.0 < test_fraction < 1.0:
        raise DataError(f"test_fraction must be in (0, 1), got {test_fraction}")
    X = np.asarray(X)
    y = np.asarray(y)
    if X.shape[0] != y.shape[0]:
        raise DataError("X and y must agree on the first dimension")
    n = X.shape[0]
    n_test = max(1, int(round(n * test_fraction)))
    if n_test >= n:
        raise DataError(f"split leaves no training data (n={n})")
    perm = rng.permutation(n)
    test_idx, train_idx = perm[:n_test], perm[n_test:]
    return X[train_idx], X[test_idx], y[train_idx], y[test_idx]
