"""Sensitivity bookkeeping helpers.

Differential privacy mechanisms are calibrated to the *sensitivity* of the
query: the largest change in its output when one record is added to or
removed from the dataset (the paper measures dataset distance with the
symmetric difference, Appendix A.1).  This module centralizes the standard
sensitivities the platform relies on and the clipping operators that enforce
them on raw data.
"""

from __future__ import annotations

import numpy as np

from repro.errors import DataError

__all__ = [
    "sum_sensitivity",
    "clip_values",
    "clip_rows_l2",
    "l2_clip_factor",
]


def sum_sensitivity(lower: float, upper: float) -> float:
    """Sensitivity of a sum of values clipped to [lower, upper].

    Under add/remove-one neighbouring (symmetric difference <= 1), the sum
    moves by at most max(|lower|, |upper|).
    """
    if lower > upper:
        raise DataError(f"empty clipping range [{lower}, {upper}]")
    return max(abs(lower), abs(upper))


def clip_values(values: np.ndarray, lower: float, upper: float) -> np.ndarray:
    """Clip scalar values into [lower, upper] (bounded-range enforcement)."""
    if lower > upper:
        raise DataError(f"empty clipping range [{lower}, {upper}]")
    return np.clip(np.asarray(values, dtype=float), lower, upper)


def l2_clip_factor(rows: np.ndarray, max_norm: float) -> np.ndarray:
    """Per-row multipliers in (0, 1] that bring each row's L2 norm under ``max_norm``.

    Rows already within the bound get factor 1.0 (they are never scaled up).
    This is the clipping rule of DP-SGD [Abadi et al. 2016].
    """
    if max_norm <= 0:
        raise DataError(f"max_norm must be > 0, got {max_norm}")
    rows = np.asarray(rows, dtype=float)
    norms = np.linalg.norm(rows.reshape(rows.shape[0], -1), axis=1)
    # Avoid division by zero for all-zero rows; their factor is 1.
    safe = np.maximum(norms, 1e-32)
    return np.minimum(1.0, max_norm / safe)


def clip_rows_l2(rows: np.ndarray, max_norm: float) -> np.ndarray:
    """Return a copy of ``rows`` with every row's L2 norm clipped to ``max_norm``."""
    rows = np.asarray(rows, dtype=float)
    factors = l2_clip_factor(rows, max_norm)
    shape = (rows.shape[0],) + (1,) * (rows.ndim - 1)
    return rows * factors.reshape(shape)
