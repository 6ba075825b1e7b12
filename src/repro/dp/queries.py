"""Differentially private point queries.

These are the building blocks Sage training pipelines call inside their
``preprocessing_fn`` (Listing 1 of the paper): DP counts, sums, means,
histograms and per-key group-by aggregates.

Conventions shared by every query here:

* value ranges are explicit (``lower``/``upper``); inputs are clipped before
  aggregation so the stated sensitivity is enforced, not assumed;
* each query documents how it splits the epsilon it is handed;
* each query takes an explicit ``rng`` (`numpy.random.Generator`);
* all queries are pure-epsilon (Laplace mechanism) as in the paper's
  pipelines, which reserve delta for DP-SGD training.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.dp.mechanisms import laplace_noise, laplace_scale, make_rng
from repro.dp.sensitivity import clip_values, sum_sensitivity
from repro.errors import CalibrationError, DataError

__all__ = [
    "dp_count",
    "dp_sum",
    "dp_mean",
    "dp_histogram",
    "dp_group_by_sum",
    "dp_group_by_count",
    "dp_group_by_mean",
]


def _check_epsilon(epsilon: float) -> None:
    if epsilon <= 0:
        raise CalibrationError(f"epsilon must be > 0, got {epsilon}")


def dp_count(n: int, epsilon: float, rng: Optional[np.random.Generator] = None) -> float:
    """(epsilon, 0)-DP count: n + Laplace(1/epsilon)."""
    _check_epsilon(epsilon)
    rng = make_rng(rng)
    return float(n + laplace_noise(rng, laplace_scale(1.0, epsilon)))


def dp_sum(
    values: np.ndarray,
    lower: float,
    upper: float,
    epsilon: float,
    rng: Optional[np.random.Generator] = None,
) -> float:
    """(epsilon, 0)-DP sum of values clipped to [lower, upper]."""
    _check_epsilon(epsilon)
    rng = make_rng(rng)
    clipped = clip_values(values, lower, upper)
    scale = laplace_scale(sum_sensitivity(lower, upper), epsilon)
    return float(np.sum(clipped) + laplace_noise(rng, scale))


def dp_mean(
    values: np.ndarray,
    lower: float,
    upper: float,
    epsilon: float,
    rng: Optional[np.random.Generator] = None,
) -> float:
    """(epsilon, 0)-DP mean via noisy-sum / noisy-count, epsilon split evenly.

    The noisy count is floored at 1 so the ratio stays finite; the result is
    clipped back into [lower, upper] (post-processing, free of charge).
    """
    _check_epsilon(epsilon)
    rng = make_rng(rng)
    values = np.asarray(values, dtype=float)
    noisy_sum = dp_sum(values, lower, upper, epsilon / 2.0, rng)
    noisy_count = max(1.0, dp_count(values.size, epsilon / 2.0, rng))
    return float(np.clip(noisy_sum / noisy_count, lower, upper))


def dp_histogram(
    keys: np.ndarray,
    nkeys: int,
    epsilon: float,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """(epsilon, 0)-DP histogram over integer keys in [0, nkeys).

    Each record lands in exactly one bin, so by parallel composition
    [McSherry 2009] the per-bin Laplace(1/epsilon) noise yields an overall
    (epsilon, 0)-DP histogram -- this is the Criteo "Counts x26" pipeline of
    Table 1.
    """
    _check_epsilon(epsilon)
    if nkeys <= 0:
        raise DataError(f"nkeys must be > 0, got {nkeys}")
    rng = make_rng(rng)
    keys = np.asarray(keys)
    if keys.size and (keys.min() < 0 or keys.max() >= nkeys):
        raise DataError("keys must lie in [0, nkeys)")
    counts = np.bincount(keys.astype(np.int64), minlength=nkeys).astype(float)
    return counts + laplace_noise(rng, laplace_scale(1.0, epsilon), size=nkeys)


def dp_group_by_count(
    keys: np.ndarray,
    nkeys: int,
    epsilon: float,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Alias of :func:`dp_histogram` under the group-by naming of Listing 1."""
    return dp_histogram(keys, nkeys, epsilon, rng)


def dp_group_by_sum(
    keys: np.ndarray,
    values: np.ndarray,
    nkeys: int,
    value_range: float,
    epsilon: float,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """(epsilon, 0)-DP per-key sums of values clipped to [0, value_range].

    One record contributes to exactly one key, so parallel composition gives
    the full epsilon to each key's sum.
    """
    _check_epsilon(epsilon)
    if nkeys <= 0:
        raise DataError(f"nkeys must be > 0, got {nkeys}")
    if value_range <= 0:
        raise DataError(f"value_range must be > 0, got {value_range}")
    rng = make_rng(rng)
    keys = np.asarray(keys).astype(np.int64)
    values = clip_values(values, 0.0, value_range)
    if keys.shape != values.shape:
        raise DataError("keys and values must have the same shape")
    if keys.size and (keys.min() < 0 or keys.max() >= nkeys):
        raise DataError("keys must lie in [0, nkeys)")
    sums = np.bincount(keys, weights=values, minlength=nkeys)
    return sums + laplace_noise(rng, laplace_scale(value_range, epsilon), size=nkeys)


def dp_group_by_mean(
    keys: np.ndarray,
    values: np.ndarray,
    nkeys: int,
    epsilon: float,
    value_range: float,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Listing 1's ``sage.dp_group_by_mean``: per-key DP means.

    Splits epsilon between a DP per-key count (Laplace scale ``2/epsilon``)
    and a DP per-key sum (Laplace scale ``value_range * 2/epsilon``), exactly
    as lines 33-42 of the paper.  Counts are floored at 1 and the means are
    clipped into [0, value_range] by post-processing.  Returns the per-key
    means (length ``nkeys``); use ``means[keys]`` to gather per-record values
    as Listing 1 does.
    """
    counts = dp_group_by_count(keys, nkeys, epsilon / 2.0, rng)
    sums = dp_group_by_sum(keys, values, nkeys, value_range, epsilon / 2.0, rng)
    means = sums / np.maximum(counts, 1.0)
    return np.clip(means, 0.0, value_range)
