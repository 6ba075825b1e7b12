"""DP point queries: correctness in the low-noise limit, clipping, errors."""

import numpy as np
import pytest

from repro.dp.mechanisms import make_rng
from repro.dp.queries import (
    dp_count,
    dp_group_by_mean,
    dp_group_by_sum,
    dp_histogram,
    dp_mean,
    dp_sum,
)
from repro.errors import CalibrationError, DataError

BIG_EPS = 1e7  # noise becomes negligible


class TestCount:
    def test_low_noise_limit(self, rng):
        assert dp_count(100, BIG_EPS, rng) == pytest.approx(100, abs=0.01)

    def test_noise_scale(self):
        rng = make_rng(0)
        draws = np.array([dp_count(0, 2.0, rng) for _ in range(50_000)])
        # Laplace(1/2): variance 2 * (1/2)^2 = 0.5
        assert abs(np.var(draws) - 0.5) < 0.05

    def test_rejects_bad_epsilon(self, rng):
        with pytest.raises(CalibrationError):
            dp_count(10, 0.0, rng)


class TestSumMean:
    def test_sum_low_noise(self, rng):
        values = np.array([1.0, 2.0, 3.0])
        assert dp_sum(values, 0.0, 5.0, BIG_EPS, rng) == pytest.approx(6.0, abs=0.01)

    def test_sum_clips_before_adding(self, rng):
        values = np.array([10.0, -10.0])
        out = dp_sum(values, 0.0, 1.0, BIG_EPS, rng)
        assert out == pytest.approx(1.0, abs=0.01)  # 1 + 0

    def test_mean_low_noise(self, rng):
        values = np.linspace(0, 1, 101)
        assert dp_mean(values, 0.0, 1.0, BIG_EPS, rng) == pytest.approx(0.5, abs=0.01)

    def test_mean_stays_in_range(self, rng):
        values = np.array([1.0] * 3)
        for _ in range(50):
            out = dp_mean(values, 0.0, 1.0, 0.5, rng)
            assert 0.0 <= out <= 1.0

    def test_empty_range_raises(self, rng):
        with pytest.raises(DataError):
            dp_sum(np.array([1.0]), 1.0, 0.0, 1.0, rng)


class TestHistogramAndGroupBy:
    def test_histogram_low_noise(self, rng):
        keys = np.array([0, 0, 1, 2, 2, 2])
        hist = dp_histogram(keys, 3, BIG_EPS, rng)
        assert np.allclose(hist, [2, 1, 3], atol=0.01)

    def test_histogram_key_bounds(self, rng):
        with pytest.raises(DataError):
            dp_histogram(np.array([0, 5]), 3, 1.0, rng)

    def test_group_by_sum_low_noise(self, rng):
        keys = np.array([0, 1, 1])
        values = np.array([1.0, 2.0, 3.0])
        sums = dp_group_by_sum(keys, values, 2, 10.0, BIG_EPS, rng)
        assert np.allclose(sums, [1.0, 5.0], atol=0.01)

    def test_group_by_mean_matches_listing1(self, rng):
        keys = np.array([0] * 50 + [1] * 50)
        values = np.concatenate([np.full(50, 2.0), np.full(50, 8.0)])
        means = dp_group_by_mean(keys, values, 2, BIG_EPS, 10.0, rng)
        assert np.allclose(means, [2.0, 8.0], atol=0.05)

    def test_group_by_mean_empty_key_is_bounded(self, rng):
        keys = np.zeros(10, dtype=int)
        values = np.ones(10)
        means = dp_group_by_mean(keys, values, 3, 1.0, 5.0, rng)
        assert means.shape == (3,)
        assert np.all((0.0 <= means) & (means <= 5.0))

    def test_group_by_shape_mismatch(self, rng):
        with pytest.raises(DataError):
            dp_group_by_sum(np.array([0, 1]), np.array([1.0]), 2, 1.0, 1.0, rng)
