"""Sensitivity helpers and clipping operators."""

import numpy as np
import pytest

from repro.dp.sensitivity import (
    clip_rows_l2,
    clip_values,
    l2_clip_factor,
    sum_sensitivity,
)
from repro.errors import DataError


class TestScalarSensitivities:
    @pytest.mark.parametrize(
        "lower,upper,expected",
        [(0.0, 1.0, 1.0), (-2.0, 1.0, 2.0), (-1.0, 3.0, 3.0), (0.0, 0.0, 0.0)],
    )
    def test_sum(self, lower, upper, expected):
        assert sum_sensitivity(lower, upper) == expected

    def test_empty_range_raises(self):
        with pytest.raises(DataError):
            sum_sensitivity(1.0, 0.0)


class TestValueClipping:
    def test_clip_values(self):
        out = clip_values(np.array([-5.0, 0.5, 5.0]), 0.0, 1.0)
        assert np.array_equal(out, [0.0, 0.5, 1.0])

    def test_clip_preserves_interior(self):
        values = np.linspace(0.2, 0.8, 10)
        assert np.array_equal(clip_values(values, 0.0, 1.0), values)


class TestL2Clipping:
    def test_factors_at_most_one(self, rng):
        rows = rng.normal(size=(50, 8))
        factors = l2_clip_factor(rows, 1.0)
        assert np.all(factors <= 1.0)
        assert np.all(factors > 0.0)

    def test_small_rows_untouched(self):
        rows = np.array([[0.1, 0.0], [0.0, 0.2]])
        clipped = clip_rows_l2(rows, 5.0)
        assert np.array_equal(clipped, rows)

    def test_clipped_norms_bounded(self, rng):
        rows = rng.normal(size=(100, 5)) * 10
        clipped = clip_rows_l2(rows, 1.5)
        norms = np.linalg.norm(clipped, axis=1)
        assert np.all(norms <= 1.5 + 1e-9)

    def test_direction_preserved(self):
        row = np.array([[3.0, 4.0]])  # norm 5
        clipped = clip_rows_l2(row, 1.0)
        assert np.allclose(clipped, [[0.6, 0.8]])

    def test_zero_rows_stay_zero(self):
        rows = np.zeros((3, 4))
        assert np.array_equal(clip_rows_l2(rows, 1.0), rows)

    def test_higher_rank_rows(self, rng):
        rows = rng.normal(size=(10, 3, 4)) * 100
        clipped = clip_rows_l2(rows, 2.0)
        norms = np.linalg.norm(clipped.reshape(10, -1), axis=1)
        assert np.all(norms <= 2.0 + 1e-9)

    def test_bad_norm_raises(self):
        with pytest.raises(DataError):
            clip_rows_l2(np.ones((2, 2)), 0.0)
