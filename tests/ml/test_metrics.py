"""Metric functions."""

import numpy as np
import pytest

from repro.errors import DataError
from repro.ml.metrics import (
    accuracy,
    mse,
    squared_errors,
    zero_one_losses,
)


class TestRegressionMetrics:
    def test_squared_errors(self):
        out = squared_errors([1.0, 2.0], [1.5, 1.0])
        assert np.allclose(out, [0.25, 1.0])

    def test_mse_perfect(self):
        assert mse([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_mse_matches_mean_of_squared(self):
        y = np.array([0.0, 1.0, 2.0])
        p = np.array([0.5, 0.5, 0.5])
        assert mse(y, p) == pytest.approx(np.mean((y - p) ** 2))

    def test_shape_mismatch_raises(self):
        with pytest.raises(DataError):
            mse([1.0], [1.0, 2.0])

    def test_empty_raises(self):
        with pytest.raises(DataError):
            mse([], [])


class TestClassificationMetrics:
    def test_accuracy_perfect(self):
        assert accuracy([1, 0, 1], [1, 0, 1]) == 1.0

    def test_accuracy_half(self):
        assert accuracy([1, 0, 1, 0], [1, 0, 0, 1]) == 0.5

    def test_zero_one_losses(self):
        out = zero_one_losses([1, 0], [0, 0])
        assert np.array_equal(out, [1.0, 0.0])
