"""Feature transforms and splits."""

import numpy as np
import pytest

from repro.errors import DataError
from repro.ml.preprocessing import (
    scale_to_0_1,
    train_test_split,
)


class TestScaleTo01:
    def test_maps_bounds(self):
        out = scale_to_0_1(np.array([0.0, 50.0, 100.0]), 0.0, 100.0)
        assert np.allclose(out, [0.0, 0.5, 1.0])

    def test_clips_outliers(self):
        out = scale_to_0_1(np.array([-10.0, 200.0]), 0.0, 100.0)
        assert np.allclose(out, [0.0, 1.0])

    def test_bad_range(self):
        with pytest.raises(DataError):
            scale_to_0_1(np.array([1.0]), 5.0, 5.0)


class TestSplit:
    def test_sizes(self, rng):
        X, y = np.arange(100).reshape(-1, 1), np.arange(100)
        Xtr, Xte, ytr, yte = train_test_split(X, y, 0.1, rng)
        assert Xte.shape[0] == 10 and Xtr.shape[0] == 90

    def test_partition_covers_all(self, rng):
        X, y = np.arange(50).reshape(-1, 1), np.arange(50)
        Xtr, Xte, _, _ = train_test_split(X, y, 0.2, rng)
        combined = np.sort(np.concatenate([Xtr[:, 0], Xte[:, 0]]))
        assert np.array_equal(combined, np.arange(50))

    def test_labels_follow_rows(self, rng):
        X = np.arange(30).reshape(-1, 1)
        y = np.arange(30) * 10
        Xtr, Xte, ytr, yte = train_test_split(X, y, 0.3, rng)
        assert np.array_equal(Xtr[:, 0] * 10, ytr)
        assert np.array_equal(Xte[:, 0] * 10, yte)

    def test_bad_fraction(self, rng):
        with pytest.raises(DataError):
            train_test_split(np.ones((4, 1)), np.ones(4), 1.5, rng)
