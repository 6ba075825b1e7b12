"""Concentration bounds used by SLAed validators."""

import numpy as np
import pytest

from repro.core.validation.bounds import (
    bernstein_upper_bound,
    binomial_lower_bound,
    binomial_upper_bound,
    hoeffding_deviation,
)
from repro.errors import ValidationError


class TestBernstein:
    def test_decreases_with_n(self):
        bounds = [bernstein_upper_bound(0.1, n, 0.05, 1.0) for n in (100, 1000, 10_000)]
        assert bounds == sorted(bounds, reverse=True)

    def test_above_the_mean(self):
        assert bernstein_upper_bound(0.1, 1000, 0.05, 1.0) > 0.1

    def test_tightens_with_eta(self):
        assert bernstein_upper_bound(0.1, 1000, 0.2, 1.0) < bernstein_upper_bound(
            0.1, 1000, 0.01, 1.0
        )

    def test_scales_with_B(self):
        small = bernstein_upper_bound(0.1, 1000, 0.05, 1.0)
        large = bernstein_upper_bound(0.1, 1000, 0.05, 10.0)
        assert large > small

    def test_negative_mean_clamped(self):
        # DP noise can push the estimate below 0; the bound must stay sane.
        assert bernstein_upper_bound(-0.5, 1000, 0.05, 1.0) >= 0.0

    def test_invalid_args(self):
        with pytest.raises(ValidationError):
            bernstein_upper_bound(0.1, 0, 0.05, 1.0)
        with pytest.raises(ValidationError):
            bernstein_upper_bound(0.1, 10, 1.5, 1.0)

    def test_coverage_simulation(self):
        """The bound holds with frequency >= 1 - eta on Bernoulli losses."""
        rng = np.random.default_rng(0)
        p, n, eta = 0.05, 2000, 0.1
        misses = 0
        trials = 400
        for _ in range(trials):
            sample = (rng.random(n) < p).astype(float)
            bound = bernstein_upper_bound(float(sample.mean()), n, eta, 1.0)
            misses += bound < p
        assert misses / trials <= eta


class TestHoeffding:
    def test_shrinks_with_n(self):
        assert hoeffding_deviation(10_000, 0.05, 1.0) < hoeffding_deviation(100, 0.05, 1.0)

    def test_paper_form(self):
        import math
        assert hoeffding_deviation(100, 0.05, 2.0) == pytest.approx(
            2.0 * math.sqrt(math.log(20.0) / 100.0)
        )


class TestBinomial:
    def test_bracket_the_rate(self):
        lower = binomial_lower_bound(70, 100, 0.05)
        upper = binomial_upper_bound(70, 100, 0.05)
        assert lower < 0.7 < upper

    def test_extremes(self):
        assert binomial_lower_bound(0, 100, 0.05) == 0.0
        assert binomial_upper_bound(100, 100, 0.05) == 1.0
        assert binomial_upper_bound(5, 0, 0.05) == 1.0
        assert binomial_lower_bound(5, 0, 0.05) == 0.0

    def test_noninteger_counts_accepted(self):
        # DP-noised counts are real-valued.
        assert 0.0 < binomial_lower_bound(69.4, 100.2, 0.05) < 0.7

    def test_out_of_range_counts_clamped(self):
        assert binomial_upper_bound(150, 100, 0.05) == 1.0
        assert binomial_lower_bound(-3, 100, 0.05) == 0.0

    def test_coverage_simulation(self):
        """Clopper-Pearson lower bound covers the true p >= 1 - eta often."""
        rng = np.random.default_rng(1)
        p, n, eta = 0.75, 500, 0.1
        misses = 0
        trials = 400
        for _ in range(trials):
            k = rng.binomial(n, p)
            misses += binomial_lower_bound(k, n, eta) > p
        assert misses / trials <= eta

    def test_tightens_with_n(self):
        narrow = binomial_lower_bound(7000, 10_000, 0.05)
        wide = binomial_lower_bound(70, 100, 0.05)
        assert narrow > wide
