"""Privacy odometers (pay-as-you-go loss tracking)."""

import pytest

from repro.core.accountant import BlockAccountant
from repro.core.odometer import StrongOdometer, loss_dashboard
from repro.dp.budget import PrivacyBudget
from repro.errors import InvalidBudgetError


class TestStrongOdometer:
    def test_invalid_params(self):
        with pytest.raises(InvalidBudgetError):
            StrongOdometer(epsilon_unit=0.0)
        with pytest.raises(InvalidBudgetError):
            StrongOdometer(delta_slack_per_level=0.0)

    def test_empty_is_zero(self):
        assert StrongOdometer().loss.is_zero

    def test_bound_is_valid_at_every_prefix(self):
        """The odometer must upper-bound basic composition's *intent*: it may
        be loose but never claims less than zero and never decreases."""
        odo = StrongOdometer()
        previous = 0.0
        for _ in range(50):
            odo.record(PrivacyBudget(0.02, 0.0))
            current = odo.loss.epsilon
            assert current >= previous - 1e-12
            previous = current

    def test_sublinear_for_many_small_queries(self):
        """The point of the strong odometer: after many tiny queries its
        bound is far below the basic sum."""
        odo = StrongOdometer()
        for _ in range(2000):
            odo.record(PrivacyBudget(0.002, 0.0))
        basic = odo.basic_loss.epsilon  # 4.0
        strong = odo.loss.epsilon
        assert basic == pytest.approx(4.0)
        assert strong < 0.75 * basic

    def test_never_above_basic(self):
        """For few large queries the reported bound falls back to basic."""
        odo = StrongOdometer()
        odo.record(PrivacyBudget(0.5, 0.0))
        assert odo.loss.epsilon <= odo.basic_loss.epsilon + 1e-12

    def test_delta_accounts_slack_levels(self):
        odo = StrongOdometer(delta_slack_per_level=1e-9)
        for _ in range(100):
            odo.record(PrivacyBudget(0.05, 1e-9))
        assert odo.loss.delta >= 100 * 1e-9  # query deltas plus slack

    def test_saturated_envelope_falls_back_to_basic(self):
        """Regression: driving the spend past the top doubling envelope
        (epsilon_unit * 2^max_levels) used to keep evaluating Thm A.2 at the
        saturated envelope, reporting a bound BELOW the provable basic loss
        -- an invalid high-probability claim."""
        odo = StrongOdometer(epsilon_unit=1.0 / 16.0, max_levels=2)  # top = 0.25
        for _ in range(2000):
            odo.record(PrivacyBudget(0.002, 0.0))
        assert odo.basic_loss.epsilon == pytest.approx(4.0)
        assert odo.saturated
        # The only valid bound without an envelope is exact basic composition.
        assert odo.loss.epsilon == pytest.approx(odo.basic_loss.epsilon)

    def test_not_saturated_within_envelope(self):
        odo = StrongOdometer(epsilon_unit=1.0 / 16.0, max_levels=10)
        for _ in range(50):
            odo.record(PrivacyBudget(0.02, 0.0))
        assert not odo.saturated
        assert odo.loss.epsilon <= odo.basic_loss.epsilon + 1e-12

    def test_load_totals_equals_replay(self):
        budgets = [PrivacyBudget(0.03, 1e-9)] * 40
        replayed = StrongOdometer()
        replayed.record_all(budgets)
        import math

        loaded = StrongOdometer().load_totals(
            sum(b.epsilon for b in budgets),
            sum(b.delta for b in budgets),
            sum(b.epsilon ** 2 for b in budgets),
            sum(math.expm1(b.epsilon) * b.epsilon / 2.0 for b in budgets),
        )
        assert loaded.loss.epsilon == pytest.approx(replayed.loss.epsilon)
        assert loaded.loss.delta == pytest.approx(replayed.loss.delta)


class TestDashboard:
    def test_per_block_losses(self):
        acc = BlockAccountant(1.0, 1e-6)
        acc.register_blocks([0, 1])
        acc.charge([0], PrivacyBudget(0.25, 0.0))
        acc.charge([0, 1], PrivacyBudget(0.1, 0.0))
        dash = loss_dashboard(acc)
        assert dash[0].epsilon == pytest.approx(0.35)
        assert dash[1].epsilon == pytest.approx(0.1)

    def test_strong_dashboard_runs(self):
        acc = BlockAccountant(1.0, 1e-6)
        acc.register_blocks([0])
        for _ in range(20):
            acc.charge([0], PrivacyBudget(0.01, 0.0))
        dash = loss_dashboard(acc, strong=True)
        assert 0.0 < dash[0].epsilon <= 0.2 + 1e-9

    def test_dashboard_reads_totals_not_history(self, monkeypatch):
        """Regression: every dashboard refresh used to replay each block's
        full charge history through an odometer (O(total charges)); it must
        read the ledgers' precomputed running totals instead."""
        acc = BlockAccountant(1.0, 1e-6)
        acc.register_blocks([0, 1])
        for _ in range(10):
            acc.charge([0], PrivacyBudget(0.02, 1e-8))
        replays = []
        monkeypatch.setattr(
            StrongOdometer, "record", lambda self, b: replays.append(b)
        )
        basic_dash = loss_dashboard(acc)
        strong_dash = loss_dashboard(acc, strong=True)
        assert replays == []  # no per-charge replay
        assert basic_dash[0].epsilon == pytest.approx(0.2)
        assert basic_dash[0].delta == pytest.approx(1e-7)
        assert basic_dash[1].epsilon == 0.0
        assert strong_dash[0].epsilon > 0.0
