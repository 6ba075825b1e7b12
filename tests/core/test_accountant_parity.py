"""The vectorized accountant against its exact references.

:class:`BlockAccountant` decides charges and scans from its dense totals
store.  Two references decide the same questions without that store:

* :class:`~per_request_oracle.PerLedgerReference`, a small accountant
  that keeps one filter, history and totals row per block, decides one
  block at a time through the filter's batch methods on that block's own
  one-row totals, and applies a batch sequentially, rolling it back on a
  refusal.
* per-request ``charge`` calls, one at a time, stand in for a
  ``charge_many`` batch and for a staged hour.

For every composition filter, on seeded workloads that include refused
batches, the store, histories, charge log, scans and aggregate bounds
match the references byte for byte.
"""

import numpy as np
import pytest
from per_request_oracle import PerLedgerReference, stage_keys

from repro.core.accountant import BlockAccountant
from repro.core.filters import (
    BasicCompositionFilter,
    RenyiCompositionFilter,
    StrongCompositionFilter,
)
from repro.dp.budget import PrivacyBudget
from repro.dp.rdp import gaussian_mechanism_budget
from repro.errors import BlockRetiredError, BudgetExceededError

# name -> (filter factory, Renyi-width store?)
FILTERS = {
    "basic": (BasicCompositionFilter, False),
    "strong": (StrongCompositionFilter, False),
    "renyi": (RenyiCompositionFilter, True),
    "pruned-renyi": (
        lambda e, d: RenyiCompositionFilter(e, d, orders="pruned"),
        True,
    ),
}


def _accountant(factory, n_blocks):
    acc = BlockAccountant(1.0, 1e-6, filter_factory=factory)
    acc.register_blocks(range(n_blocks))
    return acc


def _fingerprint(acc):
    """The store rows, live mask, per-row charge counts and charge log --
    the accountant's whole state."""
    return (
        acc.store.totals.tobytes(),
        acc.store.live.tobytes(),
        acc.store.charge_counts.tobytes(),
        [(r.budget.epsilon, r.budget.delta, r.block_keys, r.label) for r in acc.charges],
    )


def _random_requests(rng, n_blocks, n_requests, wide=False):
    """Random charges; on a Renyi-width store every third is a Gaussian
    mechanism, whose RDP curve is not that of a pure-DP budget."""
    requests = []
    for j in range(n_requests):
        size = int(rng.integers(1, max(2, n_blocks // 2)))
        keys = sorted(rng.choice(n_blocks, size=size, replace=False).tolist())
        if wide and j % 3 == 0:
            budget = gaussian_mechanism_budget(
                0.01, float(rng.uniform(2.0, 6.0)), int(rng.integers(10, 80)), 1e-9
            )
        else:
            budget = PrivacyBudget(float(rng.uniform(0.01, 0.2)), 1e-9)
        requests.append((keys, budget, f"r{j}"))
    return requests


def _outcome(charge):
    try:
        charge()
    except (BudgetExceededError, BlockRetiredError) as exc:
        return type(exc).__name__, str(exc)
    return "ok", None


def _charged_pair(filter_name, seed, n_blocks=16, rounds=4):
    """The accountant and the per-ledger reference after the same seeded
    rounds of ``charge_many``; each round's outcome must agree."""
    factory, wide = FILTERS[filter_name]
    vector = _accountant(factory, n_blocks)
    scalar = PerLedgerReference(factory, n_blocks)
    rng = np.random.default_rng(seed)
    for _ in range(rounds):
        requests = _random_requests(rng, n_blocks, int(rng.integers(1, 9)), wide)
        outcomes = [
            _outcome(lambda: vector.charge_many(list(requests))),
            _outcome(lambda: scalar.charge_many(list(requests))),
        ]
        assert outcomes[0] == outcomes[1]
        assert _fingerprint(vector) == scalar.fingerprint()
    return vector, scalar


@pytest.mark.parametrize("filter_name", sorted(FILTERS))
class TestVectorizedMatchesExactPath:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_charge_rounds_and_scans(self, filter_name, seed):
        vector, scalar = _charged_pair(filter_name, seed)
        for probe in (PrivacyBudget(0.05, 1e-9), PrivacyBudget(0.3, 0.0)):
            assert vector.usable_blocks(probe) == scalar.usable_blocks(probe)
            assert np.array_equal(
                vector.admits_keys(vector.block_keys, probe),
                scalar.admits_keys(scalar.block_keys, probe),
            )
        for keys in ([0], list(range(8)), list(range(16))):
            rows = vector.rows_for_keys(keys)
            assert vector.max_epsilon(rows, 1e-9) == scalar.max_epsilon(keys, 1e-9)
        # The scans above persist retirements on both sides alike.
        assert _fingerprint(vector) == scalar.fingerprint()

    def test_retired_blocks_follow_the_per_ledger_rule(self, filter_name):
        vector, scalar = _charged_pair(filter_name, seed=3)
        for key in (1, 5, 11):
            # The largest admissible charge drains the block.
            drain = PrivacyBudget(vector.max_epsilon(vector.rows_for_keys([key])), 0.0)
            vector.charge([key], drain)
            scalar.charge([key], drain)
        retired = [k for k in scalar.block_keys if scalar.is_retired(k)]
        assert vector.retired_blocks() == retired
        assert {1, 5, 11} <= set(retired)

    def test_stream_loss_bound_is_the_worst_block(self, filter_name):
        """The stream bound, folded from the whole totals store, equals the
        componentwise max of the per-ledger bounds."""
        vector, scalar = _charged_pair(filter_name, seed=4)
        bounds = [scalar.loss_bound(k) for k in scalar.block_keys]
        stream = vector.stream_loss_bound()
        assert stream.epsilon == pytest.approx(max(b.epsilon for b in bounds), rel=1e-12)
        assert stream.delta == pytest.approx(max(b.delta for b in bounds), rel=1e-12)
        assert scalar.stream_loss_bound() == stream

    def test_staged_hour_matches_sequential_charges(self, filter_name):
        """Stage, read through the overlay, commit: the same state as the
        per-request charges; a refused stage stages nothing."""
        factory, _ = FILTERS[filter_name]
        staged, sequential = _accountant(factory, 10), _accountant(factory, 10)
        requests = [
            ([0, 1, 2, 3], PrivacyBudget(0.3, 1e-9), "a"),
            ([2, 3, 4, 5], PrivacyBudget(0.4, 1e-9), "b"),
            ([0, 5, 9], PrivacyBudget(0.25, 0.0), "c"),
        ]
        staged.begin_staging()
        for keys, budget, label in requests:
            stage_keys(staged, keys, budget, label)
        with pytest.raises(BudgetExceededError):
            stage_keys(staged, [2], PrivacyBudget(0.5, 0.0))
        for keys, budget, label in requests:
            sequential.charge(keys, budget, label=label)
        # Overlay reads see exactly the spend the sequential side committed.
        for probe in (PrivacyBudget(0.2, 0.0), PrivacyBudget(0.05, 1e-9)):
            assert staged.usable_blocks(probe) == sequential.usable_blocks(probe)
        rows = staged.rows_for_keys([2, 3])
        assert staged.max_epsilon(rows) == sequential.max_epsilon(rows)
        staged.charge_many(staged.pop_staged())
        assert _fingerprint(staged) == _fingerprint(sequential)

    def test_batch_refusal_matches_the_sequential_refusal(self, filter_name):
        """A refused batch raises the error the first refusing request
        raises when charged alone, and leaves everything untouched."""
        factory, _ = FILTERS[filter_name]
        batched, sequential = _accountant(factory, 9), _accountant(factory, 9)
        for acc in (batched, sequential):
            acc.charge([4], PrivacyBudget(0.9, 0.0))
            acc.charge([7], PrivacyBudget(1.0, 0.0))  # retired
        batch = [
            ([0, 1], PrivacyBudget(0.3, 0.0), "a"),
            ([2, 4, 7, 3], PrivacyBudget(0.3, 0.0), "b"),
            ([5, 6], PrivacyBudget(0.3, 0.0), "c"),
        ]
        before = _fingerprint(batched)
        batch_error = _outcome(lambda: batched.charge_many(list(batch)))
        assert batch_error[0] != "ok"
        assert _fingerprint(batched) == before
        sequential_error = None
        for keys, budget, label in batch:
            sequential_error = _outcome(
                lambda: sequential.charge(keys, budget, label=label)
            )
            if sequential_error[0] != "ok":
                break
        assert batch_error == sequential_error
