"""Sage access control: the DP layer above stream-level ACLs (§3.2).

:class:`SageAccessControl` mediates every pipeline's data access for one
sensitive stream.  It wraps one
:class:`~repro.core.accountant.BlockAccountant`, which enforces the
stream's global (eps_g, delta_g) guarantee, behind the stream-level
principal check.

The request protocol mirrors §3.2's description of the Sage Iterator's
interaction:

1. ``offer_blocks()`` -- blocks that still have budget (what the Iterator may
   assemble a training window from);
2. ``request(keys, budget)`` -- deduct the chosen (epsilon, delta) from the
   chosen blocks, atomically; raises if any block cannot absorb it.

Two-phase platform path (propose/settle)
----------------------------------------
The platform validates each session proposal as it arrives but commits the
whole hour in one batch: ``begin_staging()`` opens the stream accountant's
staged-batch overlay, ``stage_request(rows, keys, budget, label)`` validates
and stages one proposal (raising exactly what ``request`` would, staging
nothing on refusal), and ``commit_staged()`` lands everything staged in one
bulk write (the accountant's ``commit_staged``: staging already validated
each request against the totals ``request_many`` would check it against,
so nothing is validated twice).  ``abort_staged()`` drops the batch instead,
then ``rollback_registrations()`` drops the hour's blocks (registration
and its rollback refuse while a batch is open): together, the platform's
rollback of an hour that raised.  Every stream can stage: every
filter decides from the totals the overlay carries.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.core.accountant import BlockAccountant, ChargeRecord
from repro.core.filters import PrivacyFilter
from repro.dp.budget import PrivacyBudget
from repro.errors import AccessDeniedError

__all__ = ["SageAccessControl"]


class SageAccessControl:
    """Per-stream DP access control: one accountant behind the stream's ACL."""

    def __init__(
        self,
        epsilon_global: float,
        delta_global: float,
        filter_factory: Optional[Callable[[float, float], PrivacyFilter]] = None,
        authorized_principals: Optional[Sequence[str]] = None,
    ) -> None:
        self._accountant = BlockAccountant(
            epsilon_global, delta_global, filter_factory=filter_factory
        )
        # Stream-level ACLs (the pre-existing, non-DP layer of Fig. 1): when
        # given, only these principals may request data at all (an empty
        # sequence authorizes nobody; ``None`` means no ACL).
        self._principals = (
            None if authorized_principals is None else set(authorized_principals)
        )

    # ------------------------------------------------------------------
    @property
    def accountant(self) -> BlockAccountant:
        return self._accountant

    def register_block(self, key: object) -> None:
        """Register a freshly ingested block."""
        self._accountant.register_block(key)

    def register_blocks(self, keys: Sequence[object]) -> None:
        """Register a batch of freshly ingested blocks, in order."""
        self._accountant.register_blocks(keys)

    def rollback_registrations(self, n_blocks: int) -> None:
        """Unregister every block past the first ``n_blocks`` -- the
        platform's hour rollback."""
        self._accountant.rollback_registrations(n_blocks)

    # ------------------------------------------------------------------
    def _check_principal(self, principal: Optional[str]) -> None:
        if self._principals is not None and principal not in self._principals:
            raise AccessDeniedError(
                f"principal {principal!r} is not authorized by stream-level ACLs"
            )

    def offer_blocks(
        self,
        min_budget: Optional[PrivacyBudget] = None,
        principal: Optional[str] = None,
    ) -> List[object]:
        """Blocks with available budget, oldest first (Alg. 4(c) data offer)."""
        self._check_principal(principal)
        return self._accountant.usable_blocks(min_budget)

    def offer_recent_blocks(
        self,
        min_budget: Optional[PrivacyBudget],
        count: int,
        principal: Optional[str] = None,
        row_filter=None,
    ) -> np.ndarray:
        """Read-only store rows of the newest ``count`` blocks that can
        absorb ``min_budget`` and pass the caller's ``row_filter`` (store-row
        array -> boolean mask, one pass), in registration order."""
        self._check_principal(principal)
        rows = self._accountant.admit_rows(min_budget)
        if row_filter is not None and rows.size:
            rows = rows[np.asarray(row_filter(rows), dtype=bool)]
        tail = rows[-count:] if count > 0 else rows[:0]
        tail.setflags(write=False)
        return tail

    def admit_rows(
        self, min_budget: Optional[PrivacyBudget], principal: Optional[str] = None
    ) -> np.ndarray:
        """Store rows of the blocks that can absorb ``min_budget``, in
        registration order: the row-native form of :meth:`offer_blocks`
        (read-only while a staged batch is open)."""
        self._check_principal(principal)
        return self._accountant.admit_rows(min_budget)

    def request(
        self,
        keys: Sequence[object],
        budget: PrivacyBudget,
        label: str = "",
        principal: Optional[str] = None,
    ) -> ChargeRecord:
        """Atomically charge ``budget`` against the named blocks; a refusal
        leaves every ledger untouched."""
        self._check_principal(principal)
        return self._accountant.charge(keys, budget, label=label)

    def request_many(
        self, requests, principal: Optional[str] = None
    ) -> List[ChargeRecord]:
        """Atomically settle a batch of ``(keys, budget[, label])`` charges.

        One vectorized validation-and-commit pass (see the accountant's
        batch contract): requests are checked with intra-batch accumulation
        and either the whole batch commits or nothing does.
        """
        self._check_principal(principal)
        return self._accountant.charge_many(requests)

    # ------------------------------------------------------------------
    # Two-phase (propose/settle) staging for the platform's hourly batch
    # ------------------------------------------------------------------
    @property
    def staging_active(self) -> bool:
        return self._accountant.staging_active

    def begin_staging(self) -> None:
        """Open an hourly staged batch on the stream accountant."""
        self._accountant.begin_staging()

    def stage_request(
        self,
        rows: np.ndarray,
        keys: Sequence[object],
        budget: PrivacyBudget,
        label: str = "",
        principal: Optional[str] = None,
    ) -> None:
        """Validate and stage one charge on the store ``rows`` against the
        open batch; ``keys`` name the same blocks and are what it records.

        Refusals raise exactly what :meth:`request` would have raised and
        leave the batch untouched -- the caller turns them into a denied
        :class:`~repro.core.adaptive.ChargeDecision`.
        """
        self._check_principal(principal)
        self._accountant.stage_charge(rows, keys, budget, label)

    def commit_staged(self, principal: Optional[str] = None) -> List[ChargeRecord]:
        """Commit everything staged in one bulk write; the store ends exactly
        as one :meth:`request_many` call over the staged requests leaves it.

        ``principal`` is the committer (the platform); each staged request
        already passed its own principal check at stage time.  The check
        runs *before* the batch closes, so a refused principal leaves the
        overlay open instead of silently dropping the staged charges.
        """
        self._check_principal(principal)
        return self._accountant.commit_staged()

    def abort_staged(self) -> List[tuple]:
        """Drop the open batch without committing; returns what was staged."""
        return self._accountant.pop_staged()

    def max_epsilon(self, rows: np.ndarray, delta: float = 0.0) -> float:
        """Largest epsilon all store ``rows`` can absorb."""
        return self._accountant.max_epsilon(rows, delta)

    # ------------------------------------------------------------------
    def stream_loss_bound(self) -> PrivacyBudget:
        return self._accountant.stream_loss_bound()

    def retired_blocks(self) -> List[object]:
        return self._accountant.retired_blocks()
