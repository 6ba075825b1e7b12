"""Sage access control: the DP layer above stream-level ACLs (§3.2).

:class:`SageAccessControl` mediates every pipeline's data access for one
sensitive stream.  It wraps a :class:`~repro.core.accountant.BlockAccountant`
(the global (eps_g, delta_g) policy) and optionally *per-context* accountants
-- the paper's example of enforcing a separate guarantee per developer or
geography, under the assumption that contexts do not collude.

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
staged-batch overlay, ``stage_request(keys, budget, label)`` validates and
stages one proposal (raising exactly what ``request`` would, staging
nothing on refusal), and ``commit_staged()`` lands everything staged in one
bulk write (the accountant's ``commit_staged``: staging already validated
each request against the totals ``request_many`` would check it against,
so nothing is validated twice).  ``abort_staged()`` drops the batch instead and
``rollback_registrations()`` drops the hour's blocks from every ledger set:
together, the platform's rollback of an hour that raised.  Every stream can
stage: every filter decides from the totals the overlay carries.  Staging
is stream-wide: the platform never names a context, so per-context ledgers
gain the hour's blocks but no charges, and contexts remain this class's
own API (``request`` / ``request_many`` with ``context=``).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.core.accountant import BlockAccountant, ChargeRecord
from repro.core.filters import PrivacyFilter
from repro.dp.budget import PrivacyBudget
from repro.errors import AccessDeniedError

__all__ = ["SageAccessControl"]


class SageAccessControl:
    """Per-stream DP access control with optional per-context policies."""

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
        self._filter_factory = filter_factory
        self._contexts: Dict[str, BlockAccountant] = {}
        # Stream-level ACLs (the pre-existing, non-DP layer of Fig. 1): when
        # set, only these principals may request data at all.
        self._principals = set(authorized_principals) if authorized_principals else None

    # ------------------------------------------------------------------
    @property
    def accountant(self) -> BlockAccountant:
        return self._accountant

    @property
    def contexts(self) -> Dict[str, BlockAccountant]:
        """The per-context accountants by name, in the order they were
        added (a new dict; the accountants themselves are live)."""
        return dict(self._contexts)

    def add_context(self, name: str, epsilon: float, delta: float) -> None:
        """Add a per-context guarantee (e.g. one per developer or geography)."""
        if name in self._contexts:
            raise AccessDeniedError(f"context {name!r} already exists")
        accountant = BlockAccountant(epsilon, delta, filter_factory=self._filter_factory)
        for key in self._accountant.block_keys:
            accountant.register_block(key)
        self._contexts[name] = accountant

    def register_block(self, key: object) -> None:
        """Register a freshly ingested block in every ledger set."""
        self._accountant.register_block(key)
        for ctx in self._contexts.values():
            ctx.register_block(key)

    def register_blocks(self, keys: Sequence[object]) -> None:
        """Register a batch of freshly ingested blocks in every ledger set.

        Registered key by key across all ledger sets, so a mid-batch
        failure (e.g. a duplicate key) leaves the stream and context
        accountants consistent with each other.
        """
        for key in keys:
            self.register_block(key)

    def rollback_registrations(self, n_blocks: int) -> None:
        """Unregister every block past the first ``n_blocks`` in every
        ledger set -- the platform's hour rollback.  Every set registers
        the same keys in the same order, so one count truncates them all."""
        self._accountant.rollback_registrations(n_blocks)
        for ctx in self._contexts.values():
            ctx.rollback_registrations(n_blocks)

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
        context: Optional[str] = None,
    ) -> List[object]:
        """Blocks with available budget, oldest first (Alg. 4(c) data offer)."""
        self._check_principal(principal)
        keys = self._accountant.usable_blocks(min_budget)
        if context is not None:
            ctx = self._require_context(context)  # validate even when empty
            if keys:
                floor = min_budget or ctx.retirement_budget
                admitted = ctx.admits_keys(keys, floor)  # one batched pass
                keys = [k for k, ok in zip(keys, admitted) if ok]
        return keys

    def offer_recent_blocks(
        self,
        min_budget: Optional[PrivacyBudget],
        count: int,
        principal: Optional[str] = None,
        row_filter=None,
    ) -> List[object]:
        """The newest ``count`` blocks that can absorb ``min_budget`` and pass
        the caller's ``row_filter`` (store-row array -> boolean mask, one
        pass), in chronological order."""
        self._check_principal(principal)
        return self._accountant.usable_blocks_tail(
            min_budget, count, row_filter=row_filter
        )

    def admit_rows(
        self, min_budget: Optional[PrivacyBudget], principal: Optional[str] = None
    ) -> np.ndarray:
        """Store rows of the blocks that can absorb ``min_budget``, in
        registration order: the row-native form of :meth:`offer_blocks`
        (stream-wide; read-only while a staged batch is open)."""
        self._check_principal(principal)
        return self._accountant.admit_rows(min_budget)

    def can_request(
        self,
        keys: Sequence[object],
        budget: PrivacyBudget,
        context: Optional[str] = None,
    ) -> bool:
        ok = self._accountant.can_charge(keys, budget)
        if ok and context is not None:
            ok = self._require_context(context).can_charge(keys, budget)
        return ok

    def request(
        self,
        keys: Sequence[object],
        budget: PrivacyBudget,
        label: str = "",
        principal: Optional[str] = None,
        context: Optional[str] = None,
    ) -> ChargeRecord:
        """Atomically charge ``budget`` against the named blocks.

        The charge lands on the stream-wide ledgers and, if a context is
        named, on that context's ledgers too; failure anywhere leaves all
        ledgers untouched.
        """
        self._check_principal(principal)
        if context is not None:
            ctx = self._require_context(context)
            if not ctx.can_charge(keys, budget):
                raise AccessDeniedError(
                    f"context {context!r} has insufficient budget for {budget}"
                )
        record = self._accountant.charge(keys, budget, label=label)
        if context is not None:
            self._contexts[context].charge(keys, budget, label=label)
        return record

    def can_request_many(
        self, requests, context: Optional[str] = None
    ) -> bool:
        """True iff :meth:`request_many` would commit the whole batch."""
        requests = list(requests)  # consumed per ledger set
        ok = self._accountant.can_charge_many(requests)
        if ok and context is not None:
            ok = self._require_context(context).can_charge_many(requests)
        return ok

    def request_many(
        self,
        requests,
        principal: Optional[str] = None,
        context: Optional[str] = None,
    ) -> List[ChargeRecord]:
        """Atomically settle a batch of ``(keys, budget[, label])`` charges.

        One vectorized validation-and-commit pass per ledger set (see the
        accountant's batch contract): requests are checked with intra-batch
        accumulation and either the whole batch commits or nothing does.
        As with :meth:`request`, a context charge follows the stream-wide
        one after a ``can_charge_many`` pre-check.
        """
        self._check_principal(principal)
        requests = list(requests)  # consumed per ledger set
        if context is not None:
            ctx = self._require_context(context)
            if not ctx.can_charge_many(requests):
                raise AccessDeniedError(
                    f"context {context!r} has insufficient budget for the batch"
                )
        records = self._accountant.charge_many(requests)
        if context is not None:
            self._contexts[context].charge_many(requests)
        return records

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
        keys: Sequence[object],
        budget: PrivacyBudget,
        label: str = "",
        principal: Optional[str] = None,
    ) -> None:
        """Validate and stage one charge against the open batch.

        Refusals raise exactly what :meth:`request` would have raised and
        leave the batch untouched -- the caller turns them into a denied
        :class:`~repro.core.adaptive.ChargeDecision`.
        """
        self._check_principal(principal)
        self._accountant.stage_charge(keys, budget, label)

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

    def max_epsilon(
        self, keys: Sequence[object], delta: float = 0.0, context: Optional[str] = None
    ) -> float:
        eps = self._accountant.max_epsilon(keys, delta)
        if context is not None:
            eps = min(eps, self._require_context(context).max_epsilon(keys, delta))
        return eps

    # ------------------------------------------------------------------
    def _require_context(self, name: str) -> BlockAccountant:
        if name not in self._contexts:
            raise AccessDeniedError(f"unknown context {name!r}")
        return self._contexts[name]

    def stream_loss_bound(self) -> PrivacyBudget:
        return self._accountant.stream_loss_bound()

    def retired_blocks(self) -> List[object]:
        return self._accountant.retired_blocks()
