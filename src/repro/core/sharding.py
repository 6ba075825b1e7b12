"""Sharded block accounting: partitioned ledger stores + two-phase commit.

Sage's block composition is embarrassingly parallel: blocks are disjoint
data slices, every admissibility decision is arithmetic on one block's
running-totals row, and a multi-block charge is just the conjunction of
per-block decisions (Lecuyer et al., SOSP 2019, §5).  Privacy state
therefore partitions cleanly by block key.  This module exploits that:

* :class:`ShardedLedgerStore` partitions a stream's blocks into ``n_shards``
  shards by a pluggable *partitioner* and keeps each shard's totals in its
  own contiguous :class:`~repro.core.accountant.LedgerStore` (at any filter
  schema width), alongside a coherent *global-row-space* mirror;
* :class:`ShardedBlockAccountant` is a drop-in
  :class:`~repro.core.accountant.BlockAccountant` whose batched settlement
  (``charge_many`` / ``can_charge_many`` / staged commits) runs as a
  deterministic **two-phase shard commit**: every touched shard validates
  its slice of the batch locally, then the batch commits on all shards or
  aborts on all of them.

Partitioner contract
--------------------
A partitioner is any object with ``n_shards`` and
``shard_of(key, index) -> int`` where ``index`` is the block's registration
index (its global store row).  The mapping must be **deterministic and
stable**: a block's shard is decided once at registration and never changes
(rows never move -- the same invariant the row caches and the
``ReservationTable`` column alignment rely on).  Two policies ship here:

* :class:`HashPartitioner` -- a stable content hash of the block key
  (``zlib.crc32`` of its ``repr``; *not* Python's randomized ``hash``), so
  a key lands on the same shard in every process and every run;
* :class:`RangePartitioner` -- contiguous ranges: runs of ``span``
  consecutive registrations (for time-partitioned streams, ``span``
  consecutive hours) per shard, striped round-robin so all shards keep
  growing as the stream does.

The global-row-space invariant
------------------------------
Every public accountant surface keeps speaking the *global* row space --
rows in registration order across all shards, exactly the single-store
numbering.  ``rows_for_keys`` returns global rows, ``usable_blocks`` et al.
scan in registration order, and the platform's ``ReservationTable`` columns
stay aligned without knowing shards exist.  Internally the sharded store
dual-writes: every totals update lands in the owning shard's contiguous
store *and* in the global mirror (the same float64 values, written once
each), so shard-local validation reads its small contiguous slab while
whole-stream scans and staged overlays read the mirror -- both views are
byte-identical to the single-store layout at all times, which is what makes
every PR 1-4 scan, staging, and parity property carry over unchanged.

Two-phase shard commit
----------------------
``charge_many`` groups each request's rows by owning shard and validates
shard by shard with the exact intra-batch float accumulation of the
single-store path (each shard replays *its* rows of every request, in
request order; rows are disjoint across shards, so per-row accumulation is
untouched by the grouping).  A shard stops at its first refusal; the
globally-first refusal -- the minimal ``(request, key position)`` over
shards -- raises exactly the error the sequential path raises, and nothing
commits anywhere.  When every shard validates, phase two bulk-writes each
shard's post-batch rows (all shards or none; the write itself cannot be
refused).  Shards are validated one after another in shard order; each
validation is pure and shards share no rows, so the order cannot change a
decision.

Staged batches ride the same machinery: :class:`ShardedStagedBatch` keeps
the overlay's effective totals in the global row space (bit-identical
accumulation) while tracking staged spend per shard
(``staged_spend_by_shard``), and the hour's commit (``charge_many``)
lands through the sharded store's per-shard writes.

Per-shard telemetry
-------------------
A traced accountant emits one ``shard.validate`` span per touched shard
and one ``shard.commit`` span, all at the serial commit point.  Each span
is one record with two clocks (see :mod:`repro.obs.trace`): its ticks
follow the committed footprint, so traces stay replayable, while its
wall fields carry that shard's measured validation time, so a wall view
of the hour attributes validation shard by shard.
"""

from __future__ import annotations

import time
import zlib
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.core.accountant import (
    BlockAccountant,
    LedgerStore,
    StagedBatch,
)
from repro.core.filters import TOTALS_BASE
from repro.dp.budget import PrivacyBudget
from repro.errors import InvalidBudgetError, RecoveryError
from repro.obs.trace import NULL_PROBE

__all__ = [
    "HashPartitioner",
    "RangePartitioner",
    "ShardedLedgerStore",
    "ShardedStagedBatch",
    "ShardedBlockAccountant",
    "sharded_accountant_factory",
]


def _check_n_shards(n_shards: int) -> int:
    n_shards = int(n_shards)
    if n_shards < 1:
        raise InvalidBudgetError(f"n_shards must be >= 1, got {n_shards}")
    return n_shards


class HashPartitioner:
    """Stable content-hash shard assignment.

    Uses ``zlib.crc32`` of the key's ``repr`` -- deterministic across
    processes and runs (Python's builtin ``hash`` is randomized for
    strings), so a replayed stream reproduces the same shard layout.
    The cross-process guarantee holds for keys with a *value-based* repr
    (ints, floats, strings, and tuples thereof -- every key type the
    platform's partitioners produce); a custom key class relying on the
    default ``object.__repr__`` (which embeds a memory address) still
    shards consistently within one process but must override ``__repr__``
    (or use :class:`RangePartitioner`) to keep layouts reproducible
    across processes.
    """

    def __init__(self, n_shards: int) -> None:
        self.n_shards = _check_n_shards(n_shards)

    def shard_of(self, key: object, index: int) -> int:
        return zlib.crc32(repr(key).encode("utf-8")) % self.n_shards


class RangePartitioner:
    """Contiguous-range shard assignment.

    Registration order is the stream's block order (time order for
    time-partitioned streams), so runs of ``span`` consecutive
    registrations form contiguous key ranges; striping the runs
    round-robin keeps every shard growing as the stream does instead of
    parking all fresh (highest-budget) blocks on the last shard.
    """

    def __init__(self, n_shards: int, span: int = 64) -> None:
        self.n_shards = _check_n_shards(n_shards)
        if int(span) < 1:
            raise InvalidBudgetError(f"span must be >= 1, got {span}")
        self.span = int(span)

    def shard_of(self, key: object, index: int) -> int:
        return (index // self.span) % self.n_shards


class ShardedLedgerStore:
    """Per-shard contiguous ledger stores behind a global-row-space view.

    Presents the exact :class:`~repro.core.accountant.LedgerStore` surface
    (``totals`` / ``live`` / ``charge_counts`` / ``write_row`` /
    ``write_rows`` / ``retire``) in the global row space, so every existing
    accountant scan and overlay runs unmodified, while each shard's rows
    also live in their own contiguous store for shard-local validation.
    Writes are applied to both (same float64 values; the mirror is the
    read view, the shard stores are the shard-validation view).
    """

    def __init__(
        self, n_shards: int, width: int = TOTALS_BASE, capacity: int = 64
    ) -> None:
        n_shards = _check_n_shards(n_shards)
        self._n_shards = n_shards
        self._mirror = LedgerStore(capacity, width)
        per_shard = max(8, capacity // n_shards)
        self._shards = [LedgerStore(per_shard, width) for _ in range(n_shards)]
        # Global row -> (owning shard, local row) and the inverse
        # (per-shard arrays of global rows in local-row order).
        self._shard_ids = np.zeros(capacity, dtype=np.intp)
        self._local = np.zeros(capacity, dtype=np.intp)
        self._members = [
            np.zeros(per_shard, dtype=np.intp) for _ in range(n_shards)
        ]

    # -- LedgerStore surface (global row space) -------------------------
    def __len__(self) -> int:
        return len(self._mirror)

    @property
    def width(self) -> int:
        return self._mirror.width

    @property
    def totals(self) -> np.ndarray:
        """Global (n_blocks, width) totals view (same caveats as
        :attr:`LedgerStore.totals`: growth reallocates, never cache)."""
        return self._mirror.totals

    @property
    def live(self) -> np.ndarray:
        return self._mirror.live

    @property
    def charge_counts(self) -> np.ndarray:
        return self._mirror.charge_counts

    def append(self, shard: Optional[int] = None) -> int:
        """Add a zeroed row owned by ``shard``; returns its *global* row.

        ``shard`` defaults to 0 so the store still satisfies the plain
        ``append()`` contract (the accountant's registration path always
        passes the partitioner's choice).
        """
        shard = 0 if shard is None else int(shard)
        if not 0 <= shard < self._n_shards:
            raise InvalidBudgetError(
                f"shard {shard} out of range [0, {self._n_shards})"
            )
        row = self._mirror.append()
        if row == self._shard_ids.shape[0]:
            self._shard_ids = self._grow_index(self._shard_ids, row)
            self._local = self._grow_index(self._local, row)
        local = self._shards[shard].append()
        members = self._members[shard]
        if local == members.shape[0]:
            self._members[shard] = members = self._grow_index(members, local)
        members[local] = row
        self._shard_ids[row] = shard
        self._local[row] = local
        return row

    @staticmethod
    def _grow_index(array: np.ndarray, size: int) -> np.ndarray:
        grown = np.zeros(2 * array.shape[0], dtype=array.dtype)
        grown[:size] = array[:size]
        return grown

    def write_row(self, index: int, totals: Sequence[float], count: int) -> None:
        self._mirror.write_row(index, totals, count)
        self._shards[self._shard_ids[index]].write_row(
            self._local[index], totals, count
        )

    def write_rows(self, indices, totals: np.ndarray, counts: np.ndarray) -> None:
        """Bulk row update, fanned out to each owning shard (the phase-two
        commit of the sharded ``charge_many``)."""
        indices = np.atleast_1d(np.asarray(indices, dtype=np.intp))
        totals = np.atleast_2d(np.asarray(totals))
        counts = np.atleast_1d(np.asarray(counts))
        self._mirror.write_rows(indices, totals, counts)
        sids = self._shard_ids[indices]
        for shard in np.unique(sids):
            mask = sids == shard
            self._shards[shard].write_rows(
                self._local[indices[mask]], totals[mask], counts[mask]
            )

    def retire(self, indices) -> None:
        indices = np.atleast_1d(np.asarray(indices, dtype=np.intp))
        # repro: allow(purity) -- deferred retirement fan-out: mirror and
        # shards persist the same idempotent fact the scan already proved.
        self._mirror.retire(indices)
        sids = self._shard_ids[indices]
        for shard in np.unique(sids):
            # repro: allow(purity) -- see above
            self._shards[shard].retire(self._local[indices[sids == shard]])

    def truncate_to(self, size: int) -> None:
        """Drop every global row past ``size`` (the durability layer's hour
        rollback), shrinking each owning shard's store in step.

        Rows are appended to a shard in global registration order, so the
        trailing *global* rows are exactly the trailing *local* rows of
        their shards -- each shard store just truncates its own tail.
        """
        current = len(self._mirror)
        size = int(size)
        if size < 0 or size > current:
            raise RecoveryError(
                f"cannot truncate store of {current} rows to {size}"
            )
        if size == current:
            return
        removed_shards = self._shard_ids[size:current]
        for shard in np.unique(removed_shards):
            sstore = self._shards[shard]
            sstore.truncate_to(len(sstore) - int((removed_shards == shard).sum()))
        self._mirror.truncate_to(size)
        # _shard_ids/_local/_members entries past the new sizes are stale
        # but unreachable; the next append overwrites them.

    # -- shard topology -------------------------------------------------
    @property
    def n_shards(self) -> int:
        return self._n_shards

    def shard_store(self, shard: int) -> LedgerStore:
        """One shard's contiguous store (rows in shard-local order)."""
        return self._shards[shard]

    def shard_sizes(self) -> np.ndarray:
        return np.array([len(s) for s in self._shards], dtype=np.int64)

    def shard_of_rows(self, rows) -> np.ndarray:
        """Owning shard of each global row."""
        return self._shard_ids[np.asarray(rows, dtype=np.intp)]

    def local_rows(self, rows) -> np.ndarray:
        """Shard-local row of each global row (pair with
        :meth:`shard_of_rows`)."""
        return self._local[np.asarray(rows, dtype=np.intp)]

    def global_rows(self, shard: int, local_rows) -> np.ndarray:
        """Global rows of the given shard-local rows."""
        return self._members[shard][np.asarray(local_rows, dtype=np.intp)]

    def shard_rows(self, shard: int) -> np.ndarray:
        """All global rows owned by ``shard``, in shard-local order."""
        return self._members[shard][: len(self._shards[shard])].copy()


class ShardedStagedBatch(StagedBatch):
    """A staged overlay whose per-shard footprint is readable on demand.

    The effective-totals accumulation is inherited *unchanged* (global row
    space, bit-identical floats to the single-store overlay -- that is the
    parity contract), and staging itself carries zero extra bookkeeping:
    the per-shard view operators and shard-commit diagnostics want is
    derived lazily from the overlay's retained requests/rows by
    :meth:`shard_footprint`.
    """

    def __init__(self, accountant: "ShardedBlockAccountant") -> None:
        super().__init__(accountant)
        store = accountant.store
        self._shard_of_rows = store.shard_of_rows
        self._n_shards = store.n_shards

    def shard_footprint(self):
        """How the open batch distributes over shards, derived on demand.

        Returns ``(request_counts, row_touches, epsilon)`` arrays of
        length ``n_shards``: staged charges touching each shard, rows
        touched per shard (with multiplicity), and staged
        basic-composition epsilon per shard.
        """
        request_counts = np.zeros(self._n_shards, dtype=np.int64)
        row_touches = np.zeros(self._n_shards, dtype=np.int64)
        epsilon = np.zeros(self._n_shards, dtype=np.float64)
        for (_, budget, _), rows in zip(self.requests, self.request_rows):
            touches = np.bincount(
                self._shard_of_rows(rows), minlength=self._n_shards
            )
            request_counts += touches > 0
            row_touches += touches
            epsilon += touches * budget.epsilon
        return request_counts, row_touches, epsilon


class ShardedBlockAccountant(BlockAccountant):
    """A :class:`BlockAccountant` over a partitioned ledger store.

    Drop-in: the full accountant surface (``admits_keys``, ``can_charge`` /
    ``can_charge_many``, ``charge`` / ``charge_many`` with cross-shard
    all-or-nothing rollback, ``max_epsilon`` / ``max_epsilon_batch``,
    staging overlays, ``rows_for_keys``, every block scan, loss bounds) is
    inherited and stays *byte-identical* to the single-store accountant --
    the global mirror holds the same float64 rows in the same order, and
    the sharded validation replays the same per-row accumulation.  What
    changes is the execution shape: batched settlement validates shard by
    shard over small contiguous slabs (phase one) and commits per shard
    (phase two, all shards or none).

    Parameters
    ----------
    n_shards:
        Number of shards (ignored when ``partitioner`` is given).
    partitioner:
        Shard policy object (see the module docstring's contract);
        defaults to :class:`HashPartitioner`.
    """

    def __init__(
        self,
        epsilon_global: float,
        delta_global: float,
        filter_factory=None,
        retirement_budget: Optional[PrivacyBudget] = None,
        n_shards: int = 4,
        partitioner=None,
    ) -> None:
        super().__init__(
            epsilon_global,
            delta_global,
            filter_factory=filter_factory,
            retirement_budget=retirement_budget,
        )
        if partitioner is None:
            partitioner = HashPartitioner(n_shards)
        self._partitioner = partitioner
        # Replace the flat store before any block registers; the mirror
        # inside reproduces the single store byte for byte.
        self._store = ShardedLedgerStore(
            partitioner.n_shards, width=self._store.width
        )
        # Per-shard phase-one wall times (microseconds), stopwatched by
        # _validate_for_commit when a tracer is attached and consumed by
        # _commit_validated -- commit-path-only scratch, always None
        # outside one charge_many call.
        self._shard_walls: Optional[Dict[int, float]] = None

    # ------------------------------------------------------------------
    @property
    def n_shards(self) -> int:
        return self._store.n_shards

    @property
    def partitioner(self):
        return self._partitioner

    def shard_of_key(self, key: object) -> int:
        """The shard owning a registered block."""
        return int(self._store.shard_of_rows(self._key_rows([key]))[0])

    def _append_store_row(self, key: object) -> int:
        """Registration routes the new row to the partitioner's shard; all
        other :meth:`register_block` bookkeeping is inherited."""
        return self._store.append(
            int(self._partitioner.shard_of(key, len(self._store)))
        )

    def _new_staged_batch(self) -> StagedBatch:
        return ShardedStagedBatch(self)

    def staged_spend_by_shard(self) -> np.ndarray:
        """Per-shard staged basic-composition epsilon of the open batch
        (zeros when no batch is open)."""
        if isinstance(self._staged, ShardedStagedBatch):
            return self._staged.shard_footprint()[2]
        return np.zeros(self.n_shards)

    # ------------------------------------------------------------------
    # Two-phase shard commit (phase one: validate every shard)
    # ------------------------------------------------------------------
    def _validate_shard(self, items: List[tuple], norm: List[tuple], shard: int):
        """Replay one shard's slice of the batch over its contiguous store.

        ``items`` is ``[(request_index, positions, local_rows), ...]`` in
        request order, where ``positions`` are the request's key positions
        owned by this shard.  Stops at the shard's first refusal; decisions
        up to the *globally* first refusing request are exact because every
        earlier request was admitted on all its rows in every shard, so the
        accumulated scratch state matches the sequential path bit for bit.
        Returns ``(touched_local, work, counts_delta, refusal)`` with
        ``refusal = (request_index, position, retired) | None``.
        """
        sstore = self._store.shard_store(shard)
        touched = np.unique(np.concatenate([local for _, _, local in items]))
        work = sstore.totals[touched].copy()
        counts_delta = np.zeros(touched.size, dtype=np.int64)
        refusal = None
        for req_idx, positions, local in items:
            _, budget, _ = norm[req_idx]
            lrows = np.searchsorted(touched, local)
            admitted = self._batch_filter.admits_batch(work[lrows], budget)
            if not admitted.all():
                first = int(np.argmin(admitted))
                retired = not bool(
                    self._batch_filter.admits_batch(
                        work[lrows[first]], self.retirement_budget
                    )[0]
                )
                refusal = (req_idx, int(positions[first]), retired)
                break
            work[lrows] += self._contribution(budget)
            counts_delta[lrows] += 1
        return touched, work, counts_delta, refusal

    def _validate_many_vectorized(self, norm: List[tuple], walls=None):
        """Sharded phase-one validation with the single-store contract.

        Same call shape and semantics as the base method -- returns the
        sorted global ``(touched, work, counts_delta)`` of the whole batch,
        or raises the sequential path's error for the globally first
        refusing ``(request, key)`` -- so ``charge_many``,
        ``can_charge_many``, and the commit path run unmodified on top.
        ``walls`` (commit path only, tracer attached) is a caller-owned
        dict filled with each shard's validation wall time in microseconds.
        """
        store = self._store
        row_lists = [self._key_rows(keys) for keys, _, _ in norm]
        per_shard: dict = {}
        for req_idx, rows in enumerate(row_lists):
            sids = store.shard_of_rows(rows)
            local = store.local_rows(rows)
            for shard in np.unique(sids):
                mask = sids == shard
                per_shard.setdefault(int(shard), []).append(
                    (req_idx, np.flatnonzero(mask), local[mask])
                )

        shards = sorted(per_shard)
        results = []
        for s in shards:
            t0 = time.perf_counter()
            results.append(self._validate_shard(per_shard[s], norm, s))
            if walls is not None:
                walls[s] = (time.perf_counter() - t0) * 1e6

        refusals = [res[3] for res in results if res[3] is not None]
        if refusals:
            req_idx, pos, retired = min(refusals, key=lambda r: (r[0], r[1]))
            keys, budget, _ = norm[req_idx]
            self._raise_refusal(keys[pos], budget, retired)

        # Phase two's input: gather every shard's post-batch rows back into
        # the sorted global row order the single-store path produces.
        touched = np.concatenate(
            [store.global_rows(s, res[0]) for s, res in zip(shards, results)]
        )
        work = np.concatenate([res[1] for res in results])
        counts_delta = np.concatenate([res[2] for res in results])
        order = np.argsort(touched)
        return touched[order], work[order], counts_delta[order]

    def _validate_for_commit(self, norm: List[tuple]):
        """Commit-path validation, stopwatching shards for the tracer.

        Untraced, this is exactly the inherited delegation.  Traced, each
        shard's phase-one wall time is measured (plain ``perf_counter``
        arithmetic -- no telemetry calls inside validation) and parked
        for :meth:`_commit_validated` to attribute at the serial commit
        point.  The stash is dead scratch on every other path:
        ``can_charge_many`` calls the validator directly and never
        reaches this seam.
        """
        if self._tracer is NULL_PROBE:
            return self._validate_many_vectorized(norm)
        walls: Dict[int, float] = {}
        result = self._validate_many_vectorized(norm, walls)
        self._shard_walls = walls
        return result

    def _commit_validated(self, norm, touched, work, counts_delta):
        """Phase two, with per-shard telemetry when a tracer is attached.

        Spans are emitted here -- the commit point -- never from inside
        shard validation, so a traced run's emission order (and therefore
        its logical clock) follows the committed footprint alone.  Each
        touched shard gets one ``shard.validate`` span derived from the
        batch's committed footprint, then the inherited cross-shard bulk
        write runs under a ``shard.commit`` span.

        A ``shard.validate`` span's ticks are emission-order artifacts;
        its wall fields carry the measurement instead: the wall interval
        ends at the span's own exit reading and reaches back the wall
        time :meth:`_validate_for_commit` measured for that shard -- the
        per-shard decomposition of the batch's validation phase.  The
        interval is synthesized (the shards ran one after another
        earlier in the batch, not stacked at the commit point), so
        sibling intervals may overlap.  Untraced accountants skip the
        footprint work entirely.
        """
        tracer = self._tracer
        walls, self._shard_walls = self._shard_walls, None
        if tracer is NULL_PROBE:
            return super()._commit_validated(norm, touched, work, counts_delta)
        sids = self._store.shard_of_rows(touched)
        shards, row_counts = np.unique(sids, return_counts=True)
        for shard, rows in zip(shards.tolist(), row_counts.tolist()):
            with tracer.span("shard.validate", shard=shard, rows=rows) as span:
                pass
            span.wall_start = span.wall_end - walls[shard]
        with tracer.span(
            "shard.commit", shards=len(shards), requests=len(norm)
        ):
            return super()._commit_validated(norm, touched, work, counts_delta)

    # ------------------------------------------------------------------
    # Cross-shard aggregates
    # ------------------------------------------------------------------
    def shard_loss_bounds(self) -> List[PrivacyBudget]:
        """Per-shard stream loss bound (the worst block within each shard).

        The component-wise max over shards equals :meth:`stream_loss_bound`
        -- the aggregate every cross-shard dashboard must reduce with
        (taking any single shard's bound under-reports the stream).  Each
        shard is one vectorized pass over its rows (the same
        filter-family branches ``stream_loss_bound`` uses)."""
        return [
            self._loss_bound_over_rows(self._store.shard_rows(shard))
            for shard in range(self.n_shards)
        ]


def sharded_accountant_factory(
    n_shards: int,
    policy: str = "hash",
    span: int = 64,
) -> Callable[..., ShardedBlockAccountant]:
    """An ``accountant_factory`` for :class:`~repro.core.access_control.
    SageAccessControl` / :class:`~repro.core.platform.Sage` that builds
    sharded accountants with the named partition policy ("hash" or
    "range")."""
    if policy not in ("hash", "range"):
        raise InvalidBudgetError(f"unknown shard policy {policy!r}")

    def factory(epsilon_global, delta_global, filter_factory=None, **kwargs):
        partitioner = (
            HashPartitioner(n_shards)
            if policy == "hash"
            else RangePartitioner(n_shards, span=span)
        )
        return ShardedBlockAccountant(
            epsilon_global,
            delta_global,
            filter_factory=filter_factory,
            partitioner=partitioner,
            **kwargs,
        )

    return factory
