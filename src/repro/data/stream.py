"""Data streams and block partitioners.

Sage splits each sensitive stream into *blocks* -- by time for event-level
privacy, by user id (or any public attribute) for user-level privacy (§3.2,
§4.4).  This module provides the stream-side machinery: a batch container
with timestamps and user ids, and partitioners that cut batches into raw
blocks.  Privacy ledgers live in ``repro.core``; here blocks are just data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Protocol

import numpy as np

from repro.errors import DataError

__all__ = [
    "StreamBatch",
    "StreamSource",
    "TimePartitioner",
    "UserPartitioner",
    "RawBlock",
    "PackedColumns",
]


@dataclass
class StreamBatch:
    """A contiguous chunk of stream records.

    ``extras`` carries named per-record columns beyond the featurized matrix
    (e.g. the raw speed column the statistics pipelines aggregate).
    """

    X: np.ndarray
    y: np.ndarray
    timestamps: np.ndarray
    user_ids: np.ndarray
    extras: Dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        n = self.X.shape[0]
        for name, arr in (
            ("y", self.y),
            ("timestamps", self.timestamps),
            ("user_ids", self.user_ids),
        ):
            if arr.shape[0] != n:
                raise DataError(f"{name} has {arr.shape[0]} rows, expected {n}")
        for key, arr in self.extras.items():
            if arr.shape[0] != n:
                raise DataError(f"extras[{key!r}] has {arr.shape[0]} rows, expected {n}")

    def __len__(self) -> int:
        return int(self.X.shape[0])

    def select(self, idx: np.ndarray) -> "StreamBatch":
        """Row-subset view (copies) preserving all columns."""
        return StreamBatch(
            X=self.X[idx],
            y=self.y[idx],
            timestamps=self.timestamps[idx],
            user_ids=self.user_ids[idx],
            extras={k: v[idx] for k, v in self.extras.items()},
        )

    @staticmethod
    def concatenate(batches: List["StreamBatch"]) -> "StreamBatch":
        """Concatenate batches row-wise into one fresh batch.

        One C-level ``np.concatenate`` per column -- near numpy's floor for
        a one-shot join.  The platform's hourly drive, which used to call
        this over thousands of one-row blocks per assembled window, now
        assembles through :class:`PackedColumns` instead (preallocated
        columns filled once at ingest, windows read back as one slice or
        gather); this method remains the general-purpose fallback for
        heterogeneous batches.
        """
        if not batches:
            raise DataError("cannot concatenate zero batches")
        if len(batches) == 1:
            return batches[0].select(np.arange(len(batches[0])))
        keys = set(batches[0].extras)
        if any(set(b.extras) != keys for b in batches):
            raise DataError("batches disagree on extras columns")
        return StreamBatch(
            X=np.concatenate([b.X for b in batches]),
            y=np.concatenate([b.y for b in batches]),
            timestamps=np.concatenate([b.timestamps for b in batches]),
            user_ids=np.concatenate([b.user_ids for b in batches]),
            extras={k: np.concatenate([b.extras[k] for b in batches]) for k in keys},
        )


class PackedColumns:
    """Preallocated columnar store for append-only streams of batches.

    The hourly drive's hottest remaining path was window *assembly*:
    ``StreamBatch.concatenate`` re-walked thousands of one-row blocks --
    five comprehensions plus five per-block concatenations -- for every
    granted attempt.  This store replaces the repeated per-block
    concatenation with preallocated output arrays filled in one pass:
    every column lives in one contiguous array (amortized O(1) doubling
    growth, rows appended exactly once at ingest), each appended batch
    occupies a ``(start, length)`` extent, and assembling a window is a
    single slice copy (contiguous extents -- the common chronological
    window) or one vectorized gather (arbitrary extents), per column.

    The schema (feature width, column dtypes, extras keys) is fixed by the
    first batch; :meth:`matches` lets the owner detect drift and fall back
    to per-block concatenation.
    """

    def __init__(self, template: StreamBatch, capacity: int = 1024) -> None:
        capacity = max(1, int(capacity))
        self._feature_shape = template.X.shape[1:]
        self._extras_keys = tuple(sorted(template.extras))
        self._n = 0
        self._X = np.empty((capacity,) + self._feature_shape, dtype=template.X.dtype)
        self._y = np.empty(capacity, dtype=template.y.dtype)
        self._timestamps = np.empty(capacity, dtype=template.timestamps.dtype)
        self._user_ids = np.empty(capacity, dtype=template.user_ids.dtype)
        self._extras = {
            k: np.empty(capacity, dtype=template.extras[k].dtype)
            for k in self._extras_keys
        }

    def __len__(self) -> int:
        return self._n

    def __getstate__(self) -> dict:
        """Pickle the live rows and the capacity, never the spare buffer
        bytes: ``np.empty`` leaves them arbitrary, and a truncated tail
        keeps rolled-back rows, so pickling them would make two equal
        stores (and the snapshots that carry them) differ byte for byte."""
        n = self._n  # a pickled slice carries its own rows only
        return {
            "capacity": self._y.shape[0],
            "feature_shape": self._feature_shape,
            "extras_keys": self._extras_keys,
            "X": self._X[:n],
            "y": self._y[:n],
            "timestamps": self._timestamps[:n],
            "user_ids": self._user_ids[:n],
            "extras": {k: v[:n] for k, v in self._extras.items()},
        }

    def __setstate__(self, state: dict) -> None:
        """Re-allocate the pickled capacity zeroed and refill the live rows."""
        capacity = state["capacity"]

        def refilled(live: np.ndarray) -> np.ndarray:
            out = np.zeros((capacity,) + live.shape[1:], dtype=live.dtype)
            out[: live.shape[0]] = live
            return out

        self._feature_shape = state["feature_shape"]
        self._extras_keys = state["extras_keys"]
        self._n = state["y"].shape[0]
        self._X = refilled(state["X"])
        self._y = refilled(state["y"])
        self._timestamps = refilled(state["timestamps"])
        self._user_ids = refilled(state["user_ids"])
        self._extras = {k: refilled(v) for k, v in state["extras"].items()}

    def matches(self, batch: StreamBatch) -> bool:
        """Whether the batch fits this store's fixed schema."""
        if batch.X.shape[1:] != self._feature_shape:
            return False
        if tuple(sorted(batch.extras)) != self._extras_keys:
            return False
        if (
            batch.X.dtype != self._X.dtype
            or batch.y.dtype != self._y.dtype
            or batch.timestamps.dtype != self._timestamps.dtype
            or batch.user_ids.dtype != self._user_ids.dtype
        ):
            return False
        return all(
            batch.extras[k].dtype == self._extras[k].dtype
            for k in self._extras_keys
        )

    def _grow_to(self, needed: int) -> None:
        capacity = self._y.shape[0]
        while capacity < needed:
            capacity *= 2

        def grown(arr: np.ndarray) -> np.ndarray:
            out = np.empty((capacity,) + arr.shape[1:], dtype=arr.dtype)
            out[: self._n] = arr[: self._n]
            return out

        self._X = grown(self._X)
        self._y = grown(self._y)
        self._timestamps = grown(self._timestamps)
        self._user_ids = grown(self._user_ids)
        self._extras = {k: grown(v) for k, v in self._extras.items()}

    def append(self, batch: StreamBatch) -> tuple:
        """Pack one batch's rows; returns its ``(start, length)`` extent."""
        n = len(batch)
        start = self._n
        if start + n > self._y.shape[0]:
            self._grow_to(start + n)
        stop = start + n
        self._X[start:stop] = batch.X
        self._y[start:stop] = batch.y
        self._timestamps[start:stop] = batch.timestamps
        self._user_ids[start:stop] = batch.user_ids
        for k in self._extras_keys:
            self._extras[k][start:stop] = batch.extras[k]
        self._n = stop
        return start, n

    def truncate_to(self, n_rows: int) -> None:
        """Drop every row past ``n_rows`` (the owner's tail rollback).
        Bytes past the cursor are dead capacity, overwritten by the next
        append -- exactly the state a shorter history would have left."""
        if not 0 <= n_rows <= self._n:
            raise DataError(
                f"cannot truncate packed store of {self._n} rows to {n_rows}"
            )
        self._n = n_rows

    def slice_batch(self, start: int, stop: int) -> StreamBatch:
        """Fresh batch of the contiguous row range (one memcpy per column)."""
        return StreamBatch(
            X=self._X[start:stop].copy(),
            y=self._y[start:stop].copy(),
            timestamps=self._timestamps[start:stop].copy(),
            user_ids=self._user_ids[start:stop].copy(),
            extras={k: v[start:stop].copy() for k, v in self._extras.items()},
        )

    def view_batch(self, start: int, stop: int) -> StreamBatch:
        """Zero-copy *view* of the contiguous row range.

        For read-only consumers that copy anyway (e.g. feeding
        ``StreamBatch.concatenate``); callers must not mutate it, and must
        not hold it across further appends (growth reallocates the backing
        buffers, detaching views).
        """
        return StreamBatch(
            X=self._X[start:stop],
            y=self._y[start:stop],
            timestamps=self._timestamps[start:stop],
            user_ids=self._user_ids[start:stop],
            extras={k: v[start:stop] for k, v in self._extras.items()},
        )

    def gather(self, starts: np.ndarray, lengths: np.ndarray) -> StreamBatch:
        """Fresh batch of the named extents, in order (one gather per column).

        The row-index vector is built without a per-extent Python loop:
        ones everywhere, each extent's first position overwritten with the
        jump from the previous extent's last row, then a cumulative sum.
        Requires every extent non-empty (blocks always hold >= 1 row).
        """
        starts = np.asarray(starts, dtype=np.intp)
        lengths = np.asarray(lengths, dtype=np.intp)
        if lengths.size == 0 or not bool((lengths > 0).all()):
            raise DataError(
                "gather requires non-empty extents (filter zero-length "
                "extents out first, as GrowingDatabase.assemble does)"
            )
        total = int(lengths.sum())
        rows = np.ones(total, dtype=np.intp)
        ends = np.cumsum(lengths)
        rows[0] = starts[0]
        rows[ends[:-1]] = starts[1:] - (starts[:-1] + lengths[:-1] - 1)
        rows = np.cumsum(rows)
        return StreamBatch(
            X=self._X[rows],
            y=self._y[rows],
            timestamps=self._timestamps[rows],
            user_ids=self._user_ids[rows],
            extras={k: v[rows] for k, v in self._extras.items()},
        )


class StreamSource(Protocol):
    """A data stream that can materialize any time interval.

    Both synthetic generators (:class:`~repro.data.taxi.TaxiGenerator`,
    :class:`~repro.data.criteo.CriteoGenerator`) satisfy this protocol.
    """

    points_per_hour: int
    feature_dim: int
    label_range: tuple

    def generate_interval(
        self, start_hour: float, hours: float, rng: np.random.Generator
    ) -> StreamBatch:
        ...


@dataclass(frozen=True)
class RawBlock:
    """An immutable slab of stream data destined to become a Sage block.

    ``key`` is the public block attribute: the time-window index for
    event-level privacy or the user bucket for user-level privacy.
    """

    key: object
    batch: StreamBatch

    def __len__(self) -> int:
        return len(self.batch)


class TimePartitioner:
    """Cut a batch into blocks of ``window_hours`` of stream time.

    Window boundaries are absolute (window k covers
    [k * window_hours, (k+1) * window_hours)), so repeated calls with
    adjacent batches produce consistent keys.
    """

    def __init__(self, window_hours: float = 1.0) -> None:
        if window_hours <= 0:
            raise DataError(f"window_hours must be > 0, got {window_hours}")
        self.window_hours = window_hours

    def partition(self, batch: StreamBatch) -> List[RawBlock]:
        windows = np.floor(batch.timestamps / self.window_hours).astype(np.int64)
        blocks = []
        for key in np.unique(windows):
            idx = np.flatnonzero(windows == key)
            blocks.append(RawBlock(key=int(key), batch=batch.select(idx)))
        return blocks


class UserPartitioner:
    """Cut a batch into per-user-bucket blocks (user-level privacy, §4.4).

    Bucketing by ``user_id % num_buckets`` keeps the set of possible block
    keys public (the paper's requirement that block attributes be
    non-sensitive) while letting every user's records land in one block.
    """

    def __init__(self, num_buckets: int = 64) -> None:
        if num_buckets <= 0:
            raise DataError(f"num_buckets must be > 0, got {num_buckets}")
        self.num_buckets = num_buckets

    def partition(self, batch: StreamBatch) -> List[RawBlock]:
        buckets = np.asarray(batch.user_ids, dtype=np.int64) % self.num_buckets
        blocks = []
        for key in np.unique(buckets):
            idx = np.flatnonzero(buckets == key)
            blocks.append(RawBlock(key=("user", int(key)), batch=batch.select(idx)))
        return blocks
