"""Outside-in per-layer tracing.

For the traced part of a run, :class:`LayerTracer` replaces each layer's
public callables -- class or module attributes named after the module that
owns them -- with timing wrappers, and puts the originals back afterwards.
Nothing inside the program changes.

Each wrapper keeps a per-thread stack of open calls, so it records, per
layer:

* ``busy`` -- wall time inside the layer's callables;
* ``self`` -- busy time minus the traced calls made from inside them, so
  the layers' self times add up to the traced work;
* ``calls`` and ``errors`` (calls that raised);
* layer-specific counts read from the results (proposals made, rows
  assembled, pipeline runs accepted).

A call nested in a call of the same layer (``commit_staged`` reaching
``charge_many``) counts once, in the outer call.  Time in pool threads is
busy time of the layer that ran there; it is not subtracted from the
main thread that waited for it, so with thread pools the layer times can
add up to more than the wall time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

# layer -> the public callables it is measured by, as "module:Owner.attr"
# (or "module:function").
LAYERS: Dict[str, Tuple[str, ...]] = {
    "platform.advance": ("repro.core.platform:Sage.advance",),
    "platform.table_release": ("repro.core.platform:ReservationTable.release",),
    "platform.table": (
        "repro.core.platform:ReservationTable.values",
        "repro.core.platform:ReservationTable.settle",
        "repro.core.platform:ReservationTable.allocate",
        "repro.core.platform:ReservationTable.grant_free",
    ),
    "adaptive.propose": ("repro.core.adaptive:AdaptiveSession.propose_peek",),
    "adaptive.complete": ("repro.core.adaptive:AdaptiveSession.complete",),
    "accountant.scan": (
        "repro.core.access_control:SageAccessControl.offer_recent_blocks",
        "repro.core.access_control:SageAccessControl.max_epsilon",
    ),
    "accountant.stage": ("repro.core.access_control:SageAccessControl.stage_request",),
    "accountant.commit": (
        "repro.core.access_control:SageAccessControl.commit_staged",
        "repro.core.accountant:BlockAccountant.charge_many",
        "repro.core.sharding:ShardedBlockAccountant.charge_many",
    ),
    "data.ingest": ("repro.data.database:StreamIngestor.advance",),
    "data.assemble": ("repro.data.database:GrowingDatabase.assemble",),
    "pipeline.run": (
        "repro.core.pipeline:TrainingPipeline.run",
        "repro.core.pipeline:StatisticPipeline.run",
        "repro.workload.oracle:OraclePipeline.run",
    ),
    "pipeline.train": (
        "repro.ml.linear:AdaSSPRegressor.fit",
        "repro.ml.estimators:DPSGDRegressorEstimator.fit",
    ),
    "pipeline.validate": (
        "repro.core.validation.loss:DPLossValidator.validate",
        "repro.core.validation.statistics:DPStatisticValidator.release_and_validate",
    ),
    "durability.digest": ("repro.core.durability:state_digest",),
    "durability.wal": (
        "repro.core.durability:WalWriter.append_hour",
        "repro.core.durability:WalWriter.commit_hour",
    ),
    "durability.snapshot": (
        "repro.core.durability:SnapshotStore.write",
        "repro.core.durability:WalWriter.compact",
    ),
    "durability.recover_load": (
        "repro.core.durability:SnapshotStore.latest",
        "repro.core.durability:read_wal",
    ),
}


def _proposals(result) -> int:
    return int(result[0] is not None)


def _rows(result) -> int:
    return len(result)


def _accepted(result) -> int:
    return int(bool(getattr(result, "accepted", False)))


# layer -> what a call's result adds to the layer's ``counted``
RESULT_COUNTERS: Dict[str, Callable] = {
    "adaptive.propose": _proposals,
    "data.assemble": _rows,
    "pipeline.run": _accepted,
}


class LayerStats:
    __slots__ = ("busy_ns", "self_ns", "calls", "errors", "counted")

    def __init__(self) -> None:
        self.busy_ns = 0
        self.self_ns = 0
        self.calls = 0
        self.errors = 0
        self.counted = 0


def _resolve(target: str):
    """(owner, attribute, callable) for a target, or ``None`` when it no
    longer exists as a plain function at this commit."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *owner_path, attr = path.split(".")
    for name in owner_path:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    try:
        raw = inspect.getattr_static(owner, attr)
    except AttributeError:
        return None
    if not inspect.isfunction(raw):
        return None
    return owner, attr, raw


class LayerTracer:
    """Times every layer in :data:`LAYERS` while active (a context
    manager; re-entering after exit starts timing again into the same
    totals)."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.stats: Dict[str, LayerStats] = {}
        self.missing: List[str] = []
        self._targets: List[Tuple[str, object, str, Callable]] = []
        for layer, targets in LAYERS.items():
            resolved = [_resolve(t) for t in targets]
            gone = [t for t, r in zip(targets, resolved) if r is None]
            if gone:
                # A partly measured layer would under-report; report it as
                # missing instead.
                self.missing.extend(gone)
                continue
            self.stats[layer] = LayerStats()
            for owner, attr, fn in resolved:
                self._targets.append((layer, owner, attr, fn))
        self._installed: List[Tuple[object, str, Optional[Callable]]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, layer: str, fn: Callable) -> Callable:
        stats = self.stats[layer]
        counter = RESULT_COUNTERS.get(layer)
        lock = self._lock
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            stack = self._stack()
            for frame in stack:
                if frame[0] == layer:
                    return fn(*args, **kwargs)
            frame = [layer, 0]
            stack.append(frame)
            raised = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                with lock:
                    stats.busy_ns += elapsed
                    stats.self_ns += elapsed - frame[1]
                    stats.calls += 1
                    stats.errors += raised
            if counter is not None:
                increment = counter(result)
                with lock:
                    stats.counted += increment
            return result

        return functools.wraps(fn)(traced)

    def __enter__(self) -> "LayerTracer":
        for layer, owner, attr, fn in self._targets:
            own = owner.__dict__.get(attr) if inspect.isclass(owner) else fn
            self._installed.append((owner, attr, own))
            setattr(owner, attr, self._wrap(layer, fn))
        return self

    def __exit__(self, *exc_info) -> None:
        while self._installed:
            owner, attr, own = self._installed.pop()
            if own is None:
                delattr(owner, attr)  # the method was inherited
            else:
                setattr(owner, attr, own)
