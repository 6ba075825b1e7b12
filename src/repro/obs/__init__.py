"""Deterministic telemetry for the Sage platform (PR 9 + PR 10).

Sage is pitched as an always-on platform whose operators watch per-block
privacy loss and retirement in real time (Lecuyer et al., SOSP 2019,
section 6).  This package is that observability surface: a
:class:`~repro.obs.trace.Tracer` of structured spans/events over every
phase of the hourly drive, a :class:`~repro.obs.metrics.MetricsRegistry`
of privacy/throughput/durability metrics, a wall-clock
:class:`~repro.obs.profile.WallProfiler` (PR 10), span-tree analytics
(:mod:`repro.obs.analyze`), a perf-trajectory store
(:mod:`repro.obs.perfdb`), and exporters (:mod:`repro.obs.export`) for
deterministic JSON, the Prometheus text format, Chrome trace-event JSON
(Perfetto-loadable), and collapsed-stack flamegraphs.

Enable it per platform::

    from repro.obs import Telemetry, WallProfiler
    telemetry = Telemetry(profiler=WallProfiler())  # profiler optional
    sage = Sage(source, telemetry=telemetry)
    ...
    print(render_json(telemetry.metrics))

**The determinism contract.**  Telemetry never feeds back into the code
it observes, timestamps come from a logical tick clock, span IDs are a
counter, and every emission site sits on the serial drive path -- so a
traced run's accounting trajectory is byte-identical to an untraced
run's (property-tested across the batched, sharded, and durable drives),
and two identical runs export byte-identical documents.  Disabled mode
is a no-op probe: platform attributes hold the shared
:data:`~repro.obs.trace.NULL_PROBE`, whose ``span`` / ``event`` / ``set``
do nothing, so every emission site is written once, unconditionally.
Instrumentation lives only on driver/mutating paths; the pure read
surface (``propose_peek`` / ``admits_keys`` / ``can_charge`` /
``max_epsilon`` and everything they reach) stays telemetry-free,
enforced by the ``telemetry-isolation`` lint rule.

**The wall-clock / logical-tick split (PR 10).**  Correctness
observability and performance observability deliberately run on
different clocks.  The tracer keeps logical ticks: its output is
replayable and byte-identical across runs, and it participates in every
byte-parity artifact.  The :class:`~repro.obs.profile.WallProfiler`
records the *same span taxonomy* with real ``perf_counter`` durations;
it attaches alongside -- never instead of -- the tracer (a
:class:`~repro.obs.profile.Probe` tees each emission site to both), so
"where did the hour go" never costs "can I replay the hour".  The
profiler's output is excluded from byte-parity artifacts (wall time is
not replayable); the profiled *run* remains byte-identical to a bare
run, and the tracer's exports are byte-identical whether or not a
profiler rides along.  Profiling observes, never participates.

Span taxonomy (category = dotted prefix)
----------------------------------------

=========================== ==============================================
span                        covers
=========================== ==============================================
``advance.hour``            one whole ``advance()`` (volatile or durable)
``advance.open``            ingest + block registration + allocation
``session.drive``           one session's propose/decide loop for the hour
``staging.commit``          closing the hour's staged batch
``charge.batch``            one ``charge_many`` (validate + commit)
``shard.validate``          one shard's phase-1 footprint (emitted at the
                            serial commit point, one span per shard)
``shard.commit``            the cross-shard phase-2 bulk write
``wal.append``              framing + writing one hour record
``wal.fsync``               each write-ahead-log fsync
``wal.commit``              appending the commit marker
``wal.compact``             rewriting the log up to the retained snapshot
``snapshot.write``          one atomic snapshot write
``recover.run``             a whole ``Sage.recover()``
``recover.hour``            replaying one WAL hour
=========================== ==============================================

Event taxonomy
--------------

=============================== ==========================================
event                           fires
=============================== ==========================================
``charge.granted``              a session proposal was granted (staged or
                                sequential)
``charge.denied``               a proposal refused (budget/retirement)
``reservations.settle``         the hour's reservation deductions settled
                                (``sessions`` = sessions driven; one per
                                hour -- settle rides the per-session hot
                                path, so per-session instants would tax
                                the drive)
``fault.trip``                  an *armed* crash point actually fired
``recover.snapshot``            recovery loaded a snapshot
``recover.report``              ``RecoveryReport.describe`` summary
=============================== ==========================================

Metric taxonomy
---------------

Privacy: ``sage_privacy_epsilon_spent`` / ``sage_privacy_delta_spent``
(the ``stream_loss_bound``), ``sage_privacy_epsilon_headroom`` /
``sage_privacy_delta_headroom`` (distance to the global budget),
``sage_privacy_blocks_total`` / ``_live`` / ``_retired``,
``sage_privacy_renyi_orders`` / ``sage_privacy_renyi_order_saturation``
(fraction of spending blocks optimal at a grid boundary),
``sage_block_epsilon{block=...}`` / ``sage_block_delta{block=...}``
(per-block dashboard gauges), ``sage_shard_epsilon_bound{shard=...}``,
``sage_charges_granted_total`` / ``sage_charges_denied_total``
(admission/denial rates).

Throughput: ``sage_hours_advanced_total``, ``sage_sessions_driven_total``,
``sage_hour_charges`` (last completed hour, the ``Sage.last_hour_charges``
compatibility source), ``sage_staged_batch_requests`` (histogram of staged
batch sizes).

Counters are monotonic and count work done, so a rolled-back hour keeps
its increments: after a failed hour, ``sage_charges_granted_total`` and
``sage_sessions_driven_total`` run ahead of the ledger by that hour's
attempts.  The per-hour gauge (and ``Sage.last_hour_charges``) is set
only when an hour completes.

Durability: ``sage_wal_bytes_total``, ``sage_wal_fsyncs_total``,
``sage_wal_append_bytes`` / ``sage_wal_fsync_ticks`` (histograms; ticks
are logical-clock durations unless a wall clock is injected),
``sage_wal_compact_dropped_total``, ``sage_snapshots_written_total``,
``sage_snapshot_bytes``, ``sage_fault_trips_total{point=...}``, and the
``sage_recovery_*`` gauges filled by ``observe_recovery``.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.obs.export import (
    chrome_trace,
    render_chrome_trace,
    render_json,
    render_prometheus,
    write_chrome_trace,
)
from repro.obs.metrics import BUCKET_BOUNDS, MetricsRegistry
from repro.obs.profile import (
    Probe,
    SpanStats,
    WallClock,
    WallProfiler,
    render_profile,
)
from repro.obs.trace import NULL_PROBE, Event, NullProbe, Span, TickClock, Tracer

__all__ = [
    "BUCKET_BOUNDS",
    "Event",
    "MetricsRegistry",
    "NULL_PROBE",
    "NullProbe",
    "Probe",
    "Span",
    "SpanStats",
    "Telemetry",
    "TickClock",
    "Tracer",
    "WallClock",
    "WallProfiler",
    "chrome_trace",
    "render_chrome_trace",
    "render_json",
    "render_profile",
    "render_prometheus",
    "write_chrome_trace",
]


class Telemetry:
    """One platform's telemetry: tracer, metrics, optional profiler.

    Pass to ``Sage(telemetry=...)``; the platform threads it through the
    accountant, the WAL writer, the snapshot store, and the fault
    registry.  ``clock`` overrides the tracer's logical tick clock (e.g.
    a scaled ``time.perf_counter`` for wall-clock traces -- at the cost
    of run-to-run byte determinism of the exports).  ``profiler``
    attaches a :class:`WallProfiler` *alongside* the tracer: ``probe``
    is then a :class:`Probe` teeing every emission site to both; without
    a profiler ``probe`` is the tracer itself, so the instrumented code
    pays nothing for the capability.
    """

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        metrics: Optional[MetricsRegistry] = None,
        profiler: Optional[WallProfiler] = None,
    ) -> None:
        self.tracer = Tracer(clock=clock)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.profiler = profiler
        self.probe = (
            self.tracer if profiler is None else Probe(self.tracer, profiler)
        )
