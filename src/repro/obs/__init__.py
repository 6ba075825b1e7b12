"""Deterministic telemetry for the Sage platform.

Sage is pitched as an always-on platform whose operators watch per-block
privacy loss and retirement in real time (Lecuyer et al., SOSP 2019,
section 6).  This package is that observability surface: a
:class:`~repro.obs.trace.Tracer` of structured spans/events over every
phase of the hourly drive, each record carrying a logical tick and a
wall-clock reading, a :class:`~repro.obs.metrics.MetricsRegistry` of
privacy/throughput/durability metrics, span-tree analytics
(:mod:`repro.obs.analyze`), a perf-trajectory store
(:mod:`repro.obs.perfdb`), and exporters (:mod:`repro.obs.export`) for
deterministic JSON, the Prometheus text format, Chrome trace-event JSON
(Perfetto-loadable), and collapsed-stack flamegraphs.

Enable it per platform::

    from repro.obs import Telemetry
    from repro.obs.analyze import render_breakdown, wall_view
    telemetry = Telemetry()
    sage = Sage(source, telemetry=telemetry)
    ...
    print(render_json(telemetry.metrics))
    print(render_breakdown(wall_view(telemetry.tracer)))  # the profile

**The determinism contract.**  Telemetry never feeds back into the code
it observes, timestamps come from a logical tick clock, span IDs are a
counter, and every emission site sits on the serial drive path -- so a
traced run's accounting trajectory is byte-identical to an untraced
run's (property-tested on the staged and durable drives and on the test
suite's per-request oracle), and two identical runs export byte-identical
documents.  Disabled mode
is a no-op probe: platform attributes hold the shared
:data:`~repro.obs.trace.NULL_PROBE`, whose ``span`` / ``event`` / ``set``
do nothing, so every emission site is written once, unconditionally.
Instrumentation lives only on driver/mutating paths; the pure read
surface (``propose_peek`` / ``admits_keys`` / ``can_charge`` /
``max_epsilon`` and everything they reach) stays telemetry-free,
enforced by the ``telemetry-isolation`` lint rule.

**One record, two clocks.**  Correctness observability and
performance observability read different clocks off the same span.
Every span and event carries a logical tick (``start`` / ``end``,
``ts``) and a ``perf_counter`` reading in microseconds (``wall_start`` /
``wall_end``, ``wall_ts``), both taken by the tracer in the same
enter/exit.  The tick fields are the only ones exported to byte-parity
artifacts (``chrome_trace(tracer)``, ``Span.__repr__``, the fsync-tick
histogram), so they stay replayable and byte-identical across runs.
The wall fields answer "where did the hour go":
:func:`~repro.obs.analyze.wall_view` re-reads the same records with the
wall readings in ``start`` / ``end`` / ``ts``, and every analytic and
exporter then works on that profile unchanged.  Wall time is not
replayable, so a wall view never enters a parity artifact; the traced
*run* stays byte-identical to a bare run.  Profiling observes, never
participates.

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
(per-block dashboard gauges),
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
``sage_wal_append_bytes`` / ``sage_wal_fsync_ticks`` (histograms; fsync
durations in logical ticks, never wall time),
``sage_wal_compact_dropped_total``, ``sage_snapshots_written_total``,
``sage_snapshot_bytes``, ``sage_fault_trips_total{point=...}``, and the
``sage_recovery_*`` gauges filled by ``observe_recovery``.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.export import (
    chrome_trace,
    render_chrome_trace,
    render_json,
    render_prometheus,
    write_chrome_trace,
)
from repro.obs.metrics import BUCKET_BOUNDS, MetricsRegistry
from repro.obs.trace import NULL_PROBE, Event, NullProbe, Span, TickClock, Tracer

__all__ = [
    "BUCKET_BOUNDS",
    "Event",
    "MetricsRegistry",
    "NULL_PROBE",
    "NullProbe",
    "Span",
    "Telemetry",
    "TickClock",
    "Tracer",
    "chrome_trace",
    "render_chrome_trace",
    "render_json",
    "render_prometheus",
    "write_chrome_trace",
]


class Telemetry:
    """One platform's telemetry: a tracer and a metrics registry.

    Pass to ``Sage(telemetry=...)``; the platform threads ``tracer``
    through the accountant, the WAL writer, the snapshot store, and the
    fault registry.  The tracer reads both clocks on every record, so a
    traced run is also a profiled one (see
    :func:`~repro.obs.analyze.wall_view`).
    """

    def __init__(self, metrics: Optional[MetricsRegistry] = None) -> None:
        self.tracer = Tracer()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
