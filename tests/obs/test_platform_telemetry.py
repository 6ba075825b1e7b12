"""Telemetry on the live platform: byte parity, the no-op contract, the
span taxonomy of the hourly drive, and traced crash recovery.

The headline property is PR 9's acceptance gate: attaching a
:class:`~repro.obs.Telemetry` must leave the simulation byte-identical
(per-hour state digests and the full protocol fingerprint) on every
drive variant -- sequential, batched, durable -- on basic and Renyi-width
stores.
"""

from contextlib import nullcontext

import pytest
from per_request_oracle import per_request_drive

from repro.core import durability, faults
from repro.core.adaptive import AdaptiveConfig
from repro.core.filters import RenyiCompositionFilter
from repro.core.platform import Sage
from repro.obs import NULL_PROBE, Telemetry, render_chrome_trace
from repro.obs.analyze import (
    hour_coverage,
    load_chrome_trace,
    span_tree_shape,
    wall_view,
)
from repro.workload.oracle import CountStreamSource, OraclePipeline

# Drive variants; the "sequential" ones run under the test-side
# per-request oracle (_drive_mode), and the "-renyi" ones get a
# Renyi-width store.
VARIANTS = ["batched", "sequential", "batched-renyi", "sequential-renyi"]

STAGED_VARIANTS = [v for v in VARIANTS if v.startswith("batched")]


def _pipes(n=4):
    return [
        (
            OraclePipeline(name=f"p{i}", n_at_eps1=3_000.0 * (2.0 ** i)),
            AdaptiveConfig(max_attempts=16),
        )
        for i in range(n)
    ]


def _build(variant, telemetry=None, **kwargs):
    if variant.endswith("-renyi"):
        kwargs["filter_factory"] = RenyiCompositionFilter
    return Sage(
        CountStreamSource(4000, scale=1000),
        seed=5,
        telemetry=telemetry,
        **kwargs,
    )


def _drive_mode(variant):
    """The context a variant's hours run in: the per-request oracle for
    the "sequential" variants, the platform's own staged hour otherwise."""
    if variant.startswith("sequential"):
        return per_request_drive()
    return nullcontext()


def _drive(sage, hours):
    for pipeline, config in _pipes():
        sage.submit(pipeline, config)
    digests = []
    for _ in range(hours):
        sage.advance(1.0)
        digests.append(durability.state_digest(sage))
    return digests


@pytest.fixture(autouse=True)
def _clean_fault_registry():
    faults.clear()
    yield
    faults.clear()


def _span_key(tracer):
    return [
        (s.span_id, s.parent_id, s.name, s.start, s.end, s.hour)
        for s in tracer.spans
    ]


class TestByteParity:
    """A traced run -- which, with both clocks on every record, is also a
    profiled run -- stays byte-identical to a bare run, and its tick
    exports do not depend on the wall clock."""

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_traced_drive_is_byte_identical(self, variant):
        bare = _build(variant)
        with _drive_mode(variant):
            bare_digests = _drive(bare, 6)
        telemetry = Telemetry()
        traced = _build(variant, telemetry=telemetry)
        with _drive_mode(variant):
            traced_digests = _drive(traced, 6)
        assert traced_digests == bare_digests
        spans = telemetry.tracer.spans
        assert spans, "the traced drive must emit spans"
        # Every record read the wall clock too.
        assert all(0.0 < s.wall_start <= s.wall_end for s in spans)
        # The diagnostics stay identical too -- the registry-backed
        # compat properties feed the same numbers either way.
        assert traced.last_hour_charges == bare.last_hour_charges
        traced.close()
        bare.close()

    # The per-request oracle writes no request batch ahead, so only the
    # staged variants have a log to compare.
    @pytest.mark.parametrize("variant", STAGED_VARIANTS)
    def test_durable_traced_drive_is_byte_identical(self, variant, tmp_path):
        bare = _build(variant, wal_dir=tmp_path / "bare", snapshot_every=2)
        bare_digests = _drive(bare, 6)
        bare.close()
        telemetry = Telemetry()
        traced = _build(
            variant,
            telemetry=telemetry,
            wal_dir=tmp_path / "traced",
            snapshot_every=2,
        )
        traced_digests = _drive(traced, 6)
        traced.close()
        assert traced_digests == bare_digests
        # And the WAL bytes themselves: telemetry never reaches the log.
        assert (tmp_path / "traced" / "charge.wal").read_bytes() == (
            tmp_path / "bare" / "charge.wal"
        ).read_bytes()

    def test_two_traced_runs_emit_identical_traces(self):
        tracers = []
        for _ in range(2):
            telemetry = Telemetry()
            sage = _build("batched", telemetry=telemetry)
            _drive(sage, 4)
            sage.close()
            tracers.append(telemetry.tracer)
        first, second = tracers
        assert _span_key(first) == _span_key(second)
        assert [(e.event_id, e.name, e.ts, e.hour) for e in first.events] == [
            (e.event_id, e.name, e.ts, e.hour) for e in second.events
        ]
        # The exported artifact too, although the wall readings differ.
        assert render_chrome_trace(first) == render_chrome_trace(second)


class TestNoOpContract:
    def test_without_telemetry_no_tracer_anywhere(self):
        sage = _build("batched")
        assert sage.telemetry is None
        assert sage._tracer is NULL_PROBE
        assert sage.access.accountant._tracer is NULL_PROBE
        sage.close()

    def test_without_telemetry_no_fault_observer(self):
        before = len(faults._OBSERVERS)
        sage = _build("batched")
        assert len(faults._OBSERVERS) == before
        sage.close()

    def test_close_detaches_the_fault_observer(self):
        before = len(faults._OBSERVERS)
        sage = _build("batched", telemetry=Telemetry())
        assert len(faults._OBSERVERS) == before + 1
        sage.close()
        assert len(faults._OBSERVERS) == before

    def test_registry_present_without_telemetry(self):
        sage = _build("batched")
        _drive(sage, 2)
        assert sage.metrics.counter_value("sage_hours_advanced_total") == 2
        assert not sage.metrics.snapshot()["histograms"].get("missing")
        sage.close()


class TestSpanTaxonomy:
    def test_durable_drive_emits_the_full_phase_set(self, tmp_path):
        telemetry = Telemetry()
        sage = _build(
            "batched", telemetry=telemetry, wal_dir=tmp_path, snapshot_every=2
        )
        _drive(sage, 4)
        sage.close()
        names = set(telemetry.tracer.span_names())
        assert {
            "advance.hour",
            "advance.open",
            "session.drive",
            "charge.batch",
            "staging.commit",
            "wal.append",
            "wal.fsync",
            "wal.commit",
            "snapshot.write",
        } <= names
        events = set(telemetry.tracer.event_names())
        assert {"charge.granted", "reservations.settle"} <= events
        # Hour spans carry the mode.
        hour_spans = telemetry.tracer.find_spans("advance.hour")
        assert all(s.args["mode"] == "durable" for s in hour_spans)
        # WAL metrics filled alongside the spans.
        metrics = telemetry.metrics
        assert metrics.counter_value("sage_wal_bytes_total") > 0
        assert metrics.counter_value("sage_wal_fsyncs_total") > 0
        assert metrics.counter_value("sage_snapshots_written_total") > 0

    def test_spans_are_emitted_serially_and_nest_under_the_hour(self):
        telemetry = Telemetry()
        sage = _build("batched", telemetry=telemetry)
        _drive(sage, 3)
        sage.close()
        tracer = telemetry.tracer
        hours = {s.span_id: s for s in tracer.find_spans("advance.hour")}
        for name in ("session.drive", "charge.batch", "staging.commit"):
            for span in tracer.find_spans(name):
                top = span
                while top.parent_id is not None:
                    parent = next(
                        s for s in tracer.spans if s.span_id == top.parent_id
                    )
                    top = parent
                assert top.span_id in hours, f"{name} not rooted in an hour span"
        # Ticks are strictly increasing in emission order -- the serial
        # discipline the tracer documents.
        closes = [s.end for s in tracer.spans]
        assert closes == sorted(closes)


class TestProfilerParity:
    """Profiling observes, never participates.

    Every traced record carries a wall reading beside its tick, so a
    traced run *is* a profiled run (its byte parity is
    :class:`TestByteParity`'s); its wall view must also be a
    well-formed profile of the drive.
    """

    def test_wall_fields_nest(self):
        telemetry = Telemetry()
        sage = _build("batched", telemetry=telemetry)
        _drive(sage, 4)
        sage.close()
        by_id = {s.span_id: s for s in telemetry.tracer.spans}
        checked = 0
        for child in telemetry.tracer.spans:
            parent = by_id.get(child.parent_id)
            if parent is None:
                continue
            assert parent.wall_start <= child.wall_start, child.name
            assert child.wall_end <= parent.wall_end, child.name
            checked += 1
        assert checked > 0

    def test_wall_view_round_trips_through_chrome_trace(self):
        telemetry = Telemetry()
        sage = _build("batched", telemetry=telemetry)
        _drive(sage, 3)
        sage.close()
        view = wall_view(telemetry.tracer)
        loaded = load_chrome_trace(render_chrome_trace(view))
        assert span_tree_shape(loaded) == span_tree_shape(view)
        assert [(e.event_id, e.name, e.ts, e.hour) for e in loaded.events] == [
            (e.event_id, e.name, e.ts, e.hour) for e in view.events
        ]

    def test_wall_view_mirrors_the_taxonomy(self):
        telemetry = Telemetry()
        sage = _build("batched", telemetry=telemetry)
        _drive(sage, 4)
        sage.close()
        view = wall_view(telemetry.tracer)
        # The wall view is the same span taxonomy on a wall clock...
        assert view.span_names() == telemetry.tracer.span_names()
        assert all(s.duration >= 0.0 for s in view.spans)
        # ...and explains most of each hour through child spans.
        assert hour_coverage(view) > 0.5

    def test_tick_fields_stay_logical(self):
        telemetry = Telemetry()
        sage = _build("batched", telemetry=telemetry)
        _drive(sage, 3)
        sage.close()
        spans = telemetry.tracer.spans
        # Ticks stay logical even though every record also read
        # perf_counter.
        assert all(float(s.start).is_integer() for s in spans)
        assert all(float(s.end).is_integer() for s in spans)
        assert all(float(e.ts).is_integer() for e in telemetry.tracer.events)
        assert not all(float(s.wall_end).is_integer() for s in spans)


class TestTracedRecovery:
    def test_kill_recover_traces_the_replay(self, tmp_path):
        sage = _build("batched", wal_dir=tmp_path, snapshot_every=0)
        for pipeline, config in _pipes():
            sage.submit(pipeline, config)
        with pytest.raises(faults.InjectedCrash):
            with faults.armed_crash("wal.after_append", skip=2):
                for _ in range(6):
                    sage.advance(1.0)

        telemetry = Telemetry()
        recovered = _build(
            "batched", telemetry=telemetry, wal_dir=tmp_path, snapshot_every=0
        )
        report = recovered.recover(_pipes())
        tracer = telemetry.tracer
        # One recover.run span wrapping one recover.hour per replayed hour.
        assert len(tracer.find_spans("recover.run")) == 1
        hour_spans = tracer.find_spans("recover.hour")
        assert len(hour_spans) == report.replayed_hours
        run_span = tracer.find_spans("recover.run")[0]
        assert all(s.parent_id == run_span.span_id for s in hour_spans)
        assert [s.hour for s in hour_spans] == list(range(report.replayed_hours))
        # The crash fired after the append but before commit_hour wrote
        # the digest record, so the final replayed hour has no digest to
        # verify -- the spans must agree with the report about which.
        checked = [s.args["digest_checked"] for s in hour_spans]
        assert sum(checked) == report.digests_verified
        assert checked == [True] * (report.replayed_hours - 1) + [False]
        # Replay recharges through charge.batch under each replayed hour.
        assert tracer.find_spans("charge.batch")
        # Gauges land without calling describe().
        metrics = telemetry.metrics
        assert metrics.gauge_value("sage_recovery_replayed_hours") == (
            report.replayed_hours
        )
        assert metrics.gauge_value("sage_recovery_digests_verified") == (
            report.digests_verified
        )
        assert report.digests_verified == report.replayed_hours - 1
        recovered.close()
        sage.close()

    def test_describe_emits_the_report_event(self, tmp_path):
        sage = _build("batched", wal_dir=tmp_path, snapshot_every=2)
        _drive(sage, 5)
        sage.close()
        telemetry = Telemetry()
        recovered = _build(
            "batched", telemetry=telemetry, wal_dir=tmp_path, snapshot_every=2
        )
        report = recovered.recover(_pipes())
        # A snapshot restore leaves its marker event.
        snapshot_events = telemetry.tracer.find_events("recover.snapshot")
        assert len(snapshot_events) == 1
        assert snapshot_events[0].args["hour"] == report.snapshot_hour

        described = report.describe(telemetry)
        assert f"replayed {report.replayed_hours} WAL hour(s)" in described
        if report.digests_verified:
            assert f"verified {report.digests_verified} commit digest(s)" in described
        report_events = telemetry.tracer.find_events("recover.report")
        assert len(report_events) == 1
        assert report_events[0].args["replayed_hours"] == report.replayed_hours
        assert report_events[0].args["digests_verified"] == report.digests_verified
        recovered.close()

    def test_describe_without_telemetry_is_pure(self):
        from repro.core.durability import RecoveryReport

        report = RecoveryReport(
            snapshot_hour=None,
            snapshots_skipped=0,
            replayed_hours=2,
            hours_committed=2,
            clock_hours=2.0,
            wal_records=2,
            truncated_tail=False,
            fresh_pipelines=0,
            digests_verified=2,
        )
        assert "verified 2 commit digest(s)" in report.describe()

    def test_armed_fault_trip_is_traced(self, tmp_path):
        telemetry = Telemetry()
        sage = _build("batched", telemetry=telemetry, wal_dir=tmp_path)
        for pipeline, config in _pipes():
            sage.submit(pipeline, config)
        with pytest.raises(faults.InjectedCrash):
            with faults.armed_crash("hour.after_commit"):
                sage.advance(1.0)
        trips = telemetry.tracer.find_events("fault.trip")
        assert [e.args["point"] for e in trips] == ["hour.after_commit"]
        assert (
            telemetry.metrics.counter_value(
                "sage_fault_trips_total", point="hour.after_commit"
            )
            == 1
        )
        sage.close()
