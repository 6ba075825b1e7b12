"""Telemetry on the live platform: byte parity, the no-op contract, the
span taxonomy of the hourly drive, and traced crash recovery.

The headline property is PR 9's acceptance gate: attaching a
:class:`~repro.obs.Telemetry` must leave the simulation byte-identical
(per-hour state digests and the full protocol fingerprint) on every
drive variant -- sequential, batched, sharded, sharded-sequential, durable.
"""

import pytest

from repro.core import durability, faults
from repro.core.adaptive import AdaptiveConfig
from repro.core.platform import Sage
from repro.core.sharding import sharded_accountant_factory
from repro.obs import NULL_PROBE, Probe, Telemetry, WallProfiler
from repro.obs.analyze import hour_coverage
from repro.workload.oracle import CountStreamSource, OraclePipeline

# Constructor options per drive variant; the "*sequential" variants
# additionally get a per-context policy in _build, which disables staging.
VARIANTS = {
    "sequential": {},
    "batched": {},
    "sharded": {"accountant_factory": sharded_accountant_factory(4)},
    "sharded-sequential": {"accountant_factory": sharded_accountant_factory(4)},
}


def _pipes(n=4):
    return [
        (
            OraclePipeline(name=f"p{i}", n_at_eps1=3_000.0 * (2.0 ** i)),
            AdaptiveConfig(max_attempts=16),
        )
        for i in range(n)
    ]


def _build(variant, telemetry=None, **kwargs):
    sage = Sage(
        CountStreamSource(4000, scale=1000),
        seed=5,
        telemetry=telemetry,
        **VARIANTS[variant],
        **kwargs,
    )
    if variant.endswith("sequential"):
        sage.access.add_context("oracle", 1.0, 1e-6)
    return sage


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


class TestByteParity:
    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_traced_drive_is_byte_identical(self, variant):
        bare = _build(variant)
        bare_digests = _drive(bare, 6)
        telemetry = Telemetry()
        traced = _build(variant, telemetry=telemetry)
        traced_digests = _drive(traced, 6)
        assert traced_digests == bare_digests
        assert telemetry.tracer.spans, "the traced drive must emit spans"
        # The diagnostics stay identical too -- the registry-backed
        # compat properties feed the same numbers either way.
        assert traced.last_hour_charges == bare.last_hour_charges
        traced.close()
        bare.close()

    def test_durable_traced_drive_is_byte_identical(self, tmp_path):
        bare = _build("batched", wal_dir=tmp_path / "bare", snapshot_every=2)
        bare_digests = _drive(bare, 6)
        bare.close()
        telemetry = Telemetry()
        traced = _build(
            "batched",
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
        traces = []
        for _ in range(2):
            telemetry = Telemetry()
            sage = _build("batched", telemetry=telemetry)
            _drive(sage, 4)
            sage.close()
            traces.append(
                [
                    (s.span_id, s.parent_id, s.name, s.start, s.end, s.hour)
                    for s in telemetry.tracer.spans
                ]
            )
        assert traces[0] == traces[1]


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
    def test_sharded_durable_drive_emits_the_full_phase_set(self, tmp_path):
        telemetry = Telemetry()
        sage = _build(
            "sharded", telemetry=telemetry, wal_dir=tmp_path, snapshot_every=2
        )
        _drive(sage, 4)
        sage.close()
        names = set(telemetry.tracer.span_names())
        assert {
            "advance.hour",
            "advance.open",
            "session.drive",
            "charge.batch",
            "shard.validate",
            "shard.commit",
            "staging.commit",
            "wal.append",
            "wal.fsync",
            "wal.commit",
            "snapshot.write",
        } <= names
        events = set(telemetry.tracer.event_names())
        assert {"charge.granted", "reservations.settle"} <= events
        # Hour spans carry the mode; shard spans the shard index.
        hour_spans = telemetry.tracer.find_spans("advance.hour")
        assert all(s.args["mode"] == "durable" for s in hour_spans)
        shards = {s.args["shard"] for s in telemetry.tracer.find_spans("shard.validate")}
        assert shards <= set(range(4)) and shards
        # WAL metrics filled alongside the spans.
        metrics = telemetry.metrics
        assert metrics.counter_value("sage_wal_bytes_total") > 0
        assert metrics.counter_value("sage_wal_fsyncs_total") > 0
        assert metrics.counter_value("sage_snapshots_written_total") > 0

    def test_spans_are_emitted_serially_and_nest_under_the_hour(self):
        telemetry = Telemetry()
        sage = _build("sharded", telemetry=telemetry)
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


def _span_key(tracer):
    return [
        (s.span_id, s.parent_id, s.name, s.start, s.end, s.hour)
        for s in tracer.spans
    ]


class TestProfilerParity:
    """PR 10's acceptance gate: profiling observes, never participates.

    A profiled run must stay byte-identical to a bare run, and the
    deterministic tracer's output must not depend on whether a profiler
    rides alongside it.
    """

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_profiled_drive_is_byte_identical(self, variant):
        bare = _build(variant)
        bare_digests = _drive(bare, 6)
        telemetry = Telemetry(profiler=WallProfiler())
        profiled = _build(variant, telemetry=telemetry)
        profiled_digests = _drive(profiled, 6)
        assert profiled_digests == bare_digests
        assert telemetry.profiler.spans, "the profiler must capture spans"
        profiled.close()
        bare.close()

    def test_profiled_durable_wal_bytes_match_bare(self, tmp_path):
        bare = _build("batched", wal_dir=tmp_path / "bare", snapshot_every=2)
        bare_digests = _drive(bare, 6)
        bare.close()
        telemetry = Telemetry(profiler=WallProfiler())
        profiled = _build(
            "batched",
            telemetry=telemetry,
            wal_dir=tmp_path / "profiled",
            snapshot_every=2,
        )
        profiled_digests = _drive(profiled, 6)
        profiled.close()
        assert profiled_digests == bare_digests
        assert (tmp_path / "profiled" / "charge.wal").read_bytes() == (
            tmp_path / "bare" / "charge.wal"
        ).read_bytes()

    def test_tracer_output_is_identical_with_and_without_a_profiler(self):
        traced = Telemetry()
        sage = _build("sharded", telemetry=traced)
        _drive(sage, 4)
        sage.close()
        profiled = Telemetry(profiler=WallProfiler())
        sage = _build("sharded", telemetry=profiled)
        _drive(sage, 4)
        sage.close()
        assert _span_key(profiled.tracer) == _span_key(traced.tracer)
        assert [
            (e.event_id, e.name, e.ts, e.hour) for e in profiled.tracer.events
        ] == [(e.event_id, e.name, e.ts, e.hour) for e in traced.tracer.events]

    def test_platform_probe_tees_and_profiler_mirrors_the_taxonomy(self):
        telemetry = Telemetry(profiler=WallProfiler())
        sage = _build("sharded", telemetry=telemetry)
        assert isinstance(sage._tracer, Probe)
        _drive(sage, 4)
        sage.close()
        profiler = telemetry.profiler
        # The profiler records the same span taxonomy on a wall clock...
        assert set(profiler.span_names()) == set(
            telemetry.tracer.span_names()
        )
        assert all(s.duration >= 0.0 for s in profiler.spans)
        # ...decomposes shard validation per shard...
        shards = {
            s.args["shard"] for s in profiler.find_spans("shard.validate")
        }
        assert shards and shards <= set(range(4))
        assert shards == {
            s.args["shard"]
            for s in telemetry.tracer.find_spans("shard.validate")
        }
        # ...and explains most of each hour through child spans.
        assert hour_coverage(profiler) > 0.5

    def test_profiler_spans_stay_out_of_the_tracer(self):
        telemetry = Telemetry(profiler=WallProfiler())
        sage = _build("batched", telemetry=telemetry)
        _drive(sage, 3)
        sage.close()
        tracer_ids = {id(s) for s in telemetry.tracer.spans}
        assert tracer_ids.isdisjoint(id(s) for s in telemetry.profiler.spans)
        # Tick timestamps stay logical on the tracer half even though the
        # profiler half runs on perf_counter.
        ticks = [s.end for s in telemetry.tracer.spans]
        assert all(float(t).is_integer() for t in ticks)


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
