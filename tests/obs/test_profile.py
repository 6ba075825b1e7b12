"""Wall-clock profiling: one span record, two clocks.

Every tracer record carries a logical tick and a wall reading; a profile
is the same records read through :func:`repro.obs.analyze.wall_view`.
Wall time itself is not replayable, so most tests here inject a manually
stepped wall clock -- wall durations become exact and the span mechanics
(nesting, the analytics over a wall view)
are assertable to the microsecond.
"""

import inspect
import time

from repro.core.platform import Sage
from repro.obs import Telemetry, Tracer, chrome_trace, render_chrome_trace
from repro.obs.analyze import (
    collapsed_stacks,
    load_chrome_trace,
    phase_breakdown,
    render_breakdown,
    self_times,
    span_tree_shape,
    wall_view,
)
from repro.workload.oracle import CountStreamSource


class ManualClock:
    """A wall clock the test advances by hand (microseconds)."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _tracer():
    clock = ManualClock()
    return Tracer(wall_clock=clock), clock


def _tick_key(tracer):
    return (
        [
            (s.span_id, s.parent_id, s.name, s.start, s.end, s.hour)
            for s in tracer.spans
        ],
        [(e.event_id, e.name, e.ts, e.hour) for e in tracer.events],
    )


def _emit(tracer, clock=None):
    """One small hour; steps ``clock`` (when given) between readings."""

    def step(now):
        if clock is not None:
            clock.now = now

    tracer.hour = 0
    with tracer.span("advance.hour"):
        step(100.0)
        with tracer.span("session.drive", session="p0"):
            step(130.0)
        tracer.event("charge.granted", session="p0")
        step(150.0)
        with tracer.span("session.drive", session="p1"):
            step(160.0)
        step(400.0)


class TestWallClock:
    def test_reads_perf_counter_in_microseconds(self):
        tracer = Tracer()
        before = time.perf_counter() * 1e6
        with tracer.span("x") as span:
            pass
        after = time.perf_counter() * 1e6
        assert before <= span.wall_start <= span.wall_end <= after

    def test_injected_wall_clock_replaces_perf_counter(self):
        tracer, clock = _tracer()
        clock.now = 42.0
        with tracer.span("x") as span:
            clock.now = 50.0
        assert (span.wall_start, span.wall_end) == (42.0, 50.0)
        assert tracer.event("e").wall_ts == 50.0

    def test_wall_readings_never_touch_the_ticks(self):
        # The same emission sequence under two different wall clocks:
        # the logical records are identical, and so is the exported
        # deterministic artifact.
        bare = Tracer()
        _emit(bare)
        stepped, clock = _tracer()
        _emit(stepped, clock)
        assert _tick_key(bare) == _tick_key(stepped)
        assert render_chrome_trace(bare) == render_chrome_trace(stepped)


class TestSpanMechanics:
    def test_nested_spans_carry_exact_wall_durations(self):
        tracer, clock = _tracer()
        tracer.hour = 3
        with tracer.span("advance.hour", mode="volatile"):
            clock.now = 100.0
            with tracer.span("advance.open"):
                clock.now = 130.0
            clock.now = 150.0
            with tracer.span("session.drive", session="p0"):
                clock.now = 160.0
            clock.now = 400.0
        hour = tracer.find_spans("advance.hour")[0]
        assert hour.wall_duration == 400.0
        assert hour.hour == 3 and hour.args == {"mode": "volatile"}
        assert tracer.find_spans("advance.open")[0].wall_duration == 30.0
        assert tracer.find_spans("session.drive")[0].wall_duration == 10.0
        # Children parent under the hour span; close order holds.
        assert all(
            s.parent_id == hour.span_id for s in tracer.spans if s is not hour
        )
        assert tracer.span_names() == [
            "advance.open",
            "session.drive",
            "advance.hour",
        ]

    def test_duration_and_args_stay_on_the_one_record(self):
        tracer, clock = _tracer()
        with tracer.span("wal.fsync", records=3) as span:
            clock.now = 500.0
            span.set(bytes=128)
        assert tracer.spans == [span]
        assert span.args == {"records": 3, "bytes": 128}
        # ``duration`` (read by the fsync-tick histogram) is logical:
        # the tick clock read twice gives exactly 1 tick.
        assert span.duration == 1.0
        assert span.wall_duration == 500.0

    def test_events_carry_both_readings(self):
        tracer, clock = _tracer()
        clock.now = 75.0
        record = tracer.event("charge.granted", session="p0")
        assert tracer.events == [record]
        assert (record.ts, record.wall_ts) == (1.0, 75.0)
        assert record.args == {"session": "p0"}

    def test_reprs_show_ticks_only(self):
        tracer, clock = _tracer()
        clock.now = 12345.5
        with tracer.span("x") as span:
            pass
        event = tracer.event("e")
        assert "12345.5" not in repr(span) and "wall" not in repr(span)
        assert "12345.5" not in repr(event) and "wall" not in repr(event)

    def test_hour_stamps_every_record(self):
        tracer, _ = _tracer()
        tracer.hour = 7
        with tracer.span("x"):
            tracer.event("e")
        assert tracer.spans[0].hour == 7 and tracer.events[0].hour == 7


class TestWallView:
    def test_moves_wall_readings_into_the_timeline(self):
        tracer, clock = _tracer()
        _emit(tracer, clock)
        view = wall_view(tracer)
        assert [(s.start, s.end) for s in view.spans] == [
            (100.0, 130.0),
            (150.0, 160.0),
            (0.0, 400.0),
        ]
        assert [e.ts for e in view.events] == [130.0]
        assert [s.duration for s in view.spans] == [
            s.wall_duration for s in tracer.spans
        ]

    def test_keeps_ids_nesting_hours_and_a_copy_of_the_args(self):
        tracer, clock = _tracer()
        _emit(tracer, clock)
        view = wall_view(tracer)
        key = lambda s: (s.span_id, s.parent_id, s.name, s.hour, s.args)
        assert [key(s) for s in view.spans] == [key(s) for s in tracer.spans]
        view.spans[0].args["extra"] = 1
        assert "extra" not in tracer.spans[0].args

    def test_is_idempotent(self):
        tracer, clock = _tracer()
        _emit(tracer, clock)
        once = wall_view(tracer)
        twice = wall_view(once)
        assert span_tree_shape(twice) == span_tree_shape(once)
        assert [(e.event_id, e.ts) for e in twice.events] == [
            (e.event_id, e.ts) for e in once.events
        ]

    def test_round_trips_through_chrome_trace(self):
        tracer, clock = _tracer()
        _emit(tracer, clock)
        view = wall_view(tracer)
        loaded = load_chrome_trace(chrome_trace(view))
        assert span_tree_shape(loaded) == span_tree_shape(view)
        assert [(e.name, e.ts, e.args) for e in loaded.events] == [
            (e.name, e.ts, e.args) for e in view.events
        ]


class TestWallAnalytics:
    def _hour(self):
        """An hour whose charge batch takes 110us of its 400us wall."""
        tracer, clock = _tracer()
        with tracer.span("advance.hour"):
            clock.now = 100.0
            with tracer.span("charge.batch"):
                clock.now = 210.0
            clock.now = 400.0
        return tracer

    def test_per_name_breakdown(self):
        tracer, clock = _tracer()
        _emit(tracer, clock)
        rows = {r.name: r for r in phase_breakdown(wall_view(tracer))}
        drive = rows["session.drive"]
        assert (drive.count, drive.total, drive.self_time) == (2, 40.0, 40.0)
        hour = rows["advance.hour"]
        assert (hour.count, hour.total, hour.self_time) == (1, 400.0, 360.0)
        assert drive.share == 0.1

    def test_collapsed_stacks_weigh_frames_by_wall_self_time(self):
        lines = collapsed_stacks(wall_view(self._hour())).splitlines()
        assert lines == ["advance.hour 290", "advance.hour;charge.batch 110"]

    def test_overlapping_child_walls_clamp_parent_self_time(self):
        tracer, clock = _tracer()
        with tracer.span("staging.commit"):
            clock.now = 40.0
            # Two children whose wall intervals are moved back to overlap:
            # together they out-sum the parent.  Self time clamps at
            # zero, never negative.
            for name in ("charge.batch", "wal.append"):
                with tracer.span(name) as span:
                    pass
                span.wall_start = span.wall_end - 30.0
        view = wall_view(tracer)
        commit = view.find_spans("staging.commit")[0]
        assert self_times(view)[commit.span_id] == 0.0
        children = view.find_spans("charge.batch") + view.find_spans("wal.append")
        assert sum(s.duration for s in children) == 60.0

    def test_render_breakdown_of_a_wall_view(self):
        text = render_breakdown(wall_view(self._hour()))
        assert "advance.hour" in text and "charge.batch" in text
        assert "hour coverage" in text
        # Largest self time renders first (after the header): the hour's
        # 290us outside the batch.
        assert text.splitlines()[1].startswith("advance.hour")


def _option_names(fn):
    return [
        p.name
        for p in inspect.signature(fn).parameters.values()
        if p.name != "self"
    ]


class TestTelemetryWiring:
    def test_three_options_across_the_stack(self):
        assert _option_names(Telemetry) == ["metrics"]
        assert _option_names(Tracer) == ["clock", "wall_clock"]

    def test_platform_components_share_the_one_tracer(self, tmp_path):
        telemetry = Telemetry()
        sage = Sage(
            CountStreamSource(4000, scale=1000),
            seed=5,
            telemetry=telemetry,
            wal_dir=tmp_path,
        )
        sage.advance(1.0)
        assert sage._tracer is telemetry.tracer
        assert sage.access.accountant._tracer is telemetry.tracer
        assert sage._wal._tracer is telemetry.tracer
        sage.close()
