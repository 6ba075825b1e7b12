"""The deterministic tracer: tick clock, span nesting, replayability."""

import inspect

import pytest

from repro.obs import NULL_PROBE, Event, NullProbe, Span, TickClock, Tracer


class TestTickClock:
    def test_every_read_advances_one_tick(self):
        clock = TickClock()
        assert [clock() for _ in range(4)] == [1.0, 2.0, 3.0, 4.0]

    def test_fresh_clock_restarts(self):
        TickClock()()
        assert TickClock()() == 1.0


class TestSpans:
    def test_span_records_name_ticks_and_counter_id(self):
        tracer = Tracer()
        with tracer.span("advance.hour", mode="volatile") as span:
            pass
        assert tracer.spans == [span]
        assert (span.span_id, span.name) == (1, "advance.hour")
        assert (span.start, span.end) == (1.0, 2.0)
        assert span.duration == 1.0
        assert span.args == {"mode": "volatile"}
        assert span.category == "advance"

    def test_nesting_sets_parent_and_closes_inner_first(self):
        tracer = Tracer()
        with tracer.span("advance.hour") as outer:
            with tracer.span("session.drive") as inner:
                pass
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        # Close order: inner lands in the list before the outer.
        assert tracer.spans == [inner, outer]
        assert outer.start < inner.start < inner.end < outer.end

    def test_span_closes_on_exception(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("advance.hour"):
                raise RuntimeError("mid-hour death")
        assert tracer.span_names() == ["advance.hour"]
        assert not tracer._open
        assert tracer.spans[0].end > tracer.spans[0].start

    def test_set_attaches_results_while_open(self):
        tracer = Tracer()
        with tracer.span("advance.open") as span:
            span.set(new_blocks=3)
        assert tracer.spans[0].args == {"new_blocks": 3}

    def test_ambient_hour_stamps_records(self):
        tracer = Tracer()
        tracer.hour = 7
        with tracer.span("advance.hour"):
            tracer.event("charge.granted")
        assert tracer.spans[0].hour == 7
        assert tracer.events[0].hour == 7


class TestEvents:
    def test_event_is_an_instant_with_args(self):
        tracer = Tracer()
        event = tracer.event("fault.trip", point="wal.after_append")
        assert tracer.events == [event]
        assert (event.event_id, event.ts) == (1, 1.0)
        assert event.args == {"point": "wal.after_append"}
        assert event.category == "fault"

    def test_spans_and_events_share_the_id_sequence(self):
        tracer = Tracer()
        with tracer.span("advance.hour") as span:
            event = tracer.event("charge.granted")
        assert (span.span_id, event.event_id) == (1, 2)


class TestDeterminism:
    def emit(self):
        tracer = Tracer()
        for hour in range(3):
            tracer.hour = hour
            with tracer.span("advance.hour"):
                with tracer.span("session.drive", session="p0") as s:
                    tracer.event("charge.granted", epsilon=0.25)
                    s.set(proposals=1)
            tracer.event("reservations.settle", sessions=1)
        return tracer

    def test_two_identical_emissions_are_identical(self):
        a, b = self.emit(), self.emit()
        key = lambda s: (s.span_id, s.parent_id, s.name, s.start, s.end, s.hour, s.args)  # noqa: E731
        assert [key(s) for s in a.spans] == [key(s) for s in b.spans]
        assert [(e.event_id, e.name, e.ts, e.hour, e.args) for e in a.events] == [
            (e.event_id, e.name, e.ts, e.hour, e.args) for e in b.events
        ]

    def test_injected_clock_replaces_ticks(self):
        reads = iter([10.0, 20.0])
        tracer = Tracer(clock=lambda: next(reads))
        with tracer.span("advance.hour") as span:
            pass
        assert (span.start, span.end) == (10.0, 20.0)

    def test_finders(self):
        tracer = self.emit()
        assert len(tracer.find_spans("session.drive")) == 3
        assert len(tracer.find_events("charge.granted")) == 3
        assert tracer.event_names().count("reservations.settle") == 3


class TestRecordBasics:
    def test_span_is_slotted(self):
        span = Span(1, None, "advance.hour", 1.0, 2.0, 0)
        with pytest.raises(AttributeError):
            span.arbitrary = 1

    def test_event_is_slotted(self):
        event = Event(1, "fault.trip", 1.0, 0)
        with pytest.raises(AttributeError):
            event.arbitrary = 1

    def test_reprs_name_the_record(self):
        assert "advance.hour" in repr(Span(1, None, "advance.hour", 1.0, 2.0, 0))
        assert "fault.trip" in repr(Event(1, "fault.trip", 1.0, 0))


def _params(fn):
    return tuple(
        (p.name, p.kind) for p in inspect.signature(fn).parameters.values()
    )


class TestNullProbe:
    def test_null_probe_matches_the_tracer_emission_surface(self):
        """Emission sites call the same surface whether telemetry is off
        (NULL_PROBE) or on (Tracer): same methods with the same
        signatures, span handles with the same ``set`` and ``with``
        protocol, and a writable ambient ``hour``."""
        tracer = Tracer()
        probes = {
            "tracer": tracer,
            "null": NULL_PROBE,
        }
        for method in ("span", "event"):
            signatures = {
                kind: _params(getattr(probe, method))
                for kind, probe in probes.items()
            }
            assert len(set(signatures.values())) == 1, signatures
        handles = {kind: probe.span("x", k=1) for kind, probe in probes.items()}
        signatures = {kind: _params(handle.set) for kind, handle in handles.items()}
        assert len(set(signatures.values())) == 1, signatures
        for handle in handles.values():
            with handle as entered:
                entered.set(done=True)
        for probe in probes.values():
            probe.hour = 3
        assert tracer.hour == 3 and tracer.find_spans("x")[0].args == {
            "k": 1,
            "done": True,
        }
        # The no-op probe offers nothing beyond that surface, and records
        # nothing through it.
        public = {name for name in dir(NullProbe) if not name.startswith("_")}
        assert public == {"span", "event", "hour", "set"}
        assert NULL_PROBE.hour == -1
        assert NULL_PROBE.event("e", k=1) is None
