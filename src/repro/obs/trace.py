"""Deterministic tracing: logical spans and instant events.

The tracer exists to make the hourly drive *replayable*: two runs of the
same workload must emit byte-identical traces, and a traced run must stay
byte-identical to an untraced one.  Both properties fall out of two
choices:

* **Logical time.**  Timestamps come from an injected clock; the default
  :class:`TickClock` is a monotonic counter that advances by one on every
  read, so span ordering and durations are pure functions of the emission
  order.  Injecting ``time.perf_counter`` (scaled) turns the same spans
  into real wall-clock profiles for production use -- nothing else
  changes.
* **Serial emission.**  Instrumentation sites live only on the drive's
  serial coordination points (the platform never emits from inside a
  worker thread), so the emission order -- and therefore every tick -- is
  deterministic.  Per-shard validation spans, for example, are emitted at
  the serial commit point from the batch's per-shard footprint rather
  than from the validation pool.

Span identifiers are a plain counter (no UUIDs, no PIDs), the ``hour``
field is the platform's committed-hour index at emission time, and the
tracer never feeds anything back into the code it observes -- the
accounting trajectory cannot depend on whether tracing is on.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

__all__ = ["Event", "NULL_PROBE", "NullProbe", "Span", "TickClock", "Tracer"]


class TickClock:
    """Monotonic logical clock: every read advances time by one tick."""

    __slots__ = ("_now",)

    def __init__(self) -> None:
        self._now = 0.0

    def __call__(self) -> float:
        now = self._now + 1.0
        self._now = now
        return now


class Span:
    """One closed phase of the drive (``ph: "X"`` in Chrome trace terms).

    The record doubles as its own ``with`` handle: :meth:`Tracer.span`
    builds it (IDs assigned, start unread) and entering the block reads
    the start tick, so no separate scope object is allocated.  Span
    emission sits on the per-session hot path of the hourly drive --
    slots and a fused handle keep a span to roughly a microsecond.
    """

    __slots__ = (
        "span_id",
        "parent_id",
        "name",
        "start",
        "end",
        "hour",
        "args",
        "_tracer",
    )

    def __init__(
        self,
        span_id: int,
        parent_id: Optional[int],
        name: str,
        start: float,
        end: float,
        hour: int,
        args: Optional[Dict[str, object]] = None,
        tracer: Optional["Tracer"] = None,
    ) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = start
        self.end = end
        self.hour = hour
        self.args = {} if args is None else args
        self._tracer = tracer

    def __enter__(self) -> "Span":
        tracer = self._tracer
        self.start = tracer._clock()
        tracer._open.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        tracer = self._tracer
        tracer._open.pop()
        self.end = tracer._clock()
        tracer.spans.append(self)
        return False

    def __repr__(self) -> str:
        return (
            f"Span(span_id={self.span_id}, parent_id={self.parent_id}, "
            f"name={self.name!r}, start={self.start}, end={self.end}, "
            f"hour={self.hour}, args={self.args})"
        )

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def category(self) -> str:
        """Dotted-name prefix, e.g. ``wal.fsync`` -> ``wal``."""
        return self.name.split(".", 1)[0]

    def set(self, **args: object) -> None:
        """Attach result arguments discovered while the span is open."""
        self.args.update(args)


class Event:
    """One instant marker (``ph: "i"`` in Chrome trace terms)."""

    __slots__ = ("event_id", "name", "ts", "hour", "args")

    def __init__(
        self,
        event_id: int,
        name: str,
        ts: float,
        hour: int,
        args: Optional[Dict[str, object]] = None,
    ) -> None:
        self.event_id = event_id
        self.name = name
        self.ts = ts
        self.hour = hour
        self.args = {} if args is None else args

    def __repr__(self) -> str:
        return (
            f"Event(event_id={self.event_id}, name={self.name!r}, "
            f"ts={self.ts}, hour={self.hour}, args={self.args})"
        )

    @property
    def category(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Collects spans and events with counter IDs and an injected clock.

    ``spans`` holds closed spans in close order; ``events`` holds instants
    in emission order.  ``hour`` is ambient context -- the platform sets
    it to the committed-hour index at the top of every ``advance`` (and to
    the replayed hour during recovery), so every record carries the hour
    it belongs to without threading an argument through each call site.
    """

    def __init__(self, clock: Optional[Callable[[], float]] = None) -> None:
        self._clock = clock if clock is not None else TickClock()
        self._next_id = 0
        self._open: List[Span] = []
        self.spans: List[Span] = []
        self.events: List[Event] = []
        self.hour = -1

    # ------------------------------------------------------------------
    def span(self, name: str, **args: object) -> Span:
        """Open a span around a ``with`` block; closes even on error.

        The ``with`` target is the :class:`Span`, so the block can attach
        result arguments via :meth:`Span.set` before it closes.  The start
        tick reads on block entry; the parent is whatever span is open at
        build time (build and entry are always adjacent at the call sites).
        """
        self._next_id += 1
        return Span(
            self._next_id,
            self._open[-1].span_id if self._open else None,
            name,
            0.0,
            0.0,
            self.hour,
            args,
            self,
        )

    def event(self, name: str, **args: object) -> Event:
        """Record an instant event at the current clock reading."""
        self._next_id += 1
        record = Event(
            event_id=self._next_id,
            name=name,
            ts=self._clock(),
            hour=self.hour,
            args=args,
        )
        self.events.append(record)
        return record

    # ------------------------------------------------------------------
    def span_names(self) -> List[str]:
        return [span.name for span in self.spans]

    def event_names(self) -> List[str]:
        return [event.name for event in self.events]

    def find_spans(self, name: str) -> List[Span]:
        return [span for span in self.spans if span.name == name]

    def find_events(self, name: str) -> List[Event]:
        return [event for event in self.events if event.name == name]


class NullProbe:
    """The disabled telemetry handle: the tracer's emission surface, inert.

    An untraced platform hands this object to every instrumented component
    where a traced one hands its :class:`Tracer` (or the profiler tee,
    :class:`~repro.obs.profile.Probe`), so each emission site is written
    once, unconditionally.  ``span`` returns the probe itself as the
    ``with`` handle, ``event`` and ``set`` record nothing, and ``hour``
    ignores writes.  Use the shared :data:`NULL_PROBE` instance.
    """

    __slots__ = ()

    @property
    def hour(self) -> int:
        return -1

    @hour.setter
    def hour(self, value: int) -> None:
        pass

    def span(self, name: str, **args: object) -> "NullProbe":
        return self

    def event(self, name: str, **args: object) -> None:
        return None

    def set(self, **args: object) -> None:
        pass

    def __enter__(self) -> "NullProbe":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


#: The one no-op probe every untraced component shares.
NULL_PROBE = NullProbe()
