"""Exporters: deterministic JSON, Prometheus text, Chrome trace JSON.

All three render from the registry's :meth:`~repro.obs.metrics.
MetricsRegistry.snapshot` and the tracer's span/event lists, so two runs
that emitted the same telemetry produce byte-identical exports (sorted
keys, ``repr`` float round-tripping, no timestamps beyond the logical
clock).  The Chrome trace document loads directly in Perfetto /
``chrome://tracing``: spans become ``ph: "X"`` complete events with the
tick clock as microseconds, instants become ``ph: "i"`` markers, and the
drive phase (the dotted-name prefix) becomes the category.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List

__all__ = [
    "chrome_trace",
    "render_chrome_trace",
    "render_json",
    "render_prometheus",
    "write_chrome_trace",
]


def render_json(metrics) -> str:
    """The registry snapshot as canonical JSON (sorted keys, trailing
    newline) -- the ``repro obs-report`` default output."""
    return json.dumps(metrics.snapshot(), sort_keys=True, indent=2) + "\n"


def _format_number(value) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    as_float = float(value)
    if as_float.is_integer():
        return str(int(as_float))
    return repr(as_float)


def render_prometheus(metrics) -> str:
    """The registry snapshot in the Prometheus text exposition format."""
    snapshot = metrics.snapshot()
    lines: List[str] = []
    typed = set()

    def type_line(rendered_key: str, kind: str) -> None:
        name = rendered_key.split("{", 1)[0]
        if name not in typed:
            typed.add(name)
            lines.append(f"# TYPE {name} {kind}")

    for key, value in snapshot["counters"].items():
        type_line(key, "counter")
        lines.append(f"{key} {_format_number(value)}")
    for key, value in snapshot["gauges"].items():
        type_line(key, "gauge")
        lines.append(f"{key} {_format_number(value)}")
    for key, hist in snapshot["histograms"].items():
        name, _, labels = key.partition("{")
        labels = labels[:-1] if labels else ""
        type_line(name, "histogram")
        for bound, count in hist["buckets"].items():
            inner = f'{labels},le="{bound}"' if labels else f'le="{bound}"'
            lines.append(f"{name}_bucket{{{inner}}} {_format_number(count)}")
        suffix = f"{{{labels}}}" if labels else ""
        lines.append(f"{name}_sum{suffix} {_format_number(hist['sum'])}")
        lines.append(f"{name}_count{suffix} {_format_number(hist['count'])}")
    return "\n".join(lines) + "\n"


def chrome_trace(tracer) -> dict:
    """The tracer's records as a Chrome trace-event document (dict form).

    Exports the logical ``start`` / ``end`` / ``ts`` fields only, so a
    tracer's document is byte-identical across runs; pass
    :func:`~repro.obs.analyze.wall_view` of it to export the wall-clock
    profile instead.  One process, one thread: the drive is serial by design, so ``pid`` /
    ``tid`` are constant and nesting is carried by ``args.parent`` (and
    by the ts/dur containment Perfetto renders from).
    """
    events = []
    for span in tracer.spans:
        args = {"hour": span.hour, "parent": span.parent_id}
        args.update(span.args)
        events.append(
            {
                "name": span.name,
                "cat": span.category,
                "ph": "X",
                "ts": span.start,
                "dur": span.duration,
                "pid": 1,
                "tid": 1,
                "id": span.span_id,
                "args": args,
            }
        )
    for event in tracer.events:
        args = {"hour": event.hour}
        args.update(event.args)
        events.append(
            {
                "name": event.name,
                "cat": event.category,
                "ph": "i",
                "s": "t",
                "ts": event.ts,
                "pid": 1,
                "tid": 1,
                "id": event.event_id,
                "args": args,
            }
        )
    # One timeline: Perfetto sorts by ts, and emission ids break ties
    # deterministically.
    events.sort(key=lambda e: (e["ts"], e["id"]))
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def render_chrome_trace(tracer) -> str:
    return json.dumps(chrome_trace(tracer), sort_keys=True, indent=2) + "\n"


def write_chrome_trace(tracer, path) -> Path:
    """Write the Chrome trace JSON atomically (tmp + ``os.replace``)."""
    import os

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(render_chrome_trace(tracer), encoding="utf-8")
    os.replace(tmp, path)
    return path
