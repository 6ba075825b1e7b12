"""Span-tree analytics over any trace or profile.

Everything here operates on a *span source* -- any object with ``spans``
(closed :class:`~repro.obs.trace.Span` records) and ``events`` lists:
the deterministic :class:`~repro.obs.trace.Tracer`, the wall-clock
:class:`~repro.obs.profile.WallProfiler`, or a :class:`LoadedTrace`
parsed back from an exported artifact.  The queries are the ones the
perf work actually needs:

* :func:`span_forest` / :func:`self_times` -- the nesting tree and the
  self-vs-child time rollup (self time clamps at zero: children
  synthesized via ``record_span`` are placed where they were recorded,
  not where they ran);
* :func:`critical_path` -- per hour-root, the max-duration child chain,
  i.e. where an hour's wall time concentrates;
* :func:`phase_breakdown` / :func:`hour_coverage` -- the per-phase table
  and the fraction of root time explained by instrumented children;
* :func:`diff_profiles` -- two runs side by side, per span name;
* :func:`collapsed_stacks` / :func:`load_collapsed` -- the flamegraph
  exporter (Brendan Gregg's collapsed-stack format, one
  ``root;child;leaf <self-weight>`` line per tree node) and its inverse;
* :func:`load_chrome_trace` -- the Chrome trace-event exporter's inverse.

Both loaders are tested as round trips: a Chrome trace document loads
back into the same span tree (:func:`span_tree_shape` equality), and
``collapsed_stacks(load_collapsed(text)) == text`` exactly (weights are
integer microseconds, so the synthetic layout's float arithmetic is
exact).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.obs.trace import Event, Span

__all__ = [
    "LoadedTrace",
    "PhaseRow",
    "SpanNode",
    "collapsed_stacks",
    "critical_path",
    "diff_profiles",
    "hour_coverage",
    "load_chrome_trace",
    "load_collapsed",
    "phase_breakdown",
    "render_breakdown",
    "render_critical_path",
    "render_diff",
    "self_times",
    "span_forest",
    "span_tree_shape",
    "write_collapsed",
]


class LoadedTrace:
    """A span source reconstructed from an exported artifact."""

    def __init__(
        self, spans: List[Span], events: Optional[List[Event]] = None
    ) -> None:
        self.spans = spans
        self.events = events if events is not None else []

    def span_names(self) -> List[str]:
        return [span.name for span in self.spans]

    def find_spans(self, name: str) -> List[Span]:
        return [span for span in self.spans if span.name == name]


@dataclass
class SpanNode:
    """One span plus its nested children (ordered by start, then id)."""

    span: Span
    children: List["SpanNode"] = field(default_factory=list)


def span_forest(source) -> List[SpanNode]:
    """The source's spans as parent-linked trees, roots first-to-last."""
    nodes = {span.span_id: SpanNode(span) for span in source.spans}
    roots: List[SpanNode] = []
    for span in source.spans:
        node = nodes[span.span_id]
        parent = nodes.get(span.parent_id) if span.parent_id is not None else None
        if parent is not None:
            parent.children.append(node)
        else:
            roots.append(node)
    order = lambda n: (n.span.start, n.span.span_id)
    for node in nodes.values():
        node.children.sort(key=order)
    roots.sort(key=order)
    return roots


def self_times(source) -> Dict[int, float]:
    """Per ``span_id``: duration minus child time, clamped at zero."""
    child_sum: Dict[int, float] = {}
    for span in source.spans:
        if span.parent_id is not None:
            child_sum[span.parent_id] = (
                child_sum.get(span.parent_id, 0.0) + span.duration
            )
    return {
        span.span_id: max(0.0, span.duration - child_sum.get(span.span_id, 0.0))
        for span in source.spans
    }


def span_tree_shape(source) -> tuple:
    """The forest as a canonical nested tuple -- loader round-trip tests
    compare shapes, not list order or id assignment."""

    def shape(node: SpanNode) -> tuple:
        span = node.span
        return (
            span.name,
            span.start,
            span.end,
            span.hour,
            tuple(sorted(span.args.items())),
            tuple(shape(child) for child in node.children),
        )

    return tuple(shape(root) for root in span_forest(source))


def critical_path(source, root_name: str = "advance.hour") -> List[List[Span]]:
    """Per ``root_name`` span: the chain of max-duration children.

    The path answers "what would I have to shrink to shrink this hour":
    each step descends into the child span that contributed the most
    time, until a leaf.  Returns one path (root first) per matching
    span, in start order.
    """
    paths = []
    for root in span_forest(source):
        stack = [root]
        while stack:
            node = stack.pop()
            if node.span.name == root_name:
                path = [node.span]
                cursor = node
                while cursor.children:
                    cursor = max(
                        cursor.children,
                        key=lambda c: (c.span.duration, -c.span.span_id),
                    )
                    path.append(cursor.span)
                paths.append(path)
            else:
                stack.extend(reversed(node.children))
    return paths


@dataclass
class PhaseRow:
    """One span name's share of a run (units follow the source clock)."""

    name: str
    count: int
    total: float
    self_time: float
    share: float  # of summed root duration


def phase_breakdown(source) -> List[PhaseRow]:
    """Per-phase rollup, largest self time first.

    ``share`` is self time over the summed duration of root spans --
    across all rows it sums to ~1.0 when every root's subtree nests
    cleanly (clamping and synthesized children can push it either way,
    which is exactly what :func:`hour_coverage` quantifies).
    """
    selfs = self_times(source)
    groups: Dict[str, List[Span]] = {}
    root_total = 0.0
    for span in source.spans:
        groups.setdefault(span.name, []).append(span)
        if span.parent_id is None:
            root_total += span.duration
    rows = [
        PhaseRow(
            name=name,
            count=len(spans),
            total=sum(s.duration for s in spans),
            self_time=sum(selfs.get(s.span_id, 0.0) for s in spans),
            share=(
                sum(selfs.get(s.span_id, 0.0) for s in spans) / root_total
                if root_total > 0
                else 0.0
            ),
        )
        for name, spans in groups.items()
    ]
    rows.sort(key=lambda r: (-r.self_time, r.name))
    return rows


def hour_coverage(source, root_name: str = "advance.hour") -> float:
    """Fraction of ``root_name`` time explained by instrumented children.

    ``1 - self(root) / total(root)``: the acceptance gate for the
    profiler is that a contention hour's breakdown covers >= 90% of the
    measured hour, i.e. the hour span spends at most 10% of its wall
    time outside every child span.  Returns 0.0 when no root spans
    matched (nothing measured means nothing covered).
    """
    selfs = self_times(source)
    total = unexplained = 0.0
    for span in source.spans:
        if span.name == root_name:
            total += span.duration
            unexplained += selfs.get(span.span_id, 0.0)
    if total <= 0.0:
        return 0.0
    return 1.0 - unexplained / total


@dataclass
class DiffRow:
    """One span name across two runs (``ratio`` is b over a)."""

    name: str
    count_a: int
    count_b: int
    total_a: float
    total_b: float
    delta: float
    ratio: float


def diff_profiles(a, b) -> List[DiffRow]:
    """Per-name totals of two span sources side by side.

    Names missing from one side appear with zero count/total there
    (ratio is ``inf`` for new phases, 0 for vanished ones); rows come
    sorted by absolute delta, biggest movement first.
    """

    def totals(source) -> Dict[str, Tuple[int, float]]:
        acc: Dict[str, Tuple[int, float]] = {}
        for span in source.spans:
            count, total = acc.get(span.name, (0, 0.0))
            acc[span.name] = (count + 1, total + span.duration)
        return acc

    ta, tb = totals(a), totals(b)
    rows = []
    for name in sorted(set(ta) | set(tb)):
        count_a, total_a = ta.get(name, (0, 0.0))
        count_b, total_b = tb.get(name, (0, 0.0))
        ratio = (total_b / total_a) if total_a > 0 else float("inf")
        rows.append(
            DiffRow(
                name=name,
                count_a=count_a,
                count_b=count_b,
                total_a=total_a,
                total_b=total_b,
                delta=total_b - total_a,
                ratio=ratio,
            )
        )
    rows.sort(key=lambda r: (-abs(r.delta), r.name))
    return rows


# ----------------------------------------------------------------------
# Collapsed-stack flamegraphs
# ----------------------------------------------------------------------

_FRAME_SHARD = re.compile(r"^(?P<name>.+) \[shard (?P<shard>\d+)\]$")


def _frame_label(span: Span) -> str:
    """A span's flamegraph frame: the name, plus the shard when tagged --
    so per-shard attribution survives into the flamegraph."""
    shard = span.args.get("shard")
    if shard is None:
        return span.name
    return f"{span.name} [shard {int(shard)}]"


def collapsed_stacks(source) -> str:
    """The source as collapsed stacks: ``root;child;leaf <self-weight>``.

    One line per tree node (self weight in integer microseconds, zero
    included -- zero-weight frames keep the tree shape round-trippable),
    identical stacks merged, lines sorted -- the exact input
    ``flamegraph.pl`` / speedscope / inferno expect.
    """
    selfs = self_times(source)
    weights: Dict[str, int] = {}

    def walk(node: SpanNode, prefix: str) -> None:
        stack = (
            f"{prefix};{_frame_label(node.span)}"
            if prefix
            else _frame_label(node.span)
        )
        weight = int(round(selfs.get(node.span.span_id, 0.0)))
        weights[stack] = weights.get(stack, 0) + weight
        for child in node.children:
            walk(child, stack)

    for root in span_forest(source):
        walk(root, "")
    return "".join(
        f"{stack} {weights[stack]}\n" for stack in sorted(weights)
    )


def write_collapsed(source, path) -> Path:
    """Write the collapsed stacks atomically (tmp + ``os.replace``)."""
    import os

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(collapsed_stacks(source), encoding="utf-8")
    os.replace(tmp, path)
    return path


class _StackNode:
    __slots__ = ("self_weight", "children")

    def __init__(self) -> None:
        self.self_weight = 0
        self.children: Dict[str, "_StackNode"] = {}


def load_collapsed(text: Union[str, Path]) -> LoadedTrace:
    """Parse collapsed stacks back into a synthetic span source.

    Aggregation is lossy by design (per-stack totals, not individual
    spans), so the reconstruction lays each stack out once: children
    first, the node's own self weight last, all in integer microseconds
    from zero -- a canonical layout under which
    ``collapsed_stacks(load_collapsed(text)) == text`` exactly.
    """
    if isinstance(text, Path):
        text = text.read_text(encoding="utf-8")
    root = _StackNode()
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        stack, _, weight = line.rpartition(" ")
        node = root
        for frame in stack.split(";"):
            node = node.children.setdefault(frame, _StackNode())
        node.self_weight += int(weight)

    spans: List[Span] = []
    counter = [0]

    def emit(frame: str, node: _StackNode, start: float, parent: Optional[int]) -> float:
        counter[0] += 1
        span_id = counter[0]
        match = _FRAME_SHARD.match(frame)
        if match is not None:
            name = match.group("name")
            args: Dict[str, object] = {"shard": int(match.group("shard"))}
        else:
            name, args = frame, {}
        cursor = start
        children_of = node.children
        for child_frame in sorted(children_of):
            cursor = emit(child_frame, children_of[child_frame], cursor, span_id)
        end = cursor + node.self_weight
        # Recursion appended the children first, so the list lands in
        # close order like a live tracer's.
        spans.append(Span(span_id, parent, name, start, end, -1, args))
        return end

    cursor = 0.0
    for frame in sorted(root.children):
        cursor = emit(frame, root.children[frame], cursor, None)
    return LoadedTrace(spans)


# ----------------------------------------------------------------------
# Chrome trace loader
# ----------------------------------------------------------------------

def load_chrome_trace(document: Union[str, Path, dict]) -> LoadedTrace:
    """Parse a Chrome trace-event document back into a span source.

    Accepts the dict :func:`~repro.obs.export.chrome_trace` returns, its
    JSON text, or a path to it.  ``ph: "X"`` entries become spans
    (nesting restored from ``args.parent``), ``ph: "i"`` entries become
    events; everything else in ``args`` returns to ``span.args``.  The
    round trip preserves the tree exactly:
    ``span_tree_shape(load_chrome_trace(chrome_trace(t))) ==
    span_tree_shape(t)``.
    """
    if isinstance(document, Path):
        document = json.loads(document.read_text(encoding="utf-8"))
    elif isinstance(document, str):
        document = json.loads(document)
    spans: List[Span] = []
    events: List[Event] = []
    for entry in document.get("traceEvents", []):
        args = dict(entry.get("args", {}))
        hour = args.pop("hour", -1)
        if entry.get("ph") == "X":
            parent = args.pop("parent", None)
            spans.append(
                Span(
                    entry["id"],
                    parent,
                    entry["name"],
                    entry["ts"],
                    entry["ts"] + entry["dur"],
                    hour,
                    args,
                )
            )
        elif entry.get("ph") == "i":
            events.append(
                Event(entry["id"], entry["name"], entry["ts"], hour, args)
            )
    # Live tracers hold spans in close order; restore it.
    spans.sort(key=lambda s: (s.end, s.span_id))
    events.sort(key=lambda e: (e.ts, e.event_id))
    return LoadedTrace(spans, events)


# ----------------------------------------------------------------------
# Renderers
# ----------------------------------------------------------------------

def render_breakdown(source, unit_divisor: float = 1e3, unit: str = "ms") -> str:
    """The phase breakdown as a text table (divisor 1e3: us -> ms)."""
    rows = phase_breakdown(source)
    lines = [
        f"{'phase':<28} {'count':>7} {'total':>12} {'self':>12} {'share':>7}"
    ]
    for row in rows:
        lines.append(
            f"{row.name:<28} {row.count:>7} "
            f"{row.total / unit_divisor:>10.2f}{unit} "
            f"{row.self_time / unit_divisor:>10.2f}{unit} "
            f"{row.share * 100:>6.1f}%"
        )
    coverage = hour_coverage(source)
    lines.append(f"{'hour coverage':<28} {coverage * 100:>57.1f}%")
    return "\n".join(lines)


def render_critical_path(
    source, root_name: str = "advance.hour", unit_divisor: float = 1e3,
    unit: str = "ms",
) -> str:
    """Each hour's critical path, one indented chain per hour span."""
    lines = []
    for path in critical_path(source, root_name):
        hour = path[0].hour
        lines.append(f"hour {hour}:")
        for depth, span in enumerate(path):
            lines.append(
                f"{'  ' * (depth + 1)}{span.name:<26} "
                f"{span.duration / unit_divisor:>10.2f}{unit}"
            )
    return "\n".join(lines)


def render_diff(a, b, unit_divisor: float = 1e3, unit: str = "ms") -> str:
    """The per-phase diff of two runs as a text table (b vs a)."""
    rows = diff_profiles(a, b)
    lines = [
        f"{'phase':<28} {'a total':>12} {'b total':>12} {'delta':>12} {'ratio':>7}"
    ]
    for row in rows:
        ratio = f"{row.ratio:>6.2f}x" if row.ratio != float("inf") else "   new "
        lines.append(
            f"{row.name:<28} {row.total_a / unit_divisor:>10.2f}{unit} "
            f"{row.total_b / unit_divisor:>10.2f}{unit} "
            f"{row.delta / unit_divisor:>+10.2f}{unit} {ratio}"
        )
    return "\n".join(lines)
