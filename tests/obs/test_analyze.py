"""Span-tree analytics and the exporter round trips.

The two loader contracts documented in :mod:`repro.obs.analyze` are
golden-tested and property-tested here:

* Chrome trace JSON loads back into the same span tree --
  ``span_tree_shape(load_chrome_trace(chrome_trace(t))) ==
  span_tree_shape(t)`` over arbitrary forests;
* collapsed stacks are a fixed point --
  ``collapsed_stacks(load_collapsed(text)) == text`` exactly.
"""

import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import Event, Span, Tracer, chrome_trace
from repro.obs.analyze import (
    LoadedTrace,
    collapsed_stacks,
    critical_path,
    diff_profiles,
    hour_coverage,
    load_chrome_trace,
    load_collapsed,
    phase_breakdown,
    render_breakdown,
    render_critical_path,
    render_diff,
    self_times,
    span_forest,
    span_tree_shape,
    write_collapsed,
)


def _span(span_id, parent, name, start, end, hour=0, **args):
    return Span(span_id, parent, name, float(start), float(end), hour, args)


def _source(*spans, events=()):
    return LoadedTrace(list(spans), list(events))


def _demo_tracer():
    """A small deterministic drive-shaped trace (tick clock)."""
    tracer = Tracer()
    tracer.hour = 0
    with tracer.span("advance.hour", mode="durable"):
        with tracer.span("advance.open"):
            pass
        tracer.event("charge.granted", session="p0")
        with tracer.span("session.drive", session="p0"):
            with tracer.span("charge.batch", requests=2):
                pass
        with tracer.span("staging.commit"):
            pass
    return tracer


class TestForestAndSelfTimes:
    def test_forest_links_parents_and_orders_children_by_start(self):
        src = _source(
            _span(1, None, "root", 0, 100),
            _span(3, 1, "late", 50, 70),
            _span(2, 1, "early", 10, 30),
        )
        roots = span_forest(src)
        assert len(roots) == 1 and roots[0].span.name == "root"
        assert [c.span.name for c in roots[0].children] == ["early", "late"]

    def test_equal_starts_tie_break_on_span_id(self):
        src = _source(
            _span(1, None, "root", 0, 100),
            _span(3, 1, "b", 10, 30),
            _span(2, 1, "a", 10, 20),
        )
        assert [
            c.span.span_id for c in span_forest(src)[0].children
        ] == [2, 3]

    def test_self_times_subtract_children(self):
        src = _source(
            _span(1, None, "root", 0, 100),
            _span(2, 1, "child", 10, 40),
        )
        selfs = self_times(src)
        assert selfs[1] == 70.0 and selfs[2] == 30.0

    def test_self_times_clamp_at_zero_for_overlapping_children(self):
        # A loaded trace may hold overlapping siblings that out-sum
        # their parent; the parent's self time is zero, not negative.
        src = _source(
            _span(1, None, "staging.commit", 0, 40),
            _span(2, 1, "charge.batch", 0, 30),
            _span(3, 1, "wal.append", 0, 30),
        )
        assert self_times(src)[1] == 0.0

    def test_shape_is_invariant_to_id_assignment_and_list_order(self):
        a = _source(
            _span(1, None, "root", 0, 100),
            _span(2, 1, "child", 10, 40, tag="x"),
        )
        b = _source(
            _span(9, 7, "child", 10, 40, tag="x"),
            _span(7, None, "root", 0, 100),
        )
        assert span_tree_shape(a) == span_tree_shape(b)
        assert span_tree_shape(a) != span_tree_shape(
            _source(_span(1, None, "root", 0, 100))
        )


class TestCriticalPath:
    def test_descends_into_the_longest_child(self):
        src = _source(
            _span(1, None, "advance.hour", 0, 100),
            _span(2, 1, "advance.open", 0, 10),
            _span(3, 1, "session.drive", 10, 90),
            _span(4, 3, "charge.batch", 20, 30),
            _span(5, 3, "charge.batch", 40, 80),
        )
        (path,) = critical_path(src)
        assert [s.name for s in path] == [
            "advance.hour",
            "session.drive",
            "charge.batch",
        ]
        assert path[-1].span_id == 5

    def test_equal_durations_tie_break_on_lower_span_id(self):
        src = _source(
            _span(1, None, "advance.hour", 0, 100),
            _span(2, 1, "a", 0, 50),
            _span(3, 1, "b", 50, 100),
        )
        (path,) = critical_path(src)
        assert path[1].span_id == 2

    def test_one_path_per_matching_root_in_start_order(self):
        src = _source(
            _span(1, None, "advance.hour", 0, 10),
            _span(2, None, "advance.hour", 10, 30),
        )
        paths = critical_path(src)
        assert [p[0].span_id for p in paths] == [1, 2]

    def test_finds_roots_nested_below_other_spans(self):
        src = _source(
            _span(1, None, "recover.run", 0, 100),
            _span(2, 1, "recover.hour", 0, 40),
            _span(3, 2, "charge.batch", 0, 30),
        )
        (path,) = critical_path(src, root_name="recover.hour")
        assert [s.name for s in path] == ["recover.hour", "charge.batch"]


class TestBreakdownAndCoverage:
    def _src(self):
        return _source(
            _span(1, None, "advance.hour", 0, 100),
            _span(2, 1, "session.drive", 0, 60),
            _span(3, 1, "staging.commit", 60, 90),
        )

    def test_rows_sorted_by_self_time_then_name(self):
        rows = phase_breakdown(self._src())
        assert [r.name for r in rows] == [
            "session.drive",
            "staging.commit",
            "advance.hour",
        ]
        drive = rows[0]
        assert (drive.count, drive.total, drive.self_time) == (1, 60.0, 60.0)
        assert drive.share == 0.6

    def test_shares_sum_to_one_on_a_cleanly_nested_tree(self):
        assert math.isclose(
            sum(r.share for r in phase_breakdown(self._src())), 1.0
        )

    def test_coverage_is_explained_fraction_of_the_root(self):
        assert math.isclose(hour_coverage(self._src()), 0.9)

    def test_coverage_zero_when_no_root_matches(self):
        assert hour_coverage(self._src(), root_name="recover.hour") == 0.0
        assert hour_coverage(_source()) == 0.0

    def test_coverage_accepts_alternate_roots(self):
        src = _source(
            _span(1, None, "recover.hour", 0, 50),
            _span(2, 1, "charge.batch", 0, 40),
        )
        assert math.isclose(
            hour_coverage(src, root_name="recover.hour"), 0.8
        )


class TestDiff:
    def test_new_vanished_and_moved_phases(self):
        a = _source(
            _span(1, None, "advance.hour", 0, 100),
            _span(2, 1, "gone", 0, 10),
        )
        b = _source(
            _span(1, None, "advance.hour", 0, 160),
            _span(2, 1, "fresh", 0, 5),
        )
        rows = {r.name: r for r in diff_profiles(a, b)}
        assert rows["fresh"].ratio == float("inf")
        assert rows["fresh"].count_a == 0 and rows["fresh"].total_b == 5.0
        assert rows["gone"].ratio == 0.0 and rows["gone"].count_b == 0
        hour = rows["advance.hour"]
        assert hour.delta == 60.0 and hour.ratio == 1.6
        # Biggest absolute movement first.
        assert diff_profiles(a, b)[0].name == "advance.hour"

    def test_zero_total_phase_on_side_a_is_not_new(self):
        # Side a ran ``x`` for 0us and ``y`` for 5us; side b only ``y``.
        # ``x`` vanished: ratio 0 and no "new" label, though its total
        # on side a is zero.
        a = _source(_span(1, None, "x", 0, 0), _span(2, None, "y", 0, 5))
        b = _source(_span(1, None, "y", 0, 5))
        rows = {r.name: r for r in diff_profiles(a, b)}
        assert rows["x"].count_a == 1 and rows["x"].count_b == 0
        assert rows["x"].ratio == 0.0
        assert rows["y"].ratio == 1.0
        (x_line,) = [
            line for line in render_diff(a, b).splitlines()
            if line.startswith("x ")
        ]
        assert "new" not in x_line and x_line.endswith("0.00x")

    def test_zero_total_phase_on_both_sides_is_unchanged(self):
        a = _source(_span(1, None, "x", 0, 0))
        b = _source(_span(1, None, "x", 3, 3))
        (row,) = diff_profiles(a, b)
        assert row.ratio == 1.0 and row.delta == 0.0
        assert "new" not in render_diff(a, b)


class TestChromeRoundTrip:
    def test_golden_demo_trace_round_trips(self):
        tracer = _demo_tracer()
        doc = chrome_trace(tracer)
        loaded = load_chrome_trace(doc)
        assert span_tree_shape(loaded) == span_tree_shape(tracer)
        assert [s.name for s in loaded.spans] == [s.name for s in tracer.spans]
        assert [
            (e.name, e.ts, e.hour, e.args) for e in loaded.events
        ] == [(e.name, e.ts, e.hour, e.args) for e in tracer.events]

    def test_accepts_json_text_and_paths(self, tmp_path):
        tracer = _demo_tracer()
        doc = chrome_trace(tracer)
        text = json.dumps(doc)
        path = tmp_path / "trace.json"
        path.write_text(text, encoding="utf-8")
        for form in (doc, text, path):
            assert span_tree_shape(load_chrome_trace(form)) == span_tree_shape(
                tracer
            )

    def test_loaded_spans_come_back_in_close_order(self):
        tracer = _demo_tracer()
        loaded = load_chrome_trace(chrome_trace(tracer))
        ends = [s.end for s in loaded.spans]
        assert ends == sorted(ends)


@st.composite
def span_sources(draw):
    """Arbitrary well-formed span forests on an integer clock."""
    n = draw(st.integers(min_value=1, max_value=10))
    spans = []
    for span_id in range(1, n + 1):
        parent = (
            draw(st.sampled_from([None] + [s.span_id for s in spans]))
            if spans
            else None
        )
        start = draw(st.integers(min_value=0, max_value=300))
        duration = draw(st.integers(min_value=0, max_value=300))
        name = draw(
            st.sampled_from(
                ["advance.hour", "session.drive", "charge.batch", "leaf"]
            )
        )
        args = {}
        if draw(st.booleans()):
            args["tag"] = draw(st.integers(min_value=0, max_value=3))
        spans.append(
            Span(
                span_id,
                parent,
                name,
                float(start),
                float(start + duration),
                draw(st.integers(min_value=-1, max_value=2)),
                args,
            )
        )
    spans.sort(key=lambda s: (s.end, s.span_id))
    events = [
        Event(n + 1 + i, "charge.granted", float(i), 0, {"k": i})
        for i in range(draw(st.integers(min_value=0, max_value=2)))
    ]
    return LoadedTrace(spans, events)


class TestRoundTripProperties:
    @settings(max_examples=60, deadline=None)
    @given(span_sources())
    def test_chrome_trace_preserves_the_span_tree(self, source):
        loaded = load_chrome_trace(chrome_trace(source))
        assert span_tree_shape(loaded) == span_tree_shape(source)
        assert [
            (e.name, e.ts, e.hour, e.args) for e in loaded.events
        ] == [(e.name, e.ts, e.hour, e.args) for e in source.events]

    @settings(max_examples=60, deadline=None)
    @given(span_sources())
    def test_collapsed_stacks_are_a_fixed_point(self, source):
        text = collapsed_stacks(source)
        assert collapsed_stacks(load_collapsed(text)) == text


class TestCollapsedStacks:
    def _src(self):
        return _source(
            _span(1, None, "advance.hour", 0, 100),
            _span(2, 1, "staging.commit", 0, 60),
            _span(3, 2, "charge.batch", 0, 20),
            _span(4, 2, "wal.append", 20, 45),
        )

    def test_one_line_per_node_with_self_weights(self):
        lines = collapsed_stacks(self._src()).splitlines()
        assert "advance.hour 40" in lines
        assert "advance.hour;staging.commit 15" in lines
        assert "advance.hour;staging.commit;charge.batch 20" in lines
        assert "advance.hour;staging.commit;wal.append 25" in lines
        assert lines == sorted(lines)

    def test_zero_weight_frames_keep_the_tree_shape(self):
        src = _source(
            _span(1, None, "root", 0, 30),
            _span(2, 1, "all-of-it", 0, 30),
        )
        assert "root 0\n" in collapsed_stacks(src)

    def test_load_restores_per_frame_weights(self):
        loaded = load_collapsed(collapsed_stacks(self._src()))
        assert [s.duration for s in loaded.find_spans("charge.batch")] == [20.0]
        assert [s.duration for s in loaded.find_spans("wal.append")] == [25.0]
        # Aggregate weights survive even though individual spans merge.
        assert sum(s.duration for s in loaded.find_spans("advance.hour")) == 100.0

    def test_identical_stacks_merge(self):
        src = _source(
            _span(1, None, "advance.hour", 0, 10),
            _span(2, None, "advance.hour", 10, 40),
        )
        assert collapsed_stacks(src) == "advance.hour 40\n"

    def test_write_collapsed_is_loadable(self, tmp_path):
        path = write_collapsed(self._src(), tmp_path / "flame.folded")
        assert path.exists()
        text = path.read_text(encoding="utf-8")
        assert collapsed_stacks(load_collapsed(path)) == text


class TestRenderers:
    def test_breakdown_table_has_rows_and_coverage_footer(self):
        tracer = _demo_tracer()
        text = render_breakdown(tracer)
        assert "advance.hour" in text and "session.drive" in text
        assert "hour coverage" in text

    def test_critical_path_lists_each_hour(self):
        text = render_critical_path(_demo_tracer())
        assert text.startswith("hour 0:")
        assert "advance.hour" in text

    def test_diff_marks_new_phases(self):
        a = _source(_span(1, None, "advance.hour", 0, 100))
        b = _source(
            _span(1, None, "advance.hour", 0, 100),
            _span(2, 1, "wal.fsync", 0, 5),
        )
        text = render_diff(a, b)
        assert "new" in text and "wal.fsync" in text
