"""The perf trajectory store: history IO, baselines, the regression gate,
and the bench writer that feeds it."""

import json
import sys
from datetime import datetime
from pathlib import Path

import pytest

from repro.obs import perfdb

BENCH_DIR = Path(__file__).resolve().parents[2] / "benchmarks"
if str(BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(BENCH_DIR))

import benchjson  # noqa: E402  (the bench helper lives outside src/)


def _case(name, speedup, bench=""):
    return {
        "name": name,
        "bench": bench,
        "params": {},
        "scalar_ms": 10.0,
        "vectorized_ms": (10.0 / speedup) if speedup else 0.0,
        "speedup": speedup,
    }


def _history(*speedups, name="block_scan_5000", bench="block_scan"):
    return [_case(name, s, bench=bench) for s in speedups]


class TestRunMetadata:
    def test_carries_the_provenance_fields(self):
        meta = perfdb.run_metadata()
        assert set(meta) == {"git_sha", "timestamp", "host", "python", "numpy"}
        assert meta["git_sha"] is None or (
            len(meta["git_sha"]) == 40
            and all(c in "0123456789abcdef" for c in meta["git_sha"])
        )
        # ISO-8601 with timezone, second precision.
        stamp = datetime.fromisoformat(meta["timestamp"])
        assert stamp.tzinfo is not None
        assert isinstance(meta["host"], str)
        assert meta["python"].count(".") == 2

    def test_is_json_serializable(self):
        json.dumps(perfdb.run_metadata())


class TestHistoryIO:
    def test_append_then_load_round_trips(self, tmp_path):
        path = tmp_path / "history.jsonl"
        first = _case("a", 2.0)
        second = _case("b", 3.0)
        assert perfdb.append_history(first, path) == path
        perfdb.append_history(second, path)
        assert perfdb.load_history(path) == [first, second]

    def test_append_creates_parent_directories(self, tmp_path):
        path = tmp_path / "nested" / "deep" / "history.jsonl"
        perfdb.append_history(_case("a", 2.0), path)
        assert perfdb.load_history(path) == [_case("a", 2.0)]

    def test_missing_file_is_empty_history(self, tmp_path):
        assert perfdb.load_history(tmp_path / "absent.jsonl") == []

    def test_torn_blank_and_foreign_lines_are_skipped(self, tmp_path):
        path = tmp_path / "history.jsonl"
        good = _case("a", 2.0)
        path.write_text(
            "\n".join(
                [
                    json.dumps(good),
                    '{"name": "torn", "speedup":',  # torn mid-write
                    "",
                    "[1, 2, 3]",  # not a dict
                    '{"speedup": 2.0}',  # dict without a name
                    json.dumps(good),
                ]
            )
            + "\n",
            encoding="utf-8",
        )
        assert perfdb.load_history(path) == [good, good]


class TestCaseKeys:
    def test_bench_prefixes_unless_the_name_already_carries_it(self):
        history = [
            _case("block_scan_5000", 2.0, bench="block_scan"),
            _case("serial_vs_parallel", 2.0, bench="lint"),
            _case("legacy", 2.0),
        ]
        assert set(perfdb.compute_baselines(history)) == {
            "block_scan_5000",
            "lint/serial_vs_parallel",
            "legacy",
        }


class TestBaselines:
    def test_median_latest_and_run_count(self):
        baselines = perfdb.compute_baselines(_history(2.0, 4.0, 3.0))
        base = baselines["block_scan_5000"]
        assert base.runs == 3
        assert base.median_speedup == 3.0
        assert base.latest_speedup == 3.0

    def test_null_and_nonpositive_speedups_do_not_count(self):
        history = _history(2.0) + [
            _case("block_scan_5000", None, bench="block_scan"),
            _case("block_scan_5000", 0.0, bench="block_scan"),
        ]
        base = perfdb.compute_baselines(history)["block_scan_5000"]
        assert base.runs == 1 and base.latest_speedup is None
        assert perfdb.compute_baselines([_case("x", None)]) == {}


class TestRegressionGate:
    def test_collapse_below_the_band_fails(self):
        history = _history(2.0, 2.2, 2.4, 0.5)
        (regression,) = perfdb.check_regressions(history)
        assert regression.case == "block_scan_5000"
        assert regression.baseline == 2.2
        assert regression.latest == 0.5
        assert regression.floor == pytest.approx(2.2 * 0.35)
        assert regression.runs == 3
        assert "fell below" in regression.describe()

    def test_stable_history_passes(self):
        assert perfdb.check_regressions(_history(2.0, 2.2, 2.1)) == []

    def test_a_case_needs_at_least_one_prior(self):
        # The seeded committed history exists precisely so the first CI
        # run has priors; a lone record is never gated.
        assert perfdb.check_regressions(_history(0.01)) == []

    def test_band_overrides_gate_per_case(self):
        history = _history(2.0, 2.2, 2.4, 1.9)
        assert perfdb.check_regressions(history) == []
        (regression,) = perfdb.check_regressions(
            history, bands={"block_scan_5000": 0.9}
        )
        assert regression.band == 0.9
        assert regression.floor == pytest.approx(2.2 * 0.9)

    def test_worst_collapse_sorts_first(self):
        history = _history(2.0, 2.0, 0.5) + _history(
            4.0, 4.0, 0.1, name="renyi_scan", bench="renyi_filter"
        )
        regressions = perfdb.check_regressions(history)
        assert [r.case for r in regressions] == [
            "renyi_filter/renyi_scan",
            "block_scan_5000",
        ]


class TestRenderReport:
    def test_flags_regressions_with_a_detail_block(self):
        text = perfdb.render_report(_history(2.0, 2.2, 0.3))
        assert "<< REGRESSION" in text
        assert "fell below" in text
        assert "block_scan_5000" in text

    def test_clean_history_says_so(self):
        text = perfdb.render_report(_history(2.0, 2.2, 2.1))
        assert "no regressions" in text
        assert "1 case(s)" in text and "3 record(s)" in text


class TestWriteBenchJson:
    @pytest.fixture
    def sandbox(self, tmp_path, monkeypatch):
        results = tmp_path / "results"
        history = results / "perf_history.jsonl"
        monkeypatch.setattr(benchjson, "RESULTS_DIR", results)
        monkeypatch.setattr(perfdb, "HISTORY_PATH", history)
        return results, history

    def test_writes_payload_and_appends_history(self, sandbox):
        results, history = sandbox
        payload = benchjson.write_bench_json(
            "demo_case", {"blocks": 5}, 10.0, 2.0, bench="demo"
        )
        assert payload["speedup"] == 5.0
        assert payload["bench"] == "demo"
        assert set(payload["meta"]) == {
            "git_sha",
            "timestamp",
            "host",
            "python",
            "numpy",
        }
        on_disk = json.loads(
            (results / "bench_demo_case.json").read_text(encoding="utf-8")
        )
        assert on_disk == payload
        assert perfdb.load_history(history) == [payload]

    def test_zero_fast_time_yields_null_speedup(self, sandbox):
        payload = benchjson.write_bench_json("demo_case", {}, 10.0, 0.0)
        assert payload["speedup"] is None

    def test_rejects_unserializable_params_before_writing(self, sandbox):
        results, history = sandbox
        with pytest.raises(TypeError, match="JSON-serializable"):
            benchjson.write_bench_json(
                "bad_case", {"sink": object()}, 10.0, 2.0
            )
        assert not results.exists()
        assert perfdb.load_history(history) == []

    def test_report_renders_from_the_written_payloads(self, sandbox):
        cases = [
            benchjson.write_bench_json("demo_a", {}, 10.0, 2.0, bench="demo"),
            benchjson.write_bench_json("demo_b", {}, 10.0, 0.0, bench="demo"),
        ]
        results, _ = sandbox
        table = benchjson.write_bench_report(
            "demo", "demo bench", cases, columns=("before", "after"),
            notes=("a note",),
        )
        assert "before" in table and "after" in table
        assert "5.0x" in table and "--" in table
        assert table.endswith("a note")
        assert (results / "bench_demo.txt").read_text(
            encoding="utf-8"
        ) == table + "\n"


def test_staged_advance_keys_runs_off_the_default_size_apart():
    """A smoke-size run of the staged-advance bench must not extend the
    default-size history, or the gate would compare runs of different
    sizes."""
    import bench_staged_advance as bench

    default = (bench.DEFAULT_PIPELINES, bench.DEFAULT_BLOCKS)
    for case in (bench.ADVANCE_CASE, bench.ASSEMBLY_CASE):
        assert bench.history_case(case, *default) == case
    assert (
        bench.history_case(bench.ADVANCE_CASE, 60, 1500)
        == "sharded_advance_s1_p60_b1500"
    )
    assert bench.history_case(bench.ASSEMBLY_CASE, 60, 1500) == (
        "stream_assembly_p60_b1500"
    )
