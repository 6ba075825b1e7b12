"""Smoke test of the Sage hour benchmark: every workload at toy size, traced.

Checks that ``python -m bench run`` passes its own output checks, emits
every metric ``BENCHMARK.json`` names with the unit it declares, and that
a traced run reports every per-layer metric.
"""

import json
import subprocess
import sys
from pathlib import Path

from bench.measure import END_TO_END_UNITS, PER_LAYER_UNITS

ROOT = Path(__file__).resolve().parent.parent


def test_every_workload_at_toy_size(tmp_path):
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "-m", "bench", "run", "--scale", "toy", "--seconds", "0.5",
         "--trace", "--out", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert summary["correct"] and summary["failed"] == 0 and summary["attempted"] > 0

    results = {r["workload"]: r for r in
               (json.loads(p.read_text()) for p in tmp_path.glob("*.json"))}
    assert sorted(results) == sorted(w["name"] for w in contract["workloads"])
    for workload, result in results.items():
        assert result["correct"], (workload, result["failures"])
        assert result["episodes"]["traced"] >= 1
        assert result["missing_callables"] == []
        assert set(result["end_to_end"]) == set(END_TO_END_UNITS)
        assert set(result["per_layer"]) == set(PER_LAYER_UNITS)
        for section in ("end_to_end", "per_layer"):
            for spec in contract[section]:
                metric = result[section][spec["name"]]
                assert metric["unit"] == spec["unit"], (workload, spec["name"])
                assert isinstance(metric["value"], (int, float)), (workload, spec["name"])
        # A traced run's summary line carries the per-layer metrics.
        for spec in contract["per_layer"]:
            assert f"{workload}/{spec['name']}" in summary["metrics"]
