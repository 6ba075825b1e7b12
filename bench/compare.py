"""``python -m bench compare PARENT CHANGE``: compare two result sets.

PARENT and CHANGE are result directories or JSON files written by
``python -m bench run``.  For every (workload, metric) of ``BENCHMARK.json``
this prints each side's median and quartiles and a verdict:

* ``gain`` -- the change wins at least 9 of every 10 runs paired by seed,
  and the medians differ by more than the parent's interquartile range;
* ``regression`` -- the change's median is worse than the parent's by more
  than the metric's bound;
* ``unresolved`` -- either side's spread (interquartile range over median)
  is wider than the bound, so no-change cannot be told from change,
  unless every change run reads better than every parent run;
* ``unchanged`` -- within the bound.

Per-layer metrics have no bound: they get ``gain`` or ``-``.  The exit
code is 1 when any metric regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from bench.run import load_contract


def load_results(path: Path) -> List[dict]:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    return [json.loads(f.read_text()) for f in files]


def series(results: List[dict], section: str) -> Dict[Tuple[str, str], List[Tuple[int, float]]]:
    """(workload, metric) -> [(seed, value)] over every result that has it."""
    out: Dict[Tuple[str, str], List[Tuple[int, float]]] = {}
    for result in results:
        for name, metric in result.get(section, {}).items():
            if metric["value"] is not None:
                out.setdefault((result["workload"], name), []).append(
                    (result["seed"], metric["value"])
                )
    return out


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: List[Tuple[int, float]], change: List[Tuple[int, float]],
            better: str, bound: Optional[float]) -> Tuple[str, int, int]:
    """(verdict, pair wins, pairs) for one metric on one workload."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(sorted(parent, key=lambda p: p[0]), sorted(change, key=lambda c: c[0])))
    wins = sum(1 for (_, p), (_, c) in pairs if sign * (c - p) > 0)
    p_values = [v for _, v in parent]
    c_values = [v for _, v in change]
    p1, p_med, p3 = quartiles(p_values)
    c1, c_med, c3 = quartiles(c_values)
    gap = sign * (c_med - p_med)
    if pairs and wins >= 0.9 * len(pairs) and gap > p3 - p1:
        return "gain", wins, len(pairs)
    if bound is None:
        return "-", wins, len(pairs)
    worse = -gap / abs(p_med) if p_med else 0.0
    spread = max((p3 - p1) / abs(p_med) if p_med else 0.0,
                 (c3 - c1) / abs(c_med) if c_med else 0.0)
    all_better = min(sign * c for c in c_values) > max(sign * p for p in p_values)
    all_worse = max(sign * c for c in c_values) < min(sign * p for p in p_values)
    if spread > bound and not all_better:
        if all_worse and worse > bound:
            return "regression", wins, len(pairs)
        return "unresolved", wins, len(pairs)
    if worse > bound:
        return "regression", wins, len(pairs)
    return "unchanged", wins, len(pairs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench compare",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    contract = load_contract()
    parent_runs = load_results(args.parent)
    change_runs = load_results(args.change)
    regressed = False
    print(f"{'workload':<11} {'metric':<30} {'parent median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'wins':>7}  verdict")
    for section in ("end_to_end", "per_layer"):
        parent = series(parent_runs, section)
        change = series(change_runs, section)
        for spec in contract[section]:
            for workload in sorted({w for w, m in parent if m == spec["name"]}):
                key = (workload, spec["name"])
                if key not in change:
                    continue
                result, wins, pairs = verdict(parent[key], change[key], spec["better"],
                                              spec.get("bound"))
                regressed |= result == "regression"
                sides = []
                for values in (parent[key], change[key]):
                    q1, med, q3 = quartiles([v for _, v in values])
                    sides.append(f"{med:.5g} [{q1:.5g}, {q3:.5g}] n={len(values)}")
                print(f"{workload:<11} {spec['name']:<30} {sides[0]:>34} {sides[1]:>34} "
                      f"{wins:>3}/{pairs:<3}  {result}")
    return 1 if regressed else 0
