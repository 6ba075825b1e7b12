"""``python -m bench run``: measure workloads, each in a fresh subprocess.

Each workload runs in its own ``python -m bench.measure`` process, one
after the other, with BLAS pinned to one thread.  For every workload this
prints the end-to-end metrics (and, with ``--trace``, the per-layer ones)
by name with their units, writes the full result as JSON under
``bench/results/``, and finally prints one JSON summary line:
``{"correct", "attempted", "failed", "metrics"}`` holding the metrics that
``BENCHMARK.json`` lists (prefixed ``<workload>/`` when several workloads
ran).  The exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORKLOADS = ("steady", "backlog", "contention", "train")
DEFAULT_SEED = 0
# Each workload process must end well inside the three-minute run limit.
CHILD_TIMEOUT_S = 170


def load_contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def git_sha() -> str:
    """The checked-out commit, read from ``.git`` without running git (a
    benchmark checkout need not be a repository)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    # Same string hashes, hence the same dict and set layouts, in every run.
    env["PYTHONHASHSEED"] = "0"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_workload(workload: str, args) -> dict:
    work_dir = BENCH / ".work" / f"{os.getpid()}-{workload}"
    cmd = [
        sys.executable, "-m", "bench.measure",
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--scale", args.scale,
        "--work-dir", str(work_dir),
    ]
    if args.record:
        cmd.append("--record")
    try:
        # subprocess.run kills and reaps the child on timeout.
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:  # another run still uses it
            pass
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"workload {workload} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def _fmt(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def print_result(result: dict) -> None:
    status = "ok" if result["correct"] else "FAILED"
    print(f"== {result['workload']} (seed {result['seed']}, {result['scale']}, "
          f"episodes {result['episodes']}) checks {status}: "
          f"{result['failed']}/{result['attempted']} failed")
    for failure in result["failures"]:
        print(f"   ! {failure}")
    if result["dropped_options"]:
        print(f"   dropped options: {', '.join(result['dropped_options'])}")
    for section in ("end_to_end", "per_layer"):
        for name, metric in result[section].items():
            print(f"   {name:<34} {_fmt(metric['value']):>14} {metric['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench run", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", "--workloads", dest="workloads", nargs="+",
                        choices=WORKLOADS, default=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: run_seconds "
                        "of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="also measure per-layer metrics (--trace or --trace 1)")
    parser.add_argument("--scale", choices=("full", "toy"), default="full")
    parser.add_argument("--out", type=Path, default=BENCH / "results",
                        help="directory for the JSON results")
    parser.add_argument("--record", action="store_true",
                        help="record this seed's fingerprints under bench/expected/")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no Sage sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    contract = load_contract()
    if args.seconds is None:
        args.seconds = float(contract["run_seconds"])
    section = "per_layer" if args.trace else "end_to_end"
    wanted = [m["name"] for m in contract[section]]

    stamp = {
        "git_sha": git_sha(),
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    args.out.mkdir(parents=True, exist_ok=True)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in args.workloads:
        try:
            result = run_workload(workload, args)
        except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
            print(f"{workload}: {exc}", file=sys.stderr)
            return 1
        result.update(stamp)
        print_result(result)
        name = f"{workload}-s{args.seed}-t{args.trace}-{time.time_ns()}.json"
        (args.out / name).write_text(json.dumps(result, indent=1) + "\n")
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        prefix = f"{workload}/" if len(args.workloads) > 1 else ""
        for metric in wanted:
            if metric in result[section]:
                summary["metrics"][prefix + metric] = result[section][metric]
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1
