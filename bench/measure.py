"""Measure one workload in this process: the body of a workload subprocess.

``python -m bench.measure --workload W --seed S --seconds N --trace 0|1``
prints one JSON result object on stdout.  ``python -m bench run`` starts it
with BLAS pinned to one thread; run it directly only for debugging.

A run is a toy-size warm-up episode (lazy set-up and caches, discarded),
then episodes back to back for as long as another one still fits in
``--seconds`` (at least two).  With ``--trace 1`` the first half of the
time is measured untraced and the second half under the
:class:`LayerTracer`; their ratio is ``trace.overhead``.  End-to-end
metrics come only from untraced episodes.

Every end-to-end timing is a wall time scaled to the reference speed
(:mod:`bench.speed`), with a probe of the machine's speed right before and
after each timed interval.  Every episode of a run does the same work, so
each hour is timed once per episode and the metrics take, for each hour,
the median over the episodes.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from bench import speed

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

# Every end-to-end metric with its unit.  ``hours`` is the number of
# distinct hours the percentiles are over; ``hour_p95_ms`` needs at least
# ten of them above it (200 hours); ``recover_s`` exists only on durable
# workloads and ``release_hours_mean`` only where pipelines arrive over
# time -- each is null elsewhere.  ``machine_slowdown`` is the median
# probe over the reference speed.
END_TO_END_UNITS: Dict[str, str] = {
    "setup_s": "s",
    "hours_per_s": "1/s",
    "hour_p50_ms": "ms",
    "hour_p95_ms": "ms",
    "hours": "count",
    "charges_per_s": "1/s",
    "recover_s": "s",
    "peak_rss_mb": "MB",
    "error_rate": "ratio",
    "release_hours_mean": "h",
    "machine_slowdown": "ratio",
}

# Every per-layer metric with its unit.  Values are per episode; every
# ``_ms`` is self time (see bench.layers).
PER_LAYER_UNITS: Dict[str, str] = {
    "platform.self_ms": "ms",
    "platform.table_release_ms": "ms",
    "platform.table_release_calls": "count",
    "platform.table_ms": "ms",
    "platform.speculation_adopt_ratio": "ratio",
    "adaptive.propose_ms": "ms",
    "adaptive.propose_calls": "count",
    "adaptive.propose_yield": "ratio",
    "adaptive.complete_ms": "ms",
    "accountant.scan_ms": "ms",
    "accountant.scan_calls": "count",
    "accountant.stage_ms": "ms",
    "accountant.stage_calls": "count",
    "accountant.stage_denied": "count",
    "accountant.commit_ms": "ms",
    "data.ingest_ms": "ms",
    "data.assemble_ms": "ms",
    "data.assemble_rows": "count",
    "pipeline.run_ms": "ms",
    "pipeline.run_calls": "count",
    "pipeline.accept_ratio": "ratio",
    "pipeline.train_ms": "ms",
    "pipeline.validate_ms": "ms",
    "durability.digest_ms": "ms",
    "durability.digest_calls": "count",
    "durability.wal_ms": "ms",
    "durability.wal_bytes": "B",
    "durability.snapshot_ms": "ms",
    "durability.recover_load_ms": "ms",
    "trace.overhead": "ratio",
}

MIN_SETUPS = 3
# Each durable episode is recovered this many times, on fresh platforms.
RECOVERIES = 3


@dataclass
class EpisodeResult:
    # Every time here is scaled to the reference speed (bench.speed).
    setup_s: float
    # Per hour: the advance(1.0) alone, and the whole step (the hour's
    # submissions, then the advance).
    hour_ms: List[float] = field(default_factory=list)
    step_ms: List[float] = field(default_factory=list)
    # Every speed probe taken, in CPU milliseconds.
    probe_ms: List[float] = field(default_factory=list)
    charges: float = 0.0
    recover_s: List[float] = field(default_factory=list)
    fingerprint: Optional[dict] = None
    release_hours_mean: Optional[float] = None
    speculations: tuple = (0.0, 0.0)
    wal_bytes: Optional[int] = None
    attempted: int = 0
    failures: List[str] = field(default_factory=list)

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(message)

    def call(self, fn, what: str):
        """Run one advance/recover call, counting it; a raise is a failure
        that stops the episode."""
        self.attempted += 1
        try:
            return fn()
        except Exception as exc:
            traceback.print_exc(file=sys.stderr)
            self.failures.append(f"{what} raised {exc!r}")
            raise EpisodeStopped from exc

    def probe(self) -> float:
        ms = speed.probe()
        self.probe_ms.append(ms)
        return ms


class EpisodeStopped(Exception):
    """A counted failure ended the episode early."""


def _set_up(setup, seed, scale, construct, wal_dir: Path):
    """(episode, scaled set-up seconds, the two probes around it)."""
    before = speed.probe()
    start = time.perf_counter()
    episode = setup(seed, scale, construct, str(wal_dir))
    wall = time.perf_counter() - start
    after = speed.probe()
    return episode, speed.scaled(wall, before, after), [before, after]


def run_episode(setup, seed, scale, construct, wal_dir: Path, tracer=None) -> EpisodeResult:
    """Set up one episode, drive it hour by hour, check its outputs and,
    on durable workloads, recover it on fresh platforms."""
    from bench.workloads import fingerprint, fingerprint_diff, release_hours_mean

    episode, setup_s, probe_ms = _set_up(setup, seed, scale, construct, wal_dir)
    result = EpisodeResult(setup_s=setup_s, probe_ms=probe_ms)
    sage = episode.sage
    gc.collect()
    try:
        with tracer if tracer is not None else nullcontext():
            metrics = sage.metrics
            charges = metrics.counter_value("sage_charges_granted_total")
            before = result.probe()
            for hour, arrivals in enumerate(episode.schedule):
                step_start = time.perf_counter()
                for arrival, pipeline, config in arrivals:
                    sage.submit(pipeline, config)
                    episode.submitted.append((pipeline, config))
                    episode.arrivals.append(arrival)
                hour_start = time.perf_counter()
                result.call(lambda: sage.advance(1.0), f"advance at hour {hour}")
                end = time.perf_counter()
                after = result.probe()
                result.hour_ms.append(speed.scaled((end - hour_start) * 1e3, before, after))
                result.step_ms.append(speed.scaled((end - step_start) * 1e3, before, after))
                before = after
            result.charges = metrics.counter_value("sage_charges_granted_total") - charges
            result.speculations = (
                metrics.counter_value("sage_speculations_adopted_total"),
                metrics.counter_value("sage_speculations_invalidated_total"),
            )
            bound = sage.access.stream_loss_bound()
            result.check(
                bound.epsilon <= sage.epsilon_global * (1 + 1e-9)
                and bound.delta <= sage.delta_global * (1 + 1e-9),
                f"stream loss bound {bound} exceeds "
                f"({sage.epsilon_global}, {sage.delta_global})",
            )
            result.fingerprint = fingerprint(sage)
            result.release_hours_mean = release_hours_mean(episode)
            sage.close()
            if episode.rebuild is not None:
                result.wal_bytes = sum(p.stat().st_size for p in wal_dir.glob("*.wal"))
                for i in range(RECOVERIES):
                    before = result.probe()
                    start = time.perf_counter()
                    recovered = episode.rebuild()
                    try:
                        result.call(lambda: recovered.recover(episode.submitted), "recover")
                        wall = time.perf_counter() - start
                        result.recover_s.append(speed.scaled(wall, before, result.probe()))
                        diff = fingerprint_diff(result.fingerprint, fingerprint(recovered))
                        result.check(diff is None,
                                     f"recovery {i} differs from the live run: {diff}")
                    finally:
                        recovered.close()
    except EpisodeStopped:
        pass
    except Exception as exc:  # a check itself broke: report it as a failure
        traceback.print_exc(file=sys.stderr)
        result.attempted += 1
        result.failures.append(f"episode raised {exc!r}")
    finally:
        sage.close()
        shutil.rmtree(wal_dir, ignore_errors=True)
    return result


def per_hour_median(per_episode: List[List[float]]) -> List[float]:
    """Each hour's median time over the episodes (only the hours every
    episode reached: an episode stopped by a failure is shorter)."""
    hours = min((len(times) for times in per_episode), default=0)
    return [statistics.median(times[h] for times in per_episode) for h in range(hours)]


def hours_per_s(episodes: List[EpisodeResult]) -> Optional[float]:
    step_ms = per_hour_median([e.step_ms for e in episodes])
    return len(step_ms) / (sum(step_ms) / 1e3) if step_ms else None


def end_to_end(episodes: List[EpisodeResult], setup_s: float, attempted: int, failed: int) -> dict:
    hour_ms = per_hour_median([e.hour_ms for e in episodes])
    rate = hours_per_s(episodes)
    recover_s = [s for e in episodes for s in e.recover_s]
    probe_ms = [ms for e in episodes for ms in e.probe_ms]
    values = {
        "setup_s": setup_s,
        "hours_per_s": rate,
        "hour_p50_ms": statistics.median(hour_ms) if hour_ms else None,
        "hour_p95_ms": (
            statistics.quantiles(hour_ms, n=20, method="inclusive")[18]
            if len(hour_ms) >= 200 else None
        ),
        "hours": len(hour_ms),
        # Every episode grants the same charges (the fingerprints agree).
        "charges_per_s": (
            statistics.median(e.charges for e in episodes) * rate / len(hour_ms)
            if rate else None
        ),
        "recover_s": statistics.median(recover_s) if recover_s else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "error_rate": failed / attempted if attempted else 0.0,
        "release_hours_mean": episodes[0].release_hours_mean if episodes else None,
        "machine_slowdown": (
            statistics.median(probe_ms) / speed.REFERENCE_MS if probe_ms else None
        ),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}


def layer_ms_per_ns(traced: List[EpisodeResult]) -> float:
    """Converts the tracer's nanoseconds to milliseconds at the reference
    speed: a layer's calls are too many to probe around each one, so every
    layer time is scaled by the traced episodes' median probe."""
    probe_ms = statistics.median(ms for e in traced for ms in e.probe_ms)
    return 1e-6 * speed.REFERENCE_MS / probe_ms


def per_layer(tracer, traced: List[EpisodeResult], overhead: Optional[float]) -> dict:
    n = len(traced)
    stats = tracer.stats
    ms_per_ns = layer_ms_per_ns(traced)

    def self_ms(layer):
        s = stats.get(layer)
        return None if s is None else s.self_ns * ms_per_ns / n

    def calls(layer):
        s = stats.get(layer)
        return None if s is None else s.calls / n

    def errors(layer):
        s = stats.get(layer)
        return None if s is None else s.errors / n

    def counted(layer):
        s = stats.get(layer)
        return None if s is None else s.counted / n

    def share(layer):
        s = stats.get(layer)
        return None if s is None or not s.calls else s.counted / s.calls

    adopted = sum(e.speculations[0] for e in traced)
    invalidated = sum(e.speculations[1] for e in traced)
    wal_bytes = [e.wal_bytes for e in traced if e.wal_bytes is not None]
    values = {
        "platform.self_ms": self_ms("platform.advance"),
        "platform.table_release_ms": self_ms("platform.table_release"),
        "platform.table_release_calls": calls("platform.table_release"),
        "platform.table_ms": self_ms("platform.table"),
        "platform.speculation_adopt_ratio": (
            adopted / (adopted + invalidated) if adopted + invalidated else None
        ),
        "adaptive.propose_ms": self_ms("adaptive.propose"),
        "adaptive.propose_calls": calls("adaptive.propose"),
        "adaptive.propose_yield": share("adaptive.propose"),
        "adaptive.complete_ms": self_ms("adaptive.complete"),
        "accountant.scan_ms": self_ms("accountant.scan"),
        "accountant.scan_calls": calls("accountant.scan"),
        "accountant.stage_ms": self_ms("accountant.stage"),
        "accountant.stage_calls": calls("accountant.stage"),
        "accountant.stage_denied": errors("accountant.stage"),
        "accountant.commit_ms": self_ms("accountant.commit"),
        "data.ingest_ms": self_ms("data.ingest"),
        "data.assemble_ms": self_ms("data.assemble"),
        "data.assemble_rows": counted("data.assemble"),
        "pipeline.run_ms": self_ms("pipeline.run"),
        "pipeline.run_calls": calls("pipeline.run"),
        "pipeline.accept_ratio": share("pipeline.run"),
        "pipeline.train_ms": self_ms("pipeline.train"),
        "pipeline.validate_ms": self_ms("pipeline.validate"),
        "durability.digest_ms": self_ms("durability.digest"),
        "durability.digest_calls": calls("durability.digest"),
        "durability.wal_ms": self_ms("durability.wal"),
        "durability.wal_bytes": statistics.median(wal_bytes) if wal_bytes else None,
        "durability.snapshot_ms": self_ms("durability.snapshot"),
        "durability.recover_load_ms": self_ms("durability.recover_load"),
        "trace.overhead": overhead,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}


def _phase(setup, seed, scale, construct, work_dirs, seconds, min_episodes, tracer):
    """Episodes back to back while one more is expected to end within
    ``seconds`` (and at least ``min_episodes``)."""
    episodes: List[EpisodeResult] = []
    start = time.perf_counter()
    while len(episodes) < min_episodes or (
        (time.perf_counter() - start) * (len(episodes) + 1) / len(episodes) <= seconds
    ):
        episode = run_episode(setup, seed, scale, construct, next(work_dirs), tracer)
        episodes.append(episode)
        if episode.failures:
            break  # a failed episode is reported, not repeated
    return episodes


def measure(workload: str, seed: int, seconds: float, trace: bool, scale: str,
            work_dir: Path, import_s: float, record: bool = False) -> dict:
    from bench.layers import LayerTracer
    from bench.workloads import WORKLOADS, Construct, fingerprint_diff

    setup = WORKLOADS[workload]
    construct = Construct()
    work_dirs = (work_dir / f"ep{i}" for i in itertools.count())
    run_episode(setup, seed, "toy", construct, next(work_dirs))
    untraced = _phase(setup, seed, scale, construct, work_dirs,
                      seconds / 2 if trace else seconds, 1 if trace else 2, None)
    tracer = LayerTracer() if trace else None
    traced: List[EpisodeResult] = []
    if trace and not untraced[-1].failures:
        traced = _phase(setup, seed, scale, construct, work_dirs, seconds / 2, 1, tracer)
    episodes = untraced + traced

    setups = [e.setup_s for e in episodes]
    while len(setups) < MIN_SETUPS:
        spare, setup_s, _ = _set_up(setup, seed, scale, construct, next(work_dirs))
        setups.append(setup_s)
        spare.sage.close()
    shutil.rmtree(work_dir, ignore_errors=True)

    failures = [f for e in episodes for f in e.failures]
    attempted = sum(e.attempted for e in episodes)
    reference = episodes[0].fingerprint
    for i, episode in enumerate(episodes[1:], start=1):
        attempted += 1
        diff = fingerprint_diff(reference, episode.fingerprint)
        if diff is not None:
            failures.append(f"episode {i} differs from episode 0: {diff}")
    expected_path = EXPECTED_DIR / f"{workload}-{seed}.json"
    if scale == "full" and record and not failures and reference is not None:
        expected_path.write_text(json.dumps(
            {"workload": workload, "seed": seed, "fingerprint": reference},
            indent=1, sort_keys=True) + "\n")
    if scale == "full" and expected_path.exists():
        attempted += 1
        expected = json.loads(expected_path.read_text())["fingerprint"]
        diff = fingerprint_diff(expected, reference)
        if diff is not None:
            failures.append(f"differs from {expected_path.name}: {diff}")

    import numpy

    result = {
        "workload": workload,
        "seed": seed,
        "scale": scale,
        "seconds": seconds,
        "trace": int(trace),
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "episodes": {"untraced": len(untraced), "traced": len(traced)},
        "dropped_options": sorted(construct.dropped),
        "numpy": numpy.__version__,
        "reference_ms": speed.REFERENCE_MS,
        "end_to_end": end_to_end(untraced, import_s + statistics.median(setups),
                                 attempted, len(failures)),
        "per_layer": {},
    }
    if trace and traced:
        rate = result["end_to_end"]["hours_per_s"]["value"]
        traced_rate = hours_per_s(traced)
        result["per_layer"] = per_layer(
            tracer, traced, traced_rate / rate if rate and traced_rate else None
        )
        ms_per_ns = layer_ms_per_ns(traced)
        result["layers"] = {
            layer: {
                "busy_ms": s.busy_ns * ms_per_ns / len(traced),
                "self_ms": s.self_ns * ms_per_ns / len(traced),
                "calls": s.calls / len(traced),
            }
            for layer, s in tracer.stats.items()
        }
        result["missing_callables"] = tracer.missing
    return result


def main(argv=None) -> int:
    start = time.perf_counter()
    # Imported here so that their import time is measured as set-up.
    import bench.workloads  # noqa: F401
    import bench.layers  # noqa: F401

    wall = time.perf_counter() - start
    # A probe needs NumPy, so both are taken after the imports.
    import_s = speed.scaled(wall, speed.probe(), speed.probe())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=bench.workloads.SCALES, default="full")
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    if args.workload not in bench.workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                         args.scale, args.work_dir, import_s, args.record)
    except bench.workloads.BenchConfigError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
