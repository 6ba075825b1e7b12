"""The Fig. 8 end-to-end workload simulator.

Drives one strategy over a discrete-hour clock:

* ``block-conserve`` (Sage) and ``block-aggressive`` run **the real
  platform** (`repro.core.platform.Sage`) with count-based sources and
  requirement-oracle pipelines;
* ``query`` and ``streaming`` run the prior-work schedulers of
  :mod:`repro.workload.baselines`.

Output is a :class:`WorkloadReport` with the paper's headline metric --
average model release time (hours from submission to release) -- plus
queueing diagnostics.  Pipelines still unreleased when the horizon ends are
censored at the horizon (their true release time is at least that), which
is how the "off the charts" baselines show up as large finite numbers.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.core.adaptive import AdaptiveConfig
from repro.core.platform import Sage
from repro.errors import SimulationError
from repro.workload.arrivals import GammaArrivals, PowerLawComplexity
from repro.workload.baselines import (
    PendingPipeline,
    QueryCompositionScheduler,
    StreamingCompositionScheduler,
)
from repro.workload.oracle import CountStreamSource, OraclePipeline

__all__ = ["WorkloadConfig", "WorkloadReport", "WorkloadSimulator", "STRATEGIES"]

STRATEGIES = ("block-conserve", "block-aggressive", "query", "streaming")


@dataclass(frozen=True)
class WorkloadConfig:
    """Simulation knobs; defaults follow §5.4's Taxi setup (scaled)."""

    strategy: str = "block-conserve"
    arrival_rate: float = 0.3           # pipelines per hour
    horizon_hours: float = 500.0
    points_per_hour: int = 16_000       # one block per hour
    epsilon_global: float = 1.0
    delta_global: float = 1e-6
    complexity: PowerLawComplexity = field(default_factory=PowerLawComplexity)
    arrival_shape: float = 2.0
    epsilon_start: float = 1.0 / 16.0
    count_scale: int = 1000
    max_attempts: int = 64
    streaming_penalty: float = 10.0
    # Data <-> epsilon exchange: requirement = n1 * (1/eps)^gamma.  The
    # linear rate (gamma = 1) is the theoretical exchange of
    # [Kasiviswanathan et al. 2011] that §3.3 cites.
    exchange_exponent: float = 1.0
    # Sharded block accounting for the block strategies: 0 keeps the
    # single-store accountant; N >= 1 partitions the ledger store into N
    # shards under ``shard_policy`` ("hash" or "range").  Trajectories are
    # byte-identical at any shard count (tested property).
    n_shards: int = 0
    shard_policy: str = "hash"
    # Worker threads for the parallel propose phase of each staged hour
    # (0 = sequential propose).  Identical trajectories either way.
    propose_workers: int = 0
    # Optional ``repro.obs.Telemetry`` threaded through to the platform for
    # the block strategies (baselines have no platform to instrument).
    # Excluded from config equality: two runs with the same knobs are the
    # same experiment whether or not someone was watching.
    telemetry: Optional[object] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise SimulationError(
                f"unknown strategy {self.strategy!r}; pick one of {STRATEGIES}"
            )
        if self.horizon_hours <= 0:
            raise SimulationError("horizon_hours must be > 0")
        if self.n_shards < 0:
            raise SimulationError("n_shards must be >= 0")
        if self.shard_policy not in ("hash", "range"):
            raise SimulationError(
                f"unknown shard_policy {self.shard_policy!r}; 'hash' or 'range'"
            )


@dataclass
class WorkloadReport:
    """Release statistics for one simulated run."""

    strategy: str
    arrival_rate: float
    submitted: int
    released: int
    release_times: List[float]          # per released pipeline, hours
    censored_times: List[float]         # waiting pipelines, horizon - submit

    @property
    def avg_release_time(self) -> float:
        """Mean over released + censored (censoring makes this a lower bound
        for overloaded strategies, matching the paper's off-chart rendering)."""
        times = self.release_times + self.censored_times
        return float(np.mean(times)) if times else 0.0

    @property
    def avg_release_time_released_only(self) -> float:
        return float(np.mean(self.release_times)) if self.release_times else float("inf")

    @property
    def release_fraction(self) -> float:
        return self.released / self.submitted if self.submitted else 1.0


class WorkloadSimulator:
    """Runs one (strategy, arrival_rate) cell of Fig. 8."""

    def __init__(self, config: WorkloadConfig, seed: Optional[int] = None) -> None:
        self.config = config
        self.seed = seed
        # The platform driven by the most recent block-strategy run
        # (diagnostics / equivalence testing); None for baseline strategies.
        self.last_platform: Optional[Sage] = None

    # ------------------------------------------------------------------
    def run(self) -> WorkloadReport:
        cfg = self.config
        rng = np.random.default_rng(self.seed)
        arrivals = GammaArrivals(cfg.arrival_rate, cfg.arrival_shape)
        arrival_times = arrivals.arrival_times(cfg.horizon_hours, rng)
        # One vectorized draw (same uniform stream as per-arrival sampling).
        complexities = cfg.complexity.sample_batch(len(arrival_times), rng)

        if cfg.strategy.startswith("block-"):
            return self._run_block(arrival_times, complexities, rng)
        return self._run_baseline(arrival_times, complexities)

    # ------------------------------------------------------------------
    def _run_block(self, arrival_times, complexities, rng) -> WorkloadReport:
        cfg = self.config
        source = CountStreamSource(cfg.points_per_hour, scale=cfg.count_scale)
        accountant_factory = None
        if cfg.n_shards:
            from repro.core.sharding import sharded_accountant_factory

            accountant_factory = sharded_accountant_factory(
                cfg.n_shards, policy=cfg.shard_policy
            )
        sage = Sage(
            source,
            epsilon_global=cfg.epsilon_global,
            delta_global=cfg.delta_global,
            block_hours=1.0,
            seed=self.seed,
            accountant_factory=accountant_factory,
            propose_workers=cfg.propose_workers,
            telemetry=cfg.telemetry,
        )
        self.last_platform = sage
        strategy = "aggressive" if cfg.strategy == "block-aggressive" else "conserve"
        adaptive = AdaptiveConfig(
            epsilon_start=cfg.epsilon_start,
            epsilon_cap=cfg.epsilon_global,
            min_window_blocks=1,
            max_attempts=cfg.max_attempts,
            strategy=strategy,
        )

        entries = []
        next_arrival = 0
        hours = int(np.ceil(cfg.horizon_hours))
        try:
            for hour in range(hours):
                while next_arrival < len(arrival_times) and arrival_times[next_arrival] <= hour:
                    pipeline = OraclePipeline(
                        name=f"p{next_arrival}",
                        n_at_eps1=float(complexities[next_arrival]),
                        scale=cfg.count_scale,
                        exchange_exponent=cfg.exchange_exponent,
                    )
                    entries.append(
                        (arrival_times[next_arrival], sage.submit(pipeline, adaptive))
                    )
                    next_arrival += 1
                sage.advance(1.0)
        finally:
            # Release worker threads even on a failed run; the platform
            # stays readable (and even drivable -- pools re-create on
            # demand) via ``last_platform``.
            sage.close()

        release_times, censored = [], []
        for submit_time, entry in entries:
            if entry.release_time_hours is not None:
                release_times.append(entry.release_time_hours - submit_time)
            else:
                censored.append(cfg.horizon_hours - submit_time)
        return WorkloadReport(
            strategy=cfg.strategy,
            arrival_rate=cfg.arrival_rate,
            submitted=len(entries),
            released=len(release_times),
            release_times=release_times,
            censored_times=censored,
        )

    # ------------------------------------------------------------------
    def _run_baseline(self, arrival_times, complexities) -> WorkloadReport:
        cfg = self.config
        if cfg.strategy == "query":
            scheduler = QueryCompositionScheduler(
                cfg.epsilon_global, float(cfg.points_per_hour)
            )
        else:
            scheduler = StreamingCompositionScheduler(
                cfg.epsilon_global,
                float(cfg.points_per_hour),
                single_pass_penalty=cfg.streaming_penalty,
            )

        pipelines: List[PendingPipeline] = []
        next_arrival = 0
        hours = int(np.ceil(cfg.horizon_hours))
        for hour in range(hours):
            while next_arrival < len(arrival_times) and arrival_times[next_arrival] <= hour:
                p = PendingPipeline(
                    name=f"p{next_arrival}",
                    n_at_eps1=float(complexities[next_arrival]),
                    submit_hour=float(arrival_times[next_arrival]),
                )
                pipelines.append(p)
                scheduler.submit(p)
                next_arrival += 1
            scheduler.step(float(hour))

        release_times, censored = [], []
        for p in pipelines:
            if p.released:
                release_times.append(p.release_hour - p.submit_hour)
            else:
                censored.append(cfg.horizon_hours - p.submit_hour)
        return WorkloadReport(
            strategy=cfg.strategy,
            arrival_rate=cfg.arrival_rate,
            submitted=len(pipelines),
            released=len(release_times),
            release_times=release_times,
            censored_times=censored,
        )


def sweep_arrival_rates(
    rates,
    base_config: WorkloadConfig,
    seed: int = 0,
) -> Dict[float, WorkloadReport]:
    """Run the same strategy across arrival rates (one Fig. 8 curve)."""
    reports = {}
    for i, rate in enumerate(rates):
        cfg = dataclasses.replace(base_config, arrival_rate=float(rate))
        reports[float(rate)] = WorkloadSimulator(cfg, seed=seed + i).run()
    return reports
