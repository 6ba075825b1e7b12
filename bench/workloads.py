"""The four workloads and the public-output fingerprint they are checked by.

Every workload is an *episode*: a fixed scenario made from the seed and
driven closed-loop by one caller, ``advance(1.0)`` after ``advance(1.0)``.
A run repeats the episode, so two episodes of one run must fingerprint
equal.  ``setup`` builds an episode's platform and inputs (the ``setup_s``
work); the drive itself lives in :mod:`bench.measure`.

The episode loop follows ``WorkloadSimulator._run_block`` -- submit every
pipeline that has arrived by hour ``h``, then advance one hour -- rebuilt
from public parts, because the simulator takes neither a ``wal_dir`` nor a
``filter_factory``.
"""

from __future__ import annotations

import functools
import inspect
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core import (
    AdaptiveConfig,
    DPLossValidator,
    RenyiCompositionFilter,
    Sage,
    StatisticPipeline,
    TrainingPipeline,
    sharded_accountant_factory,
)
from repro.data import TaxiGenerator
from repro.experiments.configs import TAXI_LR, TAXI_NN
from repro.workload import (
    CountStreamSource,
    GammaArrivals,
    OraclePipeline,
    PowerLawComplexity,
)

SCALES = ("full", "toy")


class BenchConfigError(Exception):
    """A workload configuration the benchmark refuses to measure."""


class Construct:
    """Builds ``Sage`` and sharded accountant factories for every workload.

    Options the code under test no longer accepts are dropped and recorded
    in :attr:`dropped`, so a change that deletes a mode (``propose_workers``,
    ``commit_workers``, ``batched_advance``) is measured on the same
    workload without editing the benchmark.  A thread pool larger than the
    machine's cores is refused: the propose and commit pools never run at
    the same time, so the platform uses at most the larger of the two.
    """

    def __init__(self) -> None:
        self.dropped: set = set()

    def _accepted(self, fn: Callable, options: dict) -> dict:
        params = inspect.signature(fn).parameters
        if any(p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values()):
            return options
        for name in options.keys() - params.keys():
            self.dropped.add(f"{fn.__qualname__.split('.')[0]}.{name}")
        return {k: v for k, v in options.items() if k in params}

    @staticmethod
    def _check_threads(owner: str, threads: int) -> None:
        cores = os.cpu_count() or 1
        if threads > cores:
            raise BenchConfigError(
                f"{owner} asks for {threads} threads but this machine has "
                f"{cores} cores"
            )

    def sage(self, source, **options) -> Sage:
        self._check_threads("propose_workers", options.get("propose_workers", 0))
        return Sage(source, **self._accepted(Sage, options))

    def sharded_factory(self, n_shards: int, **options):
        self._check_threads("commit_workers", options.get("commit_workers", 0))
        return sharded_accountant_factory(
            n_shards, **self._accepted(sharded_accountant_factory, options)
        )


@dataclass
class Episode:
    """One workload episode, set up and ready to drive."""

    sage: Sage
    # schedule[h]: the (arrival hour, pipeline, config) submitted before
    # the h-th advance(1.0).
    schedule: List[List[Tuple[float, object, AdaptiveConfig]]]
    # Builds a fresh platform over the same WAL directory (durable
    # workloads only); Sage.recover() runs on it.
    rebuild: Optional[Callable[[], Sage]] = None
    submitted: List[Tuple[object, AdaptiveConfig]] = field(default_factory=list)
    arrivals: List[float] = field(default_factory=list)

    @property
    def hours(self) -> int:
        return len(self.schedule)


# ----------------------------------------------------------------------
# Workload sizes.  "full" is what the benchmark measures; "toy" is the
# smoke-test size that exercises every code path in about a second.
# ----------------------------------------------------------------------
STEADY = {"full": dict(hours=250), "toy": dict(hours=30)}
BACKLOG = {"full": dict(hours=200), "toy": dict(hours=30)}
CONTENTION = {
    "full": dict(pipelines=200, blocks=5_000),
    "toy": dict(pipelines=20, blocks=300),
}
TRAIN = {
    "full": dict(hours=120, wave_every=40, points_per_hour=2_000),
    "toy": dict(hours=20, wave_every=10, points_per_hour=1_000),
}

# Seed of the one fixed draw of Fig. 8 arrival times and size bands that
# every run uses (see _fig8_schedule).
ARRIVAL_DESIGN = 0

FIG8_CONFIG = AdaptiveConfig(
    epsilon_start=1.0 / 16.0, epsilon_cap=1.0, min_window_blocks=1, max_attempts=64
)


class _Uniforms:
    """Hands fixed uniform draws to a sampler that asks an rng for them."""

    def __init__(self, draws: np.ndarray) -> None:
        self._draws = draws

    def random(self, count: int) -> np.ndarray:
        return self._draws[:count]


def _fig8_schedule(seed: int, rate: float, hours: int):
    """Fig. 8 Taxi mix: Gamma(shape 2) arrivals at ``rate`` per hour and
    power-law (2k--1M points at epsilon 1) oracle pipelines.

    The arrivals are one fixed draw of that process (``ARRIVAL_DESIGN``):
    ``rate * hours`` Gamma-spaced arrival times, each with one of ``n``
    equal quantile bands of the complexity distribution.  The seed draws
    each pipeline's complexity inside its band.  Near the knee the queue
    is chaotic in the arrival order -- with seed-drawn arrivals, steady
    episodes of different seeds differed by 1.5x in session proposals --
    so this keeps every seed at the same load while its inputs still
    differ."""
    design = np.random.default_rng(ARRIVAL_DESIGN)
    n = int(round(rate * hours))
    arrivals = GammaArrivals(rate, 2.0)
    gaps = np.array([arrivals.sample_interarrival(design) for _ in range(n + 1)])
    arrival_times = hours * np.cumsum(gaps)[:n] / gaps.sum()
    bands = design.permutation(n)
    draws = (bands + np.random.default_rng(seed).random(n)) / n
    complexities = PowerLawComplexity().sample_batch(n, _Uniforms(draws))
    schedule: List[list] = [[] for _ in range(hours)]
    for i, (arrival, n_at_eps1) in enumerate(zip(arrival_times, complexities)):
        # Submitted before the first hour h with arrival <= h, as in
        # WorkloadSimulator; arrivals after the last hour never are.
        hour = int(np.ceil(arrival))
        if hour < hours:
            pipeline = OraclePipeline(name=f"p{i}", n_at_eps1=float(n_at_eps1))
            schedule[hour].append((float(arrival), pipeline, FIG8_CONFIG))
    return schedule


def setup_steady(seed: int, scale: str, construct: Construct, wal_dir: str) -> Episode:
    """Fig. 8 mix at the paper's top rate (0.7/h), durable, pruned Renyi."""
    size = STEADY[scale]
    options = dict(
        seed=seed,
        filter_factory=functools.partial(RenyiCompositionFilter, orders="pruned"),
        wal_dir=wal_dir,
        snapshot_every=24,
        snapshot_keep=3,
    )

    def build() -> Sage:
        return construct.sage(CountStreamSource(16_000, scale=1000), **options)

    return Episode(
        sage=build(), schedule=_fig8_schedule(seed, 0.7, size["hours"]), rebuild=build
    )


def setup_backlog(seed: int, scale: str, construct: Construct, wal_dir: str) -> Episode:
    """The same mix at 2.0/h, about 3x the knee: the queue only grows."""
    size = BACKLOG[scale]
    sage = construct.sage(CountStreamSource(16_000, scale=1000), seed=seed)
    return Episode(sage=sage, schedule=_fig8_schedule(seed, 2.0, size["hours"]))


def setup_contention(seed: int, scale: str, construct: Construct, wal_dir: str) -> Episode:
    """One contention hour on a fresh platform: a long stream already
    ingested with nobody waiting, then every pipeline arrives at once.
    The tiny epsilon makes every attempt affordable; the unreachable
    target makes every session charge four times and time out."""
    size = CONTENTION[scale]
    sage = construct.sage(
        CountStreamSource(1000, scale=1000),
        seed=seed,
        accountant_factory=construct.sharded_factory(4, commit_workers=2),
        propose_workers=2,
    )
    sage.advance(float(size["blocks"]))
    config = AdaptiveConfig(epsilon_start=0.001, epsilon_floor=0.001, max_attempts=4)
    arrivals = [
        (0.0, OraclePipeline(name=f"p{i}", n_at_eps1=1e12), config)
        for i in range(size["pipelines"])
    ]
    return Episode(sage=sage, schedule=[arrivals])


def setup_train(seed: int, scale: str, construct: Construct, wal_dir: str) -> Episode:
    """The section 3.1 Taxi scenario with real models: waves of an AdaSSP
    LR, a DP-SGD NN and an hourly-speed statistic on one stream."""
    size = TRAIN[scale]
    sage = construct.sage(TaxiGenerator(points_per_hour=size["points_per_hour"]), seed=seed)
    schedule: List[list] = [[] for _ in range(size["hours"])]
    for wave, hour in enumerate(range(0, size["hours"], size["wave_every"])):
        schedule[hour] = [
            (
                float(hour),
                TrainingPipeline(
                    name=f"lr{wave}",
                    trainer_fn=TAXI_LR.trainer_fn(),
                    validator=DPLossValidator(0.0065, 0.1),
                ),
                AdaptiveConfig(),
            ),
            (
                float(hour),
                TrainingPipeline(
                    name=f"nn{wave}",
                    trainer_fn=TAXI_NN.trainer_fn(),
                    validator=DPLossValidator(0.0065, 0.1),
                ),
                # Below about 0.03 DP-SGD cannot calibrate its noise at the
                # rationed delta (CalibrationError out of advance), so the
                # NN never attempts under epsilon_start.
                AdaptiveConfig(epsilon_floor=1.0 / 16.0),
            ),
            (
                float(hour),
                StatisticPipeline(
                    name=f"speed{wave}",
                    key_column="hour_of_day",
                    value_column="speed_kmh",
                    nkeys=24,
                    value_range=60.0,
                    target=7.5,
                ),
                AdaptiveConfig(delta=0.0),
            ),
        ]
    return Episode(sage=sage, schedule=schedule)


WORKLOADS: Dict[str, Callable[..., Episode]] = {
    "steady": setup_steady,
    "backlog": setup_backlog,
    "contention": setup_contention,
    "train": setup_train,
}


def fingerprint(sage: Sage) -> dict:
    """Public outputs of a platform: each pipeline's status, release hour,
    attempt count and total spend, the granted-charge count and the
    stream loss bound."""
    bound = sage.access.stream_loss_bound()
    return {
        "pipelines": [
            [
                entry.name,
                entry.status,
                entry.release_time_hours,
                len(entry.session.attempts),
                entry.session.total_spent.epsilon,
                entry.session.total_spent.delta,
            ]
            for entry in sage.pipelines
        ],
        "charges_granted": len(sage.access.accountant.charges),
        "stream_loss_bound": [bound.epsilon, bound.delta],
    }


def fingerprint_diff(expected, actual, path: str = "", rel_tol: float = 1e-9) -> Optional[str]:
    """The first difference between two fingerprints, or ``None``.  Floats
    compare to ``rel_tol`` so a last-ulp change in summation order does not
    count; every status, count and name compares exactly."""
    if isinstance(expected, float) or isinstance(actual, float):
        if (
            isinstance(expected, (int, float))
            and isinstance(actual, (int, float))
            and abs(expected - actual) <= rel_tol * max(abs(expected), abs(actual))
        ):
            return None
        return f"{path or 'value'}: expected {expected!r}, got {actual!r}"
    if isinstance(expected, (list, tuple)) and isinstance(actual, (list, tuple)):
        if len(expected) != len(actual):
            return f"{path or 'list'}: expected {len(expected)} items, got {len(actual)}"
        for i, (e, a) in enumerate(zip(expected, actual)):
            diff = fingerprint_diff(e, a, f"{path}[{i}]", rel_tol)
            if diff:
                return diff
        return None
    if isinstance(expected, dict) and isinstance(actual, dict):
        if expected.keys() != actual.keys():
            return f"{path or 'dict'}: keys {sorted(expected)} != {sorted(actual)}"
        for key in expected:
            diff = fingerprint_diff(expected[key], actual[key], f"{path}.{key}", rel_tol)
            if diff:
                return diff
        return None
    if expected != actual:
        return f"{path or 'value'}: expected {expected!r}, got {actual!r}"
    return None


def release_hours_mean(episode: Episode) -> Optional[float]:
    """Fig. 8's headline: mean submit-to-release hours, with pipelines
    still waiting censored at the horizon (undefined for one hour)."""
    if episode.hours < 2 or not episode.arrivals:
        return None
    times = [
        (entry.release_time_hours if entry.release_time_hours is not None else episode.hours)
        - arrival
        for entry, arrival in zip(episode.sage.pipelines, episode.arrivals)
    ]
    return float(np.mean(times))
