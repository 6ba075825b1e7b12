"""Shared fixtures for the benchmark harness.

Training-run tables are expensive (they train every Table 1 model over a
doubling sample schedule), so they are session-scoped and shared between the
Fig. 5, Fig. 6, and Table 2 benches.  Every bench writes its rendered
table/series to ``results/`` so EXPERIMENTS.md can be regenerated from a
single ``pytest benchmarks/ --benchmark-only`` run (the collection hooks
below gather those checks).

Scale: set ``REPRO_BENCH_SCALE=full`` for schedules closer to the paper's
(longer runtimes); the default "small" regenerates every shape in minutes.
"""

import inspect
import os
import sys
from fnmatch import fnmatch
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"

# The paper-figure checks are the ``bench_*`` functions of these modules.
# The other bench_*.py scripts are command-line gates; pytest runs their
# ``test_*`` smoke checks when given the script's path, as usual.
PAPER_FIGURE_FILES = (
    "bench_fig*.py",
    "bench_table2_violations.py",
    "bench_ablation_composition.py",
)


def _is_paper_figure(path: Path) -> bool:
    return any(fnmatch(path.name, pattern) for pattern in PAPER_FIGURE_FILES)


def pytest_collect_file(file_path, parent):
    """Collect the paper-figure modules when this directory is a path given
    to pytest (``pytest benchmarks/``), not from a run at the repo root.  A
    module given by its own path is collected by pytest already."""
    session = parent.session
    if (
        _is_paper_figure(file_path)
        and session.isinitpath(file_path.parent)
        and not session.isinitpath(file_path)
    ):
        return pytest.Module.from_parent(parent, path=file_path)
    return None


def pytest_pycollect_makeitem(collector, name, obj):
    """Collect a paper-figure module's ``bench_*`` functions as checks."""
    if (
        name.startswith("bench_")
        and inspect.isfunction(obj)
        and isinstance(collector, pytest.Module)
        and _is_paper_figure(collector.path)
    ):
        return pytest.Function.from_parent(collector, name=name, callobj=obj)
    return None

FULL_SCALE = os.environ.get("REPRO_BENCH_SCALE", "small") == "full"

# Doubling sample schedules per model family (small | full).
LR_SCHEDULE = (
    (4_000, 8_000, 16_000, 32_000, 64_000, 128_000, 256_000, 512_000)
    if FULL_SCALE
    else (4_000, 8_000, 16_000, 32_000, 64_000, 128_000, 256_000)
)
NN_SCHEDULE = (
    (4_000, 16_000, 64_000, 128_000, 256_000)
    if FULL_SCALE
    else (4_000, 16_000, 64_000, 128_000)
)
SEEDS = (0, 1) if FULL_SCALE else (0,)
LR_SEEDS = (0, 1, 2) if FULL_SCALE else (0, 1)
EVAL_SIZE = 50_000 if FULL_SCALE else 25_000


def write_result(name: str, text: str) -> None:
    """Persist a rendered table and echo it to the terminal."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / name
    path.write_text(text + "\n")
    sys.stderr.write("\n" + text + "\n")


@pytest.fixture(scope="session")
def lr_runs():
    from repro.experiments import TAXI_LR, collect_training_runs

    return collect_training_runs(
        TAXI_LR, schedule=LR_SCHEDULE, seeds=LR_SEEDS, eval_size=EVAL_SIZE
    )


@pytest.fixture(scope="session")
def taxi_nn_runs():
    from repro.experiments import TAXI_NN, collect_training_runs

    return collect_training_runs(
        TAXI_NN, schedule=NN_SCHEDULE, seeds=SEEDS, eval_size=EVAL_SIZE
    )


@pytest.fixture(scope="session")
def criteo_lg_runs():
    from repro.experiments import CRITEO_LG, collect_training_runs

    # LG is cheap (linear model, ghost clipping): extend the schedule so the
    # rigorous regimes get enough test data to resolve their targets.
    schedule = NN_SCHEDULE + (512_000,) if FULL_SCALE else NN_SCHEDULE + (256_000,)
    return collect_training_runs(
        CRITEO_LG, schedule=schedule, seeds=SEEDS, eval_size=EVAL_SIZE
    )


@pytest.fixture(scope="session")
def criteo_nn_runs():
    from repro.experiments import CRITEO_NN, collect_training_runs

    return collect_training_runs(
        CRITEO_NN, schedule=NN_SCHEDULE, seeds=SEEDS, eval_size=EVAL_SIZE
    )
