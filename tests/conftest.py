"""Shared fixtures for the test suite."""

import sys
from pathlib import Path

import numpy as np
import pytest

# Allow running the tests from a fresh checkout without installation.
_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

# REPRO_SANITIZER=1 runs the whole suite with the runtime write barrier:
# the accounting slabs are read-only while any declared-pure call is on
# the stack, so a hidden mutation faults at its exact line (see
# repro.analysis.sanitizer; CI runs tier-1 once in this mode).
from repro.analysis import sanitizer as _sanitizer  # noqa: E402

_sanitizer.install_from_env()


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: a long-running end-to-end test (deselect with -m 'not slow')"
    )


@pytest.fixture
def rng():
    """Deterministic generator; tests that need other seeds build their own."""
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def taxi_batch():
    """A medium taxi batch shared by read-only tests (session-scoped: do not
    mutate)."""
    from repro.data import TaxiGenerator

    return TaxiGenerator().generate(20_000, np.random.default_rng(7))


@pytest.fixture(scope="session")
def criteo_batch():
    """A medium criteo batch shared by read-only tests (do not mutate)."""
    from repro.data import CriteoGenerator

    return CriteoGenerator().generate(20_000, np.random.default_rng(7))
