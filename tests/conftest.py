"""Shared fixtures: small synthetic data sets and pipeline configurations."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core.config import PipelineConfig
from repro.data.datasets import DatasetSpec, generate_dataset
from repro.data.genome import GenomeSpec
from repro.data.reads import ReadSimSpec
from repro.seq.kmer import KmerSpec
from repro.seq.records import Read, ReadSet


def pytest_configure(config: pytest.Config) -> None:
    """Register the tier markers (no pytest.ini — the repo runs bare pytest).

    ``slow`` marks the end-to-end pipeline tests; ``-m "not slow"`` is the
    fast tier the CI script runs on every change, the full (unfiltered) run
    is the tier-1 gate.
    """
    config.addinivalue_line(
        "markers", "slow: end-to-end pipeline tests (excluded from the fast CI tier)"
    )


@pytest.fixture(scope="session", autouse=True)
def private_kernel_cache(tmp_path_factory):
    """Build the compiled tier into a per-session cache, not ``~/.cache``."""
    patch = pytest.MonkeyPatch()
    patch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("xdg-cache")))
    yield
    patch.undo()


def _psm_names() -> frozenset[str]:
    """Names of the live POSIX shared-memory segments the runtime makes
    (empty off-POSIX)."""
    try:
        return frozenset(f for f in os.listdir("/dev/shm") if f.startswith("psm_"))
    except FileNotFoundError:  # pragma: no cover - non-POSIX-shm platform
        return frozenset()


class ShmSegments:
    """Calling it lists the ``psm_*`` segments created since the current test
    began, so a leak check ignores segments other processes on the host hold
    (the per-test form of ``scripts/ci.sh``'s ``no_shm_leak``)."""

    def __init__(self) -> None:
        self.before: frozenset[str] = frozenset()

    def __call__(self) -> list[str]:
        return sorted(_psm_names() - self.before)


@pytest.fixture(scope="session")
def new_shm_segments() -> ShmSegments:
    """The leak check's names (session-scoped, so Hypothesis tests can use
    it; ``_snapshot_shm_segments`` resets its baseline before every test)."""
    return ShmSegments()


@pytest.fixture(autouse=True)
def _snapshot_shm_segments(new_shm_segments: ShmSegments) -> None:
    new_shm_segments.before = _psm_names()


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    """A deterministic RNG for ad-hoc test data."""
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def micro_dataset():
    """A very small workload (3 kbp genome, ~40 reads) for fast integration tests."""
    spec = DatasetSpec(
        name="micro",
        genome=GenomeSpec(length=3000, repeat_fraction=0.0, seed=5),
        reads=ReadSimSpec(coverage=12.0, mean_read_length=900, min_read_length=400,
                          error_rate=0.08, seed=6),
    )
    return generate_dataset(spec)


@pytest.fixture(scope="session")
def small_dataset():
    """A small-but-realistic workload (6 kbp genome, ~80 reads) with repeats."""
    spec = DatasetSpec(
        name="small",
        genome=GenomeSpec(length=6000, repeat_fraction=0.05, repeat_length=200, seed=15),
        reads=ReadSimSpec(coverage=15.0, mean_read_length=1000, min_read_length=400,
                          error_rate=0.10, seed=16),
    )
    return generate_dataset(spec)


@pytest.fixture(scope="session")
def micro_config() -> PipelineConfig:
    """Pipeline configuration tuned for the micro data set (smaller k)."""
    return PipelineConfig(kmer=KmerSpec(k=15), coverage_hint=12.0, error_rate_hint=0.08)


@pytest.fixture
def toy_reads() -> ReadSet:
    """A handful of hand-written reads with known exact overlaps."""
    genome = (
        "ACGTTGCAAGCTAGCTTACGGATCCGATTACAGGCTTAACGGTTACCGGATCGATCCGGTTAAC"
        "CGGATTACCAGGTTAACCGGTTACAGGATCCGGATTAACCGGTTAACCGGATTACCGGTTAACC"
    )
    return ReadSet(
        [
            Read(name="r0", sequence=genome[0:80], true_start=0, true_end=80),
            Read(name="r1", sequence=genome[40:120], true_start=40, true_end=120),
            Read(name="r2", sequence=genome[60:128], true_start=60, true_end=128),
            Read(name="r3", sequence=genome[0:48], true_start=0, true_end=48),
        ]
    )
