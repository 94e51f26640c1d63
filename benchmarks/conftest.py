"""Shared benchmark fixtures.

Every benchmark module draws its pipeline runs from the process-wide
:func:`repro.bench.harness.default_harness`, so runs are executed once and
reused across all the figures that view them (exactly how the paper's figures
are different views of the same executions).

Each benchmark prints the regenerated figure/table rows, and also appends
them to ``benchmarks/results/``, where the recorded numbers can be
regenerated.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.bench.harness import default_harness

RESULTS_DIR = Path(__file__).parent / "results"

#: Node counts used by the scaling benchmarks.  The full paper series is
#: 1-32; set REPRO_BENCH_FULL=0 to drop to a reduced set for quick runs.
FULL_SERIES = os.environ.get("REPRO_BENCH_FULL", "1") != "0"
SCALING_NODES = (1, 2, 4, 8, 16, 32) if FULL_SERIES else (1, 4, 16)
REDUCED_NODES = (1, 8, 32) if FULL_SERIES else (1, 8)


@pytest.fixture(scope="session")
def harness():
    """The shared experiment harness (cached pipeline runs)."""
    return default_harness()


def record_rows(name: str, text: str) -> None:
    """Print and persist one experiment's formatted output."""
    print("\n" + text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n", encoding="ascii")


def pytest_sessionfinish(session, exitstatus) -> None:
    """Record how much worker startup the rank pool amortised this session.

    The figure sweeps share one harness; process-backend runs go through the
    persistent rank pool, so per-node-count runs reuse parked worker sets
    instead of re-forking.  The report is written before the pools shut down
    (their run counters are the amortisation evidence).
    """
    from repro.bench.harness import default_harness_pool_report

    report = default_harness_pool_report()
    if report is None:
        return
    lines = ["rank-pool amortisation (bench sweep)"]
    lines.extend(f"  {key}: {value:.3f}" if key == "total_run_seconds"
                 else f"  {key}: {value:.0f}"
                 for key, value in report.items())
    record_rows("pool_amortisation", "\n".join(lines))
