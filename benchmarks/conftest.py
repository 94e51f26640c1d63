"""Shared benchmark fixtures.

Every benchmark module draws its pipeline runs from the process-wide
:func:`repro.bench.harness.default_harness`, so runs are executed once and
reused across all the figures that view them (exactly how the paper's figures
are different views of the same executions).

Each benchmark prints the regenerated figure/table rows and also writes
them to ``benchmarks/results/<name>.txt``.  That directory is git-ignored:
the rows depend on the host, so a run never dirties the work tree.
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
