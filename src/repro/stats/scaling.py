"""Strong-scaling efficiency and speedup.

The paper's efficiency figures (4, 11, 12) are all computed "over 1 node":
efficiency at N nodes is ``T(1) / (N * T(N))`` and speedup is
``T(1) / T(N)``.  Superlinear values (> 1.0 efficiency) are legitimate and
expected for the compute phases once the working set fits in cache (§6).
"""

from __future__ import annotations

from typing import Mapping


def speedup_series(times: Mapping[int, float]) -> dict[int, float]:
    """Speedup over the smallest node count for a {nodes: time} series."""
    if not times:
        return {}
    base_nodes = min(times)
    base_time = times[base_nodes]
    out: dict[int, float] = {}
    for nodes, t in sorted(times.items()):
        out[nodes] = base_time / t if t > 0 else float("inf")
    return out


def efficiency_series(times: Mapping[int, float]) -> dict[int, float]:
    """Efficiency over the smallest node count for a {nodes: time} series.

    Efficiency at N nodes = speedup(N) / (N / base_nodes), so the base point
    is exactly 1.0 and perfect strong scaling stays at 1.0.
    """
    if not times:
        return {}
    base_nodes = min(times)
    speedups = speedup_series(times)
    return {nodes: speedups[nodes] * base_nodes / nodes for nodes in speedups}
