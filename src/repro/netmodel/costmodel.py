"""Compute- and exchange-time models.

The models convert machine-independent measurements of a pipeline run —
work counters per rank and per-phase traffic matrices — into projected stage
times on a target platform.  They deliberately stay first-order:

* **Compute**: ``time = work / (rate × node_power × nodes × cache_factor) ×
  imbalance`` where the per-stage ``rate`` constants are calibrated against
  the paper's single-node throughputs, ``node_power`` comes from Table 1
  (cores × GHz × relative core speed) and ``cache_factor`` grows as the
  per-node working set shrinks below the last-level cache — reproducing the
  superlinear strong-scaling the paper observes (§6, §7).
* **Exchange**: a latency term per collective call plus a volume term charged
  at the platform's calibrated effective all-to-all bandwidth for traffic
  that leaves the node and at a (much higher) shared-memory rate for traffic
  that stays on the node.  The first global Alltoallv call carries an extra setup
  penalty, as observed in §10 of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.mpisim.topology import Topology
from repro.mpisim.tracing import PhaseTraffic
from repro.netmodel.platform import PlatformSpec

#: Calibrated per-stage rates, in work units per second per (GHz × core ×
#: core_speed).  "Work units" are k-mer instances for the Bloom-filter and
#: hash-table stages, retained k-mer occurrences for the overlap stage, and
#: DP cells for the alignment stage.  Chosen so that single-node Cori rates
#: land near the paper's Figures 3, 5, 6 and 7.
DEFAULT_STAGE_RATES: dict[str, float] = {
    "kmers_bloom": 0.65e6,
    "kmers_hashtable": 1.55e6,
    "retained_kmers": 2.60e6,
    "dp_cells": 1.2e8,
    "generic": 1.0e6,
}


@dataclass(frozen=True)
class ComputeCostModel:
    """Projects per-rank work counters onto platform compute time.

    Attributes
    ----------
    stage_rates:
        Mapping from work-unit name to processing rate (see
        :data:`DEFAULT_STAGE_RATES`).
    cache_boost:
        Maximum superlinear speedup factor minus one: when the per-node
        working set is far below the last-level cache the effective rate is
        multiplied by ``1 + cache_boost``.
    """

    stage_rates: dict[str, float] = field(default_factory=lambda: dict(DEFAULT_STAGE_RATES))
    cache_boost: float = 0.7

    def rate_for(self, work_unit: str) -> float:
        """Rate for a work unit, falling back to the generic rate."""
        return self.stage_rates.get(work_unit, self.stage_rates["generic"])

    def cache_factor(self, bytes_per_node: float, platform: PlatformSpec) -> float:
        """Superlinear-speedup multiplier for a given per-node working set.

        1.0 when the working set is at least 8× the last-level cache,
        ramping linearly up to ``1 + cache_boost`` as it shrinks to fit.
        """
        cache_bytes = platform.cache_mb_per_node * 1e6
        if bytes_per_node <= 0:
            return 1.0 + self.cache_boost
        ratio = bytes_per_node / (8.0 * cache_bytes)
        fraction_cached = float(np.clip(1.0 - ratio, 0.0, 1.0))
        return 1.0 + self.cache_boost * fraction_cached

    def node_work(self, work_per_rank: np.ndarray, topology: Topology) -> np.ndarray:
        """Aggregate per-(simulated)-rank work onto nodes."""
        work_per_rank = np.asarray(work_per_rank, dtype=np.float64)
        if work_per_rank.shape[0] != topology.n_ranks:
            raise ValueError(
                f"work_per_rank has {work_per_rank.shape[0]} entries, "
                f"topology has {topology.n_ranks} ranks"
            )
        nodes = np.arange(topology.n_ranks) // topology.ranks_per_node
        return np.bincount(nodes, weights=work_per_rank, minlength=topology.n_nodes)

    def compute_time(
        self,
        work_per_rank: np.ndarray,
        work_unit: str,
        platform: PlatformSpec,
        topology: Topology,
        local_bytes_per_rank: np.ndarray | None = None,
        work_scale: float = 1.0,
    ) -> float:
        """Projected compute time of one stage on *platform*.

        The simulated topology's node count is taken as the platform node
        count; the platform's own cores-per-node (not the simulated
        ranks-per-node) determine per-node throughput, so a run simulated
        with few ranks per node still projects onto full nodes.
        ``work_scale`` linearly extrapolates the measured work to a larger
        input (the per-rank distribution, and hence the imbalance, is kept);
        the cache-effect factor stays based on the measured working set, which
        preserves the relative superlinear-speedup shape of the figures.
        """
        per_node = self.node_work(work_per_rank, topology)
        total = float(per_node.sum())
        if total == 0.0:
            return 0.0
        mean = total / topology.n_nodes
        imbalance = float(per_node.max() / mean) if mean > 0 else 1.0

        if local_bytes_per_rank is not None:
            bytes_per_node = float(np.asarray(local_bytes_per_rank, dtype=np.float64).sum()
                                   / topology.n_nodes)
        else:
            bytes_per_node = float("inf")
        factor = self.cache_factor(bytes_per_node, platform)

        rate = self.rate_for(work_unit)
        node_rate = rate * platform.node_compute_power * factor
        base = (total * work_scale) / (node_rate * topology.n_nodes)
        return base * imbalance


@dataclass(frozen=True)
class ExchangeCostModel:
    """Projects per-phase traffic matrices onto platform exchange time.

    Attributes
    ----------
    first_alltoallv_penalty:
        Fractional extra cost charged to the phase containing the first
        global Alltoallv (the paper observed the first call costing ~2× the
        second, §10): the phase's per-call cost is charged once more,
        scaled by this factor.
    per_rank_setup_us:
        Per-destination-rank software overhead of an irregular collective,
        charged per call (buffer bookkeeping, counts exchange).
    """

    first_alltoallv_penalty: float = 0.9
    per_rank_setup_us: float = 0.15

    def _node_traffic(
        self, traffic: PhaseTraffic, topology: Topology
    ) -> tuple[np.ndarray, np.ndarray]:
        """Split traffic into per-node (off-node bytes sent, intra-node bytes)."""
        volume = traffic.volume
        n_ranks = topology.n_ranks
        if volume.shape != (n_ranks, n_ranks):
            raise ValueError(
                f"traffic matrix shape {volume.shape} does not match topology "
                f"({n_ranks} ranks)"
            )
        nodes = np.arange(n_ranks) // topology.ranks_per_node
        n_nodes = topology.n_nodes
        # Aggregate the rank-level matrix to node level.
        node_matrix = np.zeros((n_nodes, n_nodes), dtype=np.float64)
        np.add.at(node_matrix, (nodes[:, None], nodes[None, :]), volume)
        intra = np.diag(node_matrix).copy()
        off = node_matrix.sum(axis=1) - intra
        return off, intra

    def exchange_time(
        self,
        traffic: PhaseTraffic,
        platform: PlatformSpec,
        topology: Topology,
        includes_first_alltoallv: bool = False,
        volume_scale: float = 1.0,
    ) -> float:
        """Projected exchange time for one phase on *platform*.

        ``volume_scale`` linearly extrapolates the measured byte volumes to a
        larger input; per-call latency costs are not scaled (the number of
        bulk-synchronous phases does not grow with the input under the
        memory-bounded streaming design).
        """
        off, intra = self._node_traffic(traffic, topology)
        if off.sum() == 0 and intra.sum() == 0 and traffic.collective_calls == 0:
            return 0.0

        off_time = float(off.max(initial=0.0)) * volume_scale / (
            platform.effective_alltoall_bw_mbps * 1e6)
        intra_time = float(intra.max(initial=0.0)) * volume_scale / (
            platform.intranode_bw_mbps * 1e6)

        actual_ranks = topology.n_nodes * platform.cores_per_node
        calls = max(1, traffic.collective_calls)
        latency_time = (
            calls
            * actual_ranks
            * (platform.intranode_latency_us + self.per_rank_setup_us)
            * 1e-6
        )

        total = off_time + intra_time + latency_time
        if includes_first_alltoallv:
            total += self.first_alltoallv_penalty * (total / calls + 5e-6 * actual_ranks)
        return total


@dataclass(frozen=True)
class CostModel:
    """Bundle of the compute and exchange models with shared defaults."""

    compute: ComputeCostModel = field(default_factory=ComputeCostModel)
    exchange: ExchangeCostModel = field(default_factory=ExchangeCostModel)
