"""Result containers for a pipeline run.

A run produces three kinds of information:

* the scientific output — consolidated overlaps and their best alignments,
* per-stage *work counters* and *working-set sizes* per rank, which the
  performance model projects onto the paper's platforms,
* the run's communication trace (owned by the caller, referenced here).

``StageRecord`` implements the duck-typed protocol
:class:`repro.netmodel.projection.StageRecordLike`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.config import PipelineConfig
from repro.mpisim.topology import Topology
from repro.mpisim.tracing import CommTrace
from repro.overlap.pairs import OverlapRecord, OverlapTable

#: Canonical stage names, in pipeline order.
STAGE_NAMES: tuple[str, ...] = ("bloom", "hashtable", "overlap", "alignment")


@dataclass(frozen=True)
class StageRecord:
    """Per-stage measurements of one pipeline run.

    Attributes
    ----------
    name:
        Stage name (one of :data:`STAGE_NAMES`).
    items:
        Total number of "throughput items" — the unit the paper's per-stage
        figures use (k-mers for stages 1-2, retained k-mer occurrences for
        stage 3, alignments for stage 4).
    work_unit:
        Key into the compute cost model's rate table.
    work_per_rank:
        Work units processed by each rank (drives projected compute time and
        the load-imbalance metric).
    local_bytes_per_rank:
        Approximate per-rank working set, for the cache-effect model.
    exchange_phases:
        Trace phase labels carrying this stage's communication.
    includes_first_alltoallv:
        True for the stage that issued the run's first global Alltoallv (the
        Bloom-filter stage), which carries the MPI setup penalty of §10.
    wall_compute_seconds / wall_exchange_seconds:
        Actually measured per-rank wall times in this process — meaningful
        for single-node comparisons (Table 2), not for cross-platform
        projection.  ``wall_exchange_seconds`` measures *blocking*
        communication only, so under the double-buffered exchanges it is
        the **exposed** exchange time.
    wall_overlapped_seconds:
        Per-rank compute performed while an exchange superstep was in flight
        (latency hidden by double buffering); zero for stages with at most
        one superstep.
    """

    name: str
    items: int
    work_unit: str
    work_per_rank: np.ndarray
    local_bytes_per_rank: np.ndarray
    exchange_phases: list[str]
    includes_first_alltoallv: bool = False
    wall_compute_seconds: np.ndarray = field(default_factory=lambda: np.zeros(0))
    wall_exchange_seconds: np.ndarray = field(default_factory=lambda: np.zeros(0))
    wall_overlapped_seconds: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def load_imbalance(self) -> float:
        """Work imbalance across ranks: max over mean (1.0 = perfect)."""
        work = np.asarray(self.work_per_rank, dtype=np.float64)
        if work.size == 0 or work.sum() == 0:
            return 1.0
        return float(work.max() / work.mean())

    def wall_load_imbalance(self) -> float:
        """Measured-time imbalance: max over mean of per-rank stage wall time.

        This is the paper's Figure 8 metric ("maximum per rank alignment
        stage times over average times across ranks").
        """
        total = np.asarray(self.wall_compute_seconds, dtype=np.float64) + np.asarray(
            self.wall_exchange_seconds, dtype=np.float64
        )
        overlapped = np.asarray(self.wall_overlapped_seconds, dtype=np.float64)
        if overlapped.size == total.size:
            # Overlapped compute is real per-rank wall time; without this the
            # double-buffered schedule would under-report a rank's load.
            total = total + overlapped
        if total.size == 0 or total.sum() == 0:
            return 1.0
        return float(total.max() / total.mean())


@dataclass
class RankReport:
    """Everything one rank returns from the SPMD pipeline program."""

    rank: int
    # stage name -> work units processed on this rank
    stage_work: dict[str, float]
    # stage name -> approximate working-set bytes on this rank
    stage_bytes: dict[str, float]
    # stage name -> measured compute / exchange wall seconds on this rank
    # (exchange = blocking calls only, i.e. the exposed time)
    stage_compute_seconds: dict[str, float]
    stage_exchange_seconds: dict[str, float]
    # scalar counters
    counters: dict[str, int]
    # consolidated overlaps owned by this rank (struct-of-arrays table;
    # iterates as OverlapRecord objects)
    overlaps: OverlapTable
    # alignment output: parallel arrays (one entry per accepted alignment)
    aln_rid_a: np.ndarray
    aln_rid_b: np.ndarray
    aln_score: np.ndarray
    aln_span_a: np.ndarray
    aln_span_b: np.ndarray
    # stage name -> compute seconds spent while an exchange was in flight
    # (the latency double buffering hid)
    stage_overlapped_seconds: dict[str, float] = field(default_factory=dict)
    # set by a query batch that found no resident index on some rank: the
    # rank did nothing, and the parent rebuilds the index and relaunches
    index_missing: bool = False


@dataclass
class PipelineResult:
    """The complete output of one diBELLA run."""

    config: PipelineConfig
    topology: Topology
    trace: CommTrace
    stages: list[StageRecord]
    rank_reports: list[RankReport]
    counters: dict[str, int]
    wall_seconds: float

    # -- stage access ------------------------------------------------------------

    def stage(self, name: str) -> StageRecord:
        """Look up a stage record by name."""
        for record in self.stages:
            if record.name == name:
                return record
        raise KeyError(f"no stage named {name!r}")

    # -- scientific output ----------------------------------------------------------

    @property
    def n_overlap_pairs(self) -> int:
        """Number of distinct overlapping read pairs detected."""
        return self.counters.get("overlap_pairs", 0)

    @property
    def n_alignments(self) -> int:
        """Number of pairwise alignments computed (>= overlap pairs when using multiple seeds)."""
        return self.counters.get("alignments", 0)

    @property
    def n_retained_kmers(self) -> int:
        """Number of retained (reliable) k-mers across all partitions."""
        return self.counters.get("retained_kmers", 0)

    def overlaps(self) -> list[OverlapRecord]:
        """All consolidated overlap records, gathered across ranks."""
        out: list[OverlapRecord] = []
        for report in self.rank_reports:
            out.extend(report.overlaps)
        return out

    def overlap_tables(self) -> list[OverlapTable]:
        """Per-rank consolidated overlap tables (the flat representation)."""
        return [report.overlaps for report in self.rank_reports]

    def overlap_pairs(self) -> set[tuple[int, int]]:
        """The set of overlapping (rid_a, rid_b) pairs, rid_a < rid_b."""
        pairs: set[tuple[int, int]] = set()
        for table in self.overlap_tables():
            pairs.update(zip(table.rid_a.tolist(), table.rid_b.tolist()))
        return pairs

    def alignment_table(self) -> dict[str, np.ndarray]:
        """Accepted alignments as parallel arrays gathered across ranks."""
        def cat(attr: str) -> np.ndarray:
            arrays = [getattr(r, attr) for r in self.rank_reports]
            non_empty = [a for a in arrays if a.size]
            if not non_empty:
                return np.empty(0, dtype=np.int64)
            return np.concatenate(non_empty)

        return {
            "rid_a": cat("aln_rid_a"),
            "rid_b": cat("aln_rid_b"),
            "score": cat("aln_score"),
            "span_a": cat("aln_span_a"),
            "span_b": cat("aln_span_b"),
        }

    # -- performance summaries ------------------------------------------------------

    def load_imbalance(self, stage: str = "alignment") -> float:
        """Measured-time load imbalance of a stage (Figure 8's metric)."""
        return self.stage(stage).wall_load_imbalance()

    def summary(self) -> dict[str, float]:
        """One-line summary of the run (counts plus wall time)."""
        return {
            "n_ranks": float(self.topology.n_ranks),
            "n_nodes": float(self.topology.n_nodes),
            "input_kmers": float(self.counters.get("input_kmers", 0)),
            "distinct_keys": float(self.counters.get("distinct_keys", 0)),
            "retained_kmers": float(self.counters.get("retained_kmers", 0)),
            "overlap_pairs": float(self.n_overlap_pairs),
            "alignments": float(self.n_alignments),
            "accepted_alignments": float(self.counters.get("accepted_alignments", 0)),
            "wall_seconds": self.wall_seconds,
        }
