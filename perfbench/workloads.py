"""The three benchmark workloads: inputs, set-up, the timed operation, checks.

Every workload runs 2 ranks and one client.  Inputs and ground truth are
made from the seed in the constructor, before anything is timed; the
repeatable part of set-up (pool spawn, index build) is :meth:`setup`, and
the timed operation is :meth:`op`.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field

from repro.core.config import PipelineConfig
from repro.core.pipeline import DibellaPipeline
from repro.core.result import PipelineResult
from repro.core.service import AlignmentService
from repro.core.stages import reset_persistent_read_caches, reset_resident_indexes
from repro.mpisim.backend import shutdown_rank_pools
from repro.mpisim.runtime import spmd_run
from repro.mpisim.topology import Topology
from repro.seq.kmer import KmerSpec
from repro.seq.records import ReadSet
from repro.stats.quality import overlap_recall_precision

from perfbench.inputs import ReadLayout, simulate

N_RANKS = 2

#: Recall is measured against the pairs whose reads truly overlap by at
#: least RECALL_MIN_OVERLAP bases; precision against those overlapping by at
#: least PRECISION_MIN_OVERLAP, so a detected pair with a genuine but short
#: overlap is not counted as a false positive.
RECALL_MIN_OVERLAP = 500
PRECISION_MIN_OVERLAP = 100
RECALL_FLOOR = 0.90
PRECISION_FLOOR = 0.50


@dataclass
class OpRecord:
    """What one timed operation produced.

    ``results`` is dropped by :meth:`release` once the run has summarised
    it, so a run's memory does not grow with the number of ops.
    """

    wall: float
    results: list[PipelineResult]
    batch_walls: list[float]
    attempted: int
    failed: int
    detected: set[tuple[int, int]] = field(default_factory=set)
    #: Share of the machine's CPU ticks stolen by the hypervisor during the op.
    steal_frac: float = 0.0
    wire_bytes: int = field(init=False)
    counters: dict[str, int] = field(init=False)
    batch_counters: list[dict[str, int]] = field(init=False)

    def __post_init__(self) -> None:
        self.wire_bytes = sum(result.trace.total_bytes() for result in self.results)
        self.batch_counters = [result.counters for result in self.results]
        self.counters = {}
        for counters in self.batch_counters:
            for name, value in counters.items():
                self.counters[name] = self.counters.get(name, 0) + value

    def counter(self, name: str) -> int:
        return self.counters.get(name, 0)

    def release(self) -> None:
        self.results = []


def _reset_rank_state(comm, drop_index: bool) -> int:
    """Rank program: drop a pooled rank's read caches (and resident index)."""
    if drop_index:
        reset_resident_indexes()
    reset_persistent_read_caches()
    gc.collect()
    return comm.rank


def _reset_pooled_ranks(drop_index: bool) -> None:
    """Reset every pooled rank (spawning the pool if there is none)."""
    spmd_run(N_RANKS, _reset_rank_state, drop_index, backend="process", pool=True)


def _config(backend: str, coverage: float, error_rate: float) -> PipelineConfig:
    # Every knob is spelled out, so no DIBELLA_* environment default leaks in.
    return PipelineConfig(
        kmer=KmerSpec(k=17), coverage_hint=coverage, error_rate_hint=error_rate,
        seed_mode="reliable", backend=backend, pool=backend == "process",
        double_buffer=True, double_buffer_stages=None, wire_packing=True,
        hash_table_shards=4, alignment_batch_tasks=None, batch_reads=2048,
        exchange_chunk_mb=8.0, read_cache_mb=0.0, sanitize=False,
        fault_plan=None, serve_max_retries=2, collective="flat",
        rank_groups=None, pin_ranks=False,
    )


class Workload:
    """Common shape; subclasses fill in inputs, set-up, the op and checks."""

    name = ""

    def setup(self) -> None:
        """The repeatable part of set-up (runs several times; the last stays)."""

    def op(self) -> OpRecord:
        raise NotImplementedError

    def check(self, ops: list[OpRecord], seed: int) -> list[str]:
        """Failed correctness checks (empty when every check passes)."""
        failures = []
        wires = {op.wire_bytes for op in ops}
        if len(wires) > 1:
            failures.append(f"wire bytes differ between identical ops: {sorted(wires)}")
        if len({frozenset(op.detected) for op in ops}) > 1:
            failures.append("identical ops detected different overlap sets")
        for op in ops:
            recall, precision = self.quality(op)
            if recall < RECALL_FLOOR or precision < PRECISION_FLOOR:
                failures.append(f"overlap recall {recall:.4f} / precision {precision:.4f} "
                                f"below floors {RECALL_FLOOR} / {PRECISION_FLOOR}")
        return failures

    def index_counters(self, op: OpRecord) -> dict[str, int]:
        """Counters of the index build *op* ran against (none by default)."""
        return {}

    def quality(self, op: OpRecord) -> tuple[float, float]:
        """(recall, precision) of *op*'s overlaps against the true overlaps."""
        recall = overlap_recall_precision(op.detected, self.truth_recall).recall
        precision = overlap_recall_precision(op.detected, self.truth_precision).precision
        return recall, precision

    def teardown(self) -> None:
        shutdown_rank_pools()
        reset_persistent_read_caches()
        reset_resident_indexes()


class OneshotDense(Workload):
    """``DibellaPipeline.run`` on a dense 30x set, default thread backend."""

    name = "oneshot_dense"

    LAYOUTS = {
        "full": ReadLayout(genome_length=10_000, coverage=30.0,
                           mean_read_length=2_000, error_rate=0.12, repeat_fraction=0.0),
        "tiny": ReadLayout(genome_length=3_000, coverage=30.0,
                           mean_read_length=1_000, error_rate=0.12, repeat_fraction=0.0),
    }

    def __init__(self, seed: int, size: str):
        layout = self.LAYOUTS[size]
        sim = simulate(layout, seed)
        self.reads = sim.reads
        self.truth_recall = sim.truth(RECALL_MIN_OVERLAP)
        self.truth_precision = sim.truth(PRECISION_MIN_OVERLAP)
        self.config = _config("thread", layout.coverage, layout.error_rate)

    def run_once(self, n_ranks: int) -> PipelineResult:
        pipe = DibellaPipeline(self.config, Topology.single_node(n_ranks))
        return pipe.run(self.reads)

    def op(self) -> OpRecord:
        start = time.perf_counter()
        result = self.run_once(N_RANKS)
        wall = time.perf_counter() - start
        return OpRecord(wall=wall, results=[result], batch_walls=[wall],
                        attempted=1, failed=0, detected=result.overlap_pairs())


class ServeSmall(Workload):
    """A closed loop of tiny query batches against a resident index."""

    name = "serve_small"

    LAYOUTS = {
        "full": (ReadLayout(genome_length=31_000, coverage=30.0, mean_read_length=2_000,
                            error_rate=0.10, repeat_fraction=0.0), 15),
        "tiny": (ReadLayout(genome_length=4_000, coverage=30.0, mean_read_length=800,
                            error_rate=0.10, repeat_fraction=0.0), 6),
    }
    #: Reads per submission, cycled over the query reads.
    BATCH_SIZES = (1, 2)

    def __init__(self, seed: int, size: str):
        # The index is the simulated set minus the query reads at its end.
        layout, n_queries = self.LAYOUTS[size]
        sim = simulate(layout, seed, n_tail=n_queries)
        reads = list(sim.reads)
        n_index = len(reads) - n_queries
        self.n_index = n_index
        self.index_reads = ReadSet(reads[:n_index])
        queries = reads[n_index:]
        # A fixed list of submissions; each is its own batch (the client
        # drains one before sending the next).
        self.batches: list[list] = []
        offset, turn = 0, 0
        while offset < len(queries):
            size_now = self.BATCH_SIZES[turn % len(self.BATCH_SIZES)]
            self.batches.append(queries[offset : offset + size_now])
            offset += size_now
            turn += 1
        # Truth restricted to query-vs-index pairs, in union RIDs.
        self.truth_recall, self.truth_precision = (
            {pair for pair in sim.truth(min_overlap) if pair[0] < n_index <= pair[1]}
            for min_overlap in (RECALL_MIN_OVERLAP, PRECISION_MIN_OVERLAP))
        self.config = _config("process", layout.coverage, layout.error_rate)
        self.service: AlignmentService | None = None

    def setup(self) -> None:
        shutdown_rank_pools()
        self.service = AlignmentService(self.index_reads, self.config,
                                        Topology.single_node(N_RANKS))
        self.service.build()

    def index_counters(self, op: OpRecord) -> dict[str, int]:
        return self.service.build_result.counters

    def op(self) -> OpRecord:
        # Every loop starts from the same state: resident index, cold caches.
        _reset_pooled_ranks(drop_index=False)
        gc.collect()
        service = self.service
        results, walls, detected = [], [], set()
        attempted = failed = 0
        first_query = self.n_index
        loop_start = time.perf_counter()
        for batch in self.batches:
            start = time.perf_counter()
            service.submit(batch)
            (record,) = service.drain()
            walls.append(time.perf_counter() - start)
            retries = record.result.counters.get("query_batch_retries", 0)
            attempted += 1 + retries
            failed += retries
            results.append(record.result)
            # Batch RIDs n_index + i map to the union RID of query read i.
            shift = first_query - self.n_index
            detected.update((a, b + shift) for a, b in record.result.overlap_pairs())
            first_query += len(batch)
        wall = time.perf_counter() - loop_start
        return OpRecord(wall=wall, results=results, batch_walls=walls,
                        attempted=attempted, failed=failed, detected=detected)

    def check(self, ops, seed):
        failures = super().check(ops, seed)
        for op in ops:
            for index, counters in enumerate(op.batch_counters):
                hits = counters.get("index_reuse_hits", 0)
                builds = counters.get("index_build_runs", 0)
                if hits != N_RANKS or builds != 0:
                    failures.append(f"batch {index}: index_reuse_hits={hits}, "
                                    f"index_build_runs={builds}")
        return failures


class IndexSparse(Workload):
    """``AlignmentService.build()`` on a sparse 3x set of a 1.5 Mbp genome."""

    name = "index_sparse"

    LAYOUTS = {
        "full": ReadLayout(genome_length=1_500_000, coverage=3.0,
                           mean_read_length=2_000, error_rate=0.12),
        "tiny": ReadLayout(genome_length=150_000, coverage=3.0,
                           mean_read_length=1_500, error_rate=0.12),
    }

    #: ``index_digest`` (summed over the 2 ranks) of the full-size input for
    #: seeds 0-9, the same on the thread and process backends; the index of
    #: any other seed is checked for repeatability within the run.
    PINNED_DIGESTS: dict[int, int] = {
        0: 7889443451807554054, 1: 7726206238219807180, 2: 6752899718886403793,
        3: 15922940928955862264, 4: 1438553659183365185, 5: 11498013228490900696,
        6: 12816259336611928455, 7: 13026730155998819805, 8: 8681349040895211493,
        9: 9637563836743273737,
    }

    def __init__(self, seed: int, size: str):
        layout = self.LAYOUTS[size]
        self.reads = simulate(layout, seed).reads
        self.size = size
        # No overlaps are computed, so the op's truth sets are empty.
        self.truth_recall: set[tuple[int, int]] = set()
        self.truth_precision: set[tuple[int, int]] = set()
        self.config = _config("process", layout.coverage, layout.error_rate)

    def setup(self) -> None:
        shutdown_rank_pools()
        _reset_pooled_ranks(drop_index=True)

    def op(self) -> OpRecord:
        # Each build starts with no resident index in the ranks.
        _reset_pooled_ranks(drop_index=True)
        gc.collect()
        service = AlignmentService(self.reads, self.config,
                                   Topology.single_node(N_RANKS))
        start = time.perf_counter()
        result = service.build()
        wall = time.perf_counter() - start
        return OpRecord(wall=wall, results=[result], batch_walls=[wall],
                        attempted=1, failed=0)

    def index_counters(self, op: OpRecord) -> dict[str, int]:
        return op.counters

    def check(self, ops, seed):
        failures = super().check(ops, seed)
        digests = {op.counter("index_digest") for op in ops}
        if len(digests) > 1:
            failures.append(f"index_digest differs between builds: {sorted(digests)}")
        pinned = self.PINNED_DIGESTS.get(seed) if self.size == "full" else None
        if pinned is not None and digests != {pinned}:
            failures.append(f"index_digest {sorted(digests)} != pinned {pinned} "
                            f"for seed {seed}")
        if any(op.counter("dp_cells") for op in ops):
            failures.append("the index build ran alignments")
        return failures


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (OneshotDense, ServeSmall, IndexSparse)
}
