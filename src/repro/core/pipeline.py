"""Pipeline orchestration: partition, launch the SPMD program, assemble results."""

from __future__ import annotations

import time

import numpy as np

from repro.core.config import PipelineConfig
from repro.core.result import PipelineResult, RankReport, StageRecord, STAGE_NAMES
from repro.core.stages import (
    reset_persistent_read_caches,
    reset_resident_indexes,
    run_index_build,
    run_query_batch,
    run_rank_pipeline,
)
from repro.io.partition import partition_reads
from repro.mpisim.faults import FaultPlan, RunFaults
from repro.mpisim.runtime import spmd_run
from repro.mpisim.topology import Topology
from repro.mpisim.tracing import CommTrace
from repro.seq.encoding import check_reads
from repro.seq.records import ReadSet

#: Stage name -> (work unit for the cost model, exchange phase label,
#: counter providing the stage's "throughput items").
_STAGE_METADATA: dict[str, tuple[str, str, str]] = {
    "bloom": ("kmers_bloom", "bloom_exchange", "kmers_received_bloom"),
    "hashtable": ("kmers_hashtable", "hashtable_exchange", "kmers_received_hashtable"),
    "overlap": ("retained_kmers", "overlap_exchange", "retained_kmers"),
    "alignment": ("dp_cells", "alignment_exchange", "alignments"),
    "query_route": ("query_kmers", "query_route_exchange", "query_kmers_routed"),
}

#: Stage sequences of the phase-split runs (the one-shot run uses
#: ``STAGE_NAMES``).  The build phase only runs the stage-2 exchange; a
#: query batch routes its k-mers, reuses the overlap/alignment stages, and
#: — only when a rank lost its resident index — re-runs the hash-table
#: build, whose record then shows the rebuild cost (all-zero otherwise).
_INDEX_BUILD_STAGES: tuple[str, ...] = ("hashtable",)
_QUERY_BATCH_STAGES: tuple[str, ...] = ("hashtable", "query_route", "overlap",
                                        "alignment")


class DibellaPipeline:
    """The diBELLA distributed overlap-and-alignment pipeline.

    Parameters
    ----------
    config:
        Runtime parameters (see :class:`~repro.core.config.PipelineConfig`).
        ``config.backend`` selects the SPMD runtime backend: threads (the
        default) or one process per rank exchanging typed buffers through
        shared memory.
    topology:
        Simulated node/rank layout.  The number of simulated ranks bounds the
        thread/process count; the projection onto real platforms uses the
        node count plus the platform's own cores-per-node.
    """

    def __init__(self, config: PipelineConfig | None = None,
                 topology: Topology | None = None):
        self.config = config or PipelineConfig()
        self.topology = topology or Topology.single_node(4)
        # Serve-phase handle, set by build_index: the index read set and the
        # resident-index generation tag query batches run against.
        self._index_readset: ReadSet | None = None
        self._index_tag: str | None = None
        # One FaultPlan per pipeline: its run-binding cursor hands each
        # spmd_run launch a stable ordinal (build = 0, first batch = 1, ...),
        # so retried runs are fault-free unless the plan targets them.
        self._fault_plan: FaultPlan | None = (
            FaultPlan.parse(self.config.fault_plan)
            if self.config.fault_plan else None
        )

    def _next_run_faults(self) -> RunFaults | None:
        """The fault set of the next SPMD launch (None without a plan)."""
        if self._fault_plan is None:
            return None
        return self._fault_plan.bind_next_run()

    def invalidate_resident_state(self) -> None:
        """Drop parent-process resident registries after a failed SPMD run.

        Thread-backend runs keep read caches and resident index shards in
        this process's registries; after a rank failure mid-build those can
        hold partially-populated generations, so recovery clears them and
        the retry rebuilds from scratch.  (Process-pool runs hold the
        equivalents inside the evicted worker processes — eviction already
        discarded them.)
        """
        reset_persistent_read_caches()
        reset_resident_indexes()

    def run(self, readset: ReadSet) -> PipelineResult:
        """Run the full pipeline on *readset* and return the assembled result."""
        if len(readset) == 0:
            raise ValueError("cannot run the pipeline on an empty read set")
        check_reads(readset)
        # Under the persistent rank pool, tag this run's read caches with the
        # data set's content digest so reused ranks hit across runs over the
        # same reads — and never across different read sets.
        result = self._launch(run_rank_pipeline, readset, (), STAGE_NAMES,
                              self._pool_cache_tag(readset.fingerprint()))
        result.counters["input_kmers"] = result.counters.get("kmers_parsed", 0)
        return result

    # -- build / serve phases -------------------------------------------------------

    def build_index(self, readset: ReadSet) -> PipelineResult:
        """Build phase: construct the sharded k-mer index and keep it resident.

        Runs :func:`~repro.core.stages.run_index_build` on every rank: the
        stage-2 occurrence exchange over *readset* with no Bloom candidate
        gate, sorted into a per-rank
        :class:`~repro.kmers.hashtable.ShardedKmerIndex` published in the
        resident-index registry.  Under the rank pool (process backend) the
        worker processes stay parked afterwards, holding their index shards
        — subsequent :meth:`run_query_batch` calls touch zero index-build
        code paths (counter ``index_reuse_hits``).

        The index generation tag folds in every parameter the resident
        layout depends on — the read-set fingerprint, k, the shard count and
        the rank count — so a pooled rank reused with different parameters
        rebuilds instead of serving a stale index.

        Returns the build's :class:`PipelineResult` (hash-table stage record
        and the ``index_*`` counters; no overlaps or alignments).
        """
        if len(readset) == 0:
            raise ValueError("cannot build an index from an empty read set")
        check_reads(readset)
        config = self.config
        index_tag = (f"{readset.fingerprint()}:k{config.kmer.k}"
                     f":s{config.hash_table_shards}:r{self.topology.n_ranks}"
                     f":{self._seed_mode_tag(config)}")
        result = self._launch(run_index_build, readset, (index_tag,),
                              _INDEX_BUILD_STAGES, self._pool_cache_tag(index_tag))
        self._index_readset = readset
        self._index_tag = index_tag
        return result

    def run_query_batch(self, query_reads: ReadSet) -> PipelineResult:
        """Serve phase: align one batch of query reads against the resident index.

        Requires a prior :meth:`build_index` on this pipeline.  The batch's
        k-mers are routed to the owning index shards on the superstep
        scheduler, merged into the resident table per shard, expanded into
        **query-vs-index** pairs only, and aligned with the unmodified
        read fetch + x-drop stage.  The result's alignments are
        bit-identical to running the one-shot pipeline over (index reads ∪
        query batch) and keeping only its query-vs-index alignments; query
        RIDs in the result are ``n_index_reads + position`` within
        *query_reads*.

        Read names must not collide with the index read set (the
        :class:`~repro.core.service.AlignmentService` front-end prefixes
        submissions to guarantee this).
        """
        if self._index_readset is None or self._index_tag is None:
            raise RuntimeError(
                "run_query_batch requires build_index first: the serve phase "
                "aligns queries against the resident index of a build phase"
            )
        if len(query_reads) == 0:
            raise ValueError("cannot serve an empty query batch")
        # The index reads were checked by build_index.
        check_reads(query_reads)
        index_readset = self._index_readset
        try:
            combined = ReadSet(list(index_readset) + list(query_reads))
        except ValueError as exc:
            raise ValueError(
                "query read names collide with the index read set (or each "
                "other); submit queries through AlignmentService, which "
                "prefixes each submission's names"
            ) from exc

        # The combined set is partitioned exactly as a one-shot run over it
        # would be: the union partition defines both the serve-phase read
        # ownership and the arrival-order emulation that makes the served
        # alignments bit-identical to that run's query-vs-index subset.
        # Query runs share the *index* generation's read caches: index reads
        # stay warm across batches, and each batch's query RIDs are evicted
        # on entry (RIDs >= n_index_reads are reused).
        result = self._launch(run_query_batch, combined,
                              (self._index_tag, len(index_readset)),
                              _QUERY_BATCH_STAGES,
                              self._pool_cache_tag(self._index_tag))
        result.counters["query_reads"] = len(query_reads)
        return result

    # -- launch and assembly ----------------------------------------------------------

    def _pool_cache_tag(self, base: str) -> str | None:
        """The persistent read-cache tag for a run (None without the pool)."""
        return base if self.config.pool else None

    def _launch(self, program, readset: ReadSet, program_args: tuple,
                stage_names: tuple[str, ...], cache_tag: str | None) -> PipelineResult:
        """Partition *readset*, run *program* on every rank, assemble the result.

        Every rank program takes ``(comm, readset, assignments, config,
        high_freq_threshold, *program_args, cache_tag=...)``.
        """
        config = self.config
        topology = self.topology
        n_ranks = topology.n_ranks
        assignments = partition_reads(readset, n_ranks)
        high_freq_threshold = config.resolve_high_freq_threshold(readset)
        trace = CommTrace(n_ranks)

        start = time.perf_counter()
        reports: list[RankReport] = spmd_run(
            n_ranks,
            program,
            readset,
            assignments,
            config,
            high_freq_threshold,
            *program_args,
            topology=topology,
            trace=trace,
            backend=config.backend,
            pool=config.pool,
            sanitize=config.sanitize,
            faults=self._next_run_faults(),
            cache_tag=cache_tag,
        )
        wall_seconds = time.perf_counter() - start

        counters = self._aggregate_counters(reports)
        counters["high_freq_threshold"] = high_freq_threshold
        self._record_sketch_density(counters)
        return PipelineResult(
            config=config,
            topology=topology,
            trace=trace,
            stages=self._build_stage_records(reports, stage_names),
            rank_reports=reports,
            counters=counters,
            wall_seconds=wall_seconds,
        )

    @staticmethod
    def _build_stage_records(reports: list[RankReport],
                             stage_names: tuple[str, ...]) -> list[StageRecord]:
        records: list[StageRecord] = []
        for stage in stage_names:
            work_unit, exchange_phase, item_counter = _STAGE_METADATA[stage]
            work = np.array([r.stage_work.get(stage, 0.0) for r in reports])
            local_bytes = np.array([r.stage_bytes.get(stage, 0.0) for r in reports])
            compute = np.array([r.stage_compute_seconds.get(stage, 0.0) for r in reports])
            exchange = np.array([r.stage_exchange_seconds.get(stage, 0.0) for r in reports])
            overlapped = np.array([r.stage_overlapped_seconds.get(stage, 0.0)
                                   for r in reports])
            items = int(sum(r.counters.get(item_counter, 0) for r in reports))
            records.append(
                StageRecord(
                    name=stage,
                    items=items,
                    work_unit=work_unit,
                    work_per_rank=work,
                    local_bytes_per_rank=local_bytes,
                    exchange_phases=[exchange_phase],
                    includes_first_alltoallv=(stage == "bloom"),
                    wall_compute_seconds=compute,
                    wall_exchange_seconds=exchange,
                    wall_overlapped_seconds=overlapped,
                )
            )
        return records

    @staticmethod
    def _aggregate_counters(reports: list[RankReport]) -> dict[str, int]:
        counters: dict[str, int] = {}
        for report in reports:
            for key, value in report.counters.items():
                # spmdlint: disable=SL004 cross-rank sum of already-written
                # counters; keys are checked at their write sites.
                counters[key] = counters.get(key, 0) + int(value)
        return counters

    @staticmethod
    def _seed_mode_tag(config: PipelineConfig) -> str:
        """The index-tag segment identifying the seeding front-end.

        A resident index built in one seed mode must never serve queries
        sketched in another (or with another window) — the merged occurrence
        streams would disagree — so the sketch parameters are part of the
        index generation tag, like k and the shard count.
        """
        if config.seed_mode == "minimizer":
            return f"minw{config.minimizer_window}"
        return "reliable"

    @staticmethod
    def _record_sketch_density(counters: dict[str, int]) -> None:
        """Derive the reported sketch density from the summed stream counters.

        ``sketch_density_ppm`` = surviving k-mers per million extracted
        (1,000,000 in reliable mode, ~2e6/(w+1) in minimizer mode).  Computed
        after cross-rank aggregation from the two summed totals, so it is an
        exact function of the sketched stream — identical across backends
        and schedules, preserving the counter-parity invariant.
        """
        extracted = counters.get("kmers_extracted_total", 0)
        if extracted > 0:
            counters["sketch_density_ppm"] = int(round(
                1_000_000 * counters.get("kmers_after_sketch", 0) / extracted))
