"""Pipeline orchestration: partition, launch the SPMD program, assemble results."""

from __future__ import annotations

import time

import numpy as np

from repro.core.config import PipelineConfig
from repro.core.result import PipelineResult, RankReport, StageRecord, STAGE_NAMES
from repro.core.stages import (
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
        # Set when a failed run lost the ranks' resident state: the next
        # query batch ships the index reads up front instead of asking the
        # ranks and relaunching.
        self._rank_state_lost = False
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
        """Drop the parent process's resident entries after a failed SPMD run.

        Thread-backend ranks keep their resident index, index reads
        and read caches in this process's registry; after a rank failure
        mid-build it can hold a partially-populated generation, so recovery
        clears it and the retry rebuilds from scratch.  (Process ranks hold
        the equivalents inside the evicted pool's workers — eviction
        already discarded them.)  Either way the ranks no longer hold the
        index reads, so the next query batch ships them.
        """
        reset_resident_indexes()
        self._rank_state_lost = True

    def run(self, readset: ReadSet) -> PipelineResult:
        """Run the full pipeline on *readset* and return the assembled result."""
        if len(readset) == 0:
            raise ValueError("cannot run the pipeline on an empty read set")
        check_reads(readset)
        result = self._launch(run_rank_pipeline, readset, (), STAGE_NAMES)
        result.counters["input_kmers"] = result.counters.get("kmers_parsed", 0)
        return result

    # -- build / serve phases -------------------------------------------------------

    def build_index(self, readset: ReadSet) -> PipelineResult:
        """Build phase: construct the k-mer index and keep it resident.

        Runs :func:`~repro.core.stages.run_index_build` on every rank: the
        stage-2 occurrence exchange over *readset* with no Bloom candidate
        gate, sorted into a per-rank
        :class:`~repro.kmers.hashtable.KmerIndex` published in the
        resident-index registry.  On the process backend the rank pool's
        workers stay parked afterwards, holding their indexes —
        subsequent :meth:`run_query_batch` calls touch zero index-build
        code paths (counter ``index_reuse_hits``).

        The index generation tag folds in every parameter the resident
        layout depends on — the read-set fingerprint, k, the rank count and
        the seed mode — so a rank reused with different parameters
        rebuilds instead of serving a stale index.

        Returns the build's :class:`PipelineResult` (hash-table stage record
        and the ``index_*`` counters; no overlaps or alignments).
        """
        if len(readset) == 0:
            raise ValueError("cannot build an index from an empty read set")
        check_reads(readset)
        config = self.config
        index_tag = (f"{readset.fingerprint()}:k{config.kmer.k}"
                     f":r{self.topology.n_ranks}"
                     f":{self._seed_mode_tag(config)}")
        result = self._launch(run_index_build, readset, (index_tag,),
                              _INDEX_BUILD_STAGES)
        self._index_readset = readset
        self._index_tag = index_tag
        self._rank_state_lost = False
        return result

    def run_query_batch(self, query_reads: ReadSet) -> PipelineResult:
        """Serve phase: align one batch of query reads against the resident index.

        Requires a prior :meth:`build_index` on this pipeline.  The batch's
        k-mers are routed to the owning ranks on the superstep scheduler,
        merged into the resident table once, expanded into
        **query-vs-index** pairs only, and aligned with the unmodified
        read fetch + x-drop stage.  The result's alignments are
        bit-identical to running the one-shot pipeline over (index reads ∪
        query batch) and keeping only its query-vs-index alignments; query
        RIDs in the result are ``n_index_reads + position`` within
        *query_reads*.

        Read names must not collide with the index read set (the
        :class:`~repro.core.service.AlignmentService` front-end prefixes
        submissions to guarantee this).

        The job carries the query reads, the union partition and the index
        size; the ranks keep the index reads beside their resident index.
        The index reads ride along (counter ``index_reads_shipped``) only
        when the ranks lack them: after :meth:`invalidate_resident_state`,
        or on the one relaunch after the ranks reported the index reads
        missing (state lost without this pipeline knowing, e.g. the pool
        was shut down between batches).
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
            combined = ReadSet([*index_readset, *query_reads])
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
        def launch(index_reads: ReadSet | None) -> PipelineResult:
            return self._launch(
                run_query_batch, query_reads,
                (self._index_tag, len(index_readset), index_reads),
                _QUERY_BATCH_STAGES, rid_space=combined)

        ship = self._rank_state_lost
        result = launch(index_readset if ship else None)
        if result.rank_reports[0].resend_index_reads:
            ship = True
            result = launch(index_readset)
        self._rank_state_lost = False
        if ship:
            result.counters["index_reads_shipped"] = len(index_readset)
        result.counters["query_reads"] = len(query_reads)
        return result

    # -- launch and assembly ----------------------------------------------------------

    def _launch(self, program, readset: ReadSet, program_args: tuple,
                stage_names: tuple[str, ...],
                rid_space: ReadSet | None = None) -> PipelineResult:
        """Partition the reads, run *program* on every rank, assemble the result.

        Every rank program takes ``(comm, readset, assignments, config,
        high_freq_threshold, *program_args)``.  *assignments*
        partitions *rid_space* (default: *readset* itself), one RID range
        per rank, so the job's size does not grow with the read count.
        """
        config = self.config
        topology = self.topology
        n_ranks = topology.n_ranks
        # partition_reads hands out contiguous ascending blocks.
        assignments = [range(rids[0], rids[-1] + 1) if rids else range(0)
                       for rids in partition_reads(
                           readset if rid_space is None else rid_space, n_ranks)]
        high_freq_threshold = config.resolve_high_freq_threshold()
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
            trace=trace,
            backend=config.backend,
            # Ignored by spmd_run; perfbench's traced spmd_run sizes each
            # process job (mpisim.job_mb) only when it is set.
            pool=config.backend == "process",
            sanitize=config.sanitize,
            faults=self._next_run_faults(),
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
        index generation tag, like k and the rank count.
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
