"""Admission/batching front-end for the serve phase: :class:`AlignmentService`.

The build/serve refactor turns the pipeline into two phases
(:meth:`~repro.core.pipeline.DibellaPipeline.build_index` /
:meth:`~repro.core.pipeline.DibellaPipeline.run_query_batch`); this module
adds the always-on front of the ROADMAP's "alignment service" on top:

* **submit** queues a batch of query reads without running anything — each
  submission's read names are prefixed with a submission sequence number, so
  callers can reuse names freely without colliding with the index read set
  or with each other;
* **drain** coalesces queued submissions into batches of at most
  ``config.serve_batch_reads`` reads (whole submissions — a submission never
  splits across batches, so one caller's reads always align together) and
  runs each batch through the pipeline, returning a per-batch
  :class:`QueryBatchRecord` with the wall latency and the run counters (the
  service itself keeps only each batch's latency and read count);
* **latency_stats** summarises the drained batches (p50/p99 wall seconds
  per batch, reads served per second).

The index is built lazily on the first drain (or eagerly via
:meth:`AlignmentService.build`) and stays resident on the pooled ranks, so
every batch after the first touches zero index-build code paths
(``index_reuse_hits`` in each record's counters).  On the process backend
those ranks are the rank pool's workers, parked between batches.

The service survives rank failures: a build or batch whose SPMD run died
from a :class:`~repro.mpisim.errors.RankFailedError` is retried up to
``config.serve_max_retries`` times with exponential backoff.  A failed
batch never mutates the resident index, so a thread-backend retry reuses
the ranks' registry entries as they are.  On the process backend the
runtime has already evicted the broken pool; the retry lands on freshly
respawned workers, which report the index missing, and the pipeline
rebuilds it with the build program and relaunches the batch.  Either way
retried batches return bit-identical alignments.
Successful-but-retried results carry the recovery evidence in their
counters (``query_batch_retries``, ``rank_failures_detected``,
``pool_respawns``, ``recovery_seconds``); see ``docs/fault-tolerance.md``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.config import PipelineConfig
from repro.core.pipeline import DibellaPipeline
from repro.core.result import PipelineResult
from repro.core.stages import reset_resident_indexes
from repro.mpisim.backend import recovery_counters, shutdown_rank_pools
from repro.mpisim.errors import RankFailedError
from repro.mpisim.topology import Topology
from repro.seq.records import Read, ReadSet

__all__ = ["AlignmentService", "QueryBatchRecord"]


@dataclass(frozen=True)
class QueryBatchRecord:
    """One drained query batch: its shape, latency and run result.

    Attributes
    ----------
    batch_index:
        Position of this batch in the service's drain history (0-based).
    n_reads / n_submissions:
        Reads in the batch and how many submissions were coalesced into it.
    wall_seconds:
        End-to-end latency of the batch (partition + SPMD run + assembly).
    result:
        The batch's :class:`~repro.core.result.PipelineResult`; query RIDs
        are ``n_index_reads + position`` within the batch, and
        ``result.counters`` carries the reuse/rebuild evidence
        (``index_reuse_hits`` vs ``index_build_runs``).
    query_names:
        The batch's (prefixed) read names in RID order — position ``i`` is
        the read serving as RID ``n_index_reads + i``.
    """

    batch_index: int
    n_reads: int
    n_submissions: int
    wall_seconds: float
    result: PipelineResult
    query_names: list[str]


class AlignmentService:
    """Build-once, query-many alignment service over a resident k-mer index.

    Parameters
    ----------
    index_reads:
        The reference read set the index phase builds over.
    config:
        Pipeline parameters.  ``config.serve_batch_reads`` bounds batch
        coalescing.
    topology:
        Simulated node/rank layout (defaults to one node with four ranks,
        like :class:`~repro.core.pipeline.DibellaPipeline`).

    Examples
    --------
    >>> service = AlignmentService(index_reads, config)     # doctest: +SKIP
    >>> service.submit(query_reads)                         # doctest: +SKIP
    0
    >>> records = service.drain()                           # doctest: +SKIP
    >>> records[0].result.alignment_table()                 # doctest: +SKIP
    """

    def __init__(self, index_reads: ReadSet,
                 config: PipelineConfig | None = None,
                 topology: Topology | None = None):
        if len(index_reads) == 0:
            raise ValueError("cannot serve against an empty index read set")
        self.config = config or PipelineConfig()
        self.index_reads = index_reads
        self.pipeline = DibellaPipeline(config=self.config, topology=topology)
        self.build_result: PipelineResult | None = None
        # (wall seconds, reads) of every drained batch, for latency_stats.
        # The records themselves go to drain's caller: a long-lived service
        # must not hold every batch's result.
        self._batch_history: list[tuple[float, int]] = []
        self._pending: list[ReadSet] = []
        self._next_submission = 0
        self._closed = False

    def _check_open(self, what: str) -> None:
        if self._closed:
            raise RuntimeError(
                f"cannot {what}: this AlignmentService was shut down (its "
                "pooled ranks and resident index are gone); build a new one"
            )

    # -- recovery ------------------------------------------------------------

    def _run_recovering(
        self,
        run_once: Callable[[], PipelineResult],
        retry_counter: str | None = None,
    ) -> PipelineResult:
        """Run one SPMD phase, retrying on rank failure.

        A :class:`RankFailedError` means the runtime already reaped the run
        and (on the process backend) evicted the broken pool; this wrapper
        backs off exponentially and re-runs — up to
        ``config.serve_max_retries`` times, after which the last failure
        propagates.  A successful retried result gets the
        recovery evidence folded into its counters: *retry_counter* (attempts
        beyond the first), the runtime's ``rank_failures_detected`` /
        ``pool_respawns`` deltas across the whole call, and
        ``recovery_seconds`` (wall time lost before the winning attempt
        started, rounded up — at least 1 when any retry happened).
        """
        before = recovery_counters()
        first_start = time.perf_counter()
        retries = 0
        while True:
            attempt_start = time.perf_counter()
            try:
                result = run_once()
            except RankFailedError:
                if retries >= self.config.serve_max_retries:
                    raise
                retries += 1
                time.sleep(min(2.0, 0.05 * (2 ** (retries - 1))))
                continue
            after = recovery_counters()
            counters = result.counters
            for key in ("rank_failures_detected", "pool_respawns"):
                delta = after[key] - before[key]
                if delta:
                    # spmdlint: disable=SL004 registered recovery counters
                    # (repro.core.counters); written here, outside the ranks.
                    counters[key] = counters.get(key, 0) + delta
            if retries:
                if retry_counter is not None:
                    # spmdlint: disable=SL004 the caller passes a registered
                    # counter name (drain: query_batch_retries).
                    counters[retry_counter] = (
                        counters.get(retry_counter, 0) + retries)
                counters["recovery_seconds"] = (
                    counters.get("recovery_seconds", 0)
                    + max(1, math.ceil(attempt_start - first_start)))
            return result

    # -- build phase ---------------------------------------------------------

    def build(self) -> PipelineResult:
        """Build the resident index now (idempotent; drain calls it lazily)."""
        self._check_open("build the index")
        if self.build_result is None:
            self.build_result = self._run_recovering(
                lambda: self.pipeline.build_index(self.index_reads))
        return self.build_result

    # -- admission -----------------------------------------------------------

    def submit(self, reads: ReadSet | list[Read]) -> int:
        """Queue one submission of query reads; returns its submission id.

        Nothing runs until :meth:`drain`.  Each read is renamed to
        ``q<submission>/<original name>`` so distinct submissions (and the
        index read set) never collide on names.  The submission's
        :class:`ReadSet` is built here, so a bad base or a repeated name is
        rejected at admission: never coalesced with good submissions, and
        never retried as if a rank had died.
        """
        self._check_open("submit queries")
        query_set = reads if isinstance(reads, ReadSet) else ReadSet(reads)
        if not len(query_set):
            raise ValueError("cannot submit an empty query read set")
        submission = self._next_submission
        self._next_submission += 1
        self._pending.append(query_set.renamed(f"q{submission}/"))
        return submission

    # -- serve phase ---------------------------------------------------------

    def _take_batch(self) -> list[ReadSet]:
        """Pop whole submissions up to ``serve_batch_reads`` reads.

        Always takes at least one submission, so an oversized submission
        becomes its own batch instead of deadlocking the queue.
        """
        bound = self.config.serve_batch_reads
        batch = [self._pending.pop(0)]
        n_reads = len(batch[0])
        while self._pending and n_reads + len(self._pending[0]) <= bound:
            n_reads += len(self._pending[0])
            batch.append(self._pending.pop(0))
        return batch

    def drain(self) -> list[QueryBatchRecord]:
        """Run every queued submission through the pipeline; return new records.

        Builds the index first if no build has happened yet (that cost lands
        outside the per-batch latency records).  Queued submissions are
        coalesced into batches of at most ``config.serve_batch_reads`` reads
        and each batch is one SPMD run against the resident index.
        """
        self._check_open("drain queries")
        self.build()
        new_records: list[QueryBatchRecord] = []
        while self._pending:
            batch = self._take_batch()
            query_set = ReadSet.concat(batch)
            start = time.perf_counter()
            # Retries happen inside the timed window: a recovered batch's
            # wall_seconds (and latency_stats) include the recovery cost.
            result = self._run_recovering(
                lambda: self.pipeline.run_query_batch(query_set),
                retry_counter="query_batch_retries",
            )
            wall_seconds = time.perf_counter() - start
            record = QueryBatchRecord(
                batch_index=len(self._batch_history),
                n_reads=len(query_set),
                n_submissions=len(batch),
                wall_seconds=wall_seconds,
                result=result,
                query_names=query_set.names(),
            )
            self._batch_history.append((wall_seconds, len(query_set)))
            new_records.append(record)
        return new_records

    # -- reporting -----------------------------------------------------------

    def latency_stats(self) -> dict[str, float]:
        """p50/p99 batch latency and reads-per-second over all drained batches."""
        if not self._batch_history:
            return {"batches": 0.0, "reads": 0.0, "p50_seconds": 0.0,
                    "p99_seconds": 0.0, "reads_per_second": 0.0}
        walls = np.array([wall for wall, _reads in self._batch_history])
        total_reads = sum(reads for _wall, reads in self._batch_history)
        total_wall = float(walls.sum())
        return {
            "batches": float(len(self._batch_history)),
            "reads": float(total_reads),
            "p50_seconds": float(np.percentile(walls, 50)),
            "p99_seconds": float(np.percentile(walls, 99)),
            "reads_per_second": (total_reads / total_wall) if total_wall > 0 else 0.0,
        }

    def shutdown(self) -> None:
        """Release the service's pooled ranks (and their resident indexes).

        Idempotent.  Afterwards :meth:`build`, :meth:`submit` and
        :meth:`drain` raise ``RuntimeError`` — the resident index is gone,
        so silently rebuilding on a "closed" service would hide a lifecycle
        bug in the caller.
        """
        self._closed = True
        shutdown_rank_pools()
        # Thread-backend ranks keep their entries in this process.
        reset_resident_indexes()
