"""Per-layer metrics of one traced operation.

Two sources, both outside the program: the spans the benchmark's wrappers
recorded (:mod:`perfbench.tracing`), and what the program already returns —
``RankReport`` counters and stage timers, ``StageRecord`` and ``CommTrace``.
``METRICS.md`` defines every name.
"""

from __future__ import annotations

from statistics import median

import numpy as np

from perfbench.tracing import Span
from perfbench.workloads import OpRecord

#: Stages with busy / exposed / overlapped figures.
STAGES = ("bloom", "hashtable", "query_route", "overlap", "alignment")

#: CommTrace phases with their own wire figure.
PHASES = ("bloom_exchange", "hashtable_exchange", "query_route_exchange",
          "overlap_exchange", "alignment_exchange")

#: name -> unit of every per-layer metric, in report order.
UNITS: dict[str, str] = {
    "align.dp_cells": "count",
    "align.cells_per_s": "1/s",
    "align.calls": "count",
    "align.tasks_per_call": "count",
    "align.call_p50_s": "s",
    "align.accept_ratio": "fraction",
    "align.cells_imbalance": "ratio",
    "align.read_cache_hit_ratio": "fraction",
    "overlap.generate_pairs_s": "s",
    "overlap.pairs_per_s": "1/s",
    "overlap.select_seeds_s": "s",
    "overlap.useful_ratio": "fraction",
    "kmers.retained_ratio": "fraction",
    "kmers.table_peak_mb": "MB",
    "kmers.index_mb": "MB",
    "kmers.insert_kmers_per_s": "1/s",
    "seq.extract_kmers_per_s": "1/s",
    "seq.pack_mb_per_s": "MB/s",
    **{f"mpisim.wire_mb.{phase}": "MB" for phase in PHASES},
    "mpisim.alltoallv_calls": "count",
    "mpisim.exchange_wait_s": "s",
    "mpisim.dispatch_s": "s",
    "mpisim.job_mb": "MB",
    "mpisim.parallel_eff": "fraction",
    **{f"core.{stage}.{part}": "s" for stage in STAGES
       for part in ("busy_s", "exposed_s", "overlapped_s")},
    "core.rank_skew": "ratio",
    "core.driver_s": "s",
    "io.partition_s": "s",
    "core.service.batch_tail_s": "s",
    "core.service.retries": "count",
    "trace.overhead_frac": "fraction",
}


def _ratio(numerator: float, denominator: float) -> float:
    return float(numerator) / float(denominator) if denominator else 0.0


def _named(spans: list[Span], name: str) -> list[Span]:
    return [span for span in spans if span.name == name]


def _per_rank_busy(op: OpRecord) -> np.ndarray:
    """Compute + overlapped seconds per rank, summed over stages and runs."""
    busy = np.zeros(0)
    for result in op.results:
        per_rank = np.array([sum(report.stage_compute_seconds.values())
                             + sum(report.stage_overlapped_seconds.values())
                             for report in result.rank_reports])
        busy = per_rank if busy.size == 0 else busy + per_rank
    return busy


def _stage_slowest(op: OpRecord, stage: str, *attrs: str) -> float:
    """Sum over runs of the slowest rank's *attrs* seconds in *stage*."""
    total = 0.0
    for result in op.results:
        for record in result.stages:
            if record.name == stage:
                per_rank = sum(np.asarray(getattr(record, attr), dtype=np.float64)
                               for attr in attrs)
                total += float(np.max(per_rank, initial=0.0))
    return total


def _rank_counter(op: OpRecord, name: str) -> np.ndarray:
    """Per-rank *name* counter, summed over the op's runs."""
    per_rank = np.zeros(0)
    for result in op.results:
        values = np.array([report.counters.get(name, 0) for report in result.rank_reports],
                          dtype=np.float64)
        per_rank = values if per_rank.size == 0 else per_rank + values
    return per_rank


def op_layer_metrics(op: OpRecord, spans: list[Span],
                     index_counters: dict[str, int]) -> dict[str, float]:
    """Per-layer figures of one traced op (everything but the run-level ones).

    *index_counters* are the counters of the index build a serve loop runs
    against (empty for workloads without a resident index; the index build
    workload passes its own op's counters).
    """
    m: dict[str, float] = {}
    kernel = _named(spans, "align.batched_xdrop_align")
    kernel_s = sum(span.seconds for span in kernel)
    m["align.dp_cells"] = op.counter("dp_cells")
    m["align.cells_per_s"] = _ratio(sum(span.extra for span in kernel), kernel_s)
    m["align.calls"] = len(kernel)
    m["align.tasks_per_call"] = _ratio(sum(span.items for span in kernel), len(kernel))
    m["align.call_p50_s"] = median(span.seconds for span in kernel) if kernel else 0.0
    m["align.accept_ratio"] = _ratio(op.counter("accepted_alignments"),
                                     op.counter("alignments"))
    cells = _rank_counter(op, "dp_cells")
    m["align.cells_imbalance"] = _ratio(cells.max(initial=0.0), cells.mean()) if cells.size else 0.0
    hits = op.counter("read_cache_hits")
    m["align.read_cache_hit_ratio"] = _ratio(hits, hits + op.counter("read_cache_misses"))

    pairs = _named(spans, "overlap.generate_pairs")
    pairs_s = sum(span.seconds for span in pairs)
    pairs_made = sum(span.items for span in pairs)
    m["overlap.generate_pairs_s"] = pairs_s
    m["overlap.pairs_per_s"] = _ratio(pairs_made, pairs_s)
    m["overlap.select_seeds_s"] = sum(span.seconds for span in
                                      _named(spans, "overlap.select_seeds"))
    m["overlap.useful_ratio"] = _ratio(op.counter("overlap_pairs"), pairs_made)

    if index_counters:
        m["kmers.retained_ratio"] = _ratio(index_counters.get("index_retained_occurrences", 0),
                                           index_counters.get("index_occurrences", 0))
    else:
        m["kmers.retained_ratio"] = _ratio(op.counter("retained_occurrences"),
                                           op.counter("occurrences_stored"))
    m["kmers.table_peak_mb"] = _rank_counter(op, "retained_table_peak_bytes").max(initial=0.0) / 1e6
    m["kmers.index_mb"] = index_counters.get("index_nbytes", 0) / 1e6
    hashtable_busy = sum(
        float(np.sum(record.wall_compute_seconds) + np.sum(record.wall_overlapped_seconds))
        for result in op.results for record in result.stages if record.name == "hashtable")
    m["kmers.insert_kmers_per_s"] = _ratio(op.counter("kmers_received_hashtable"),
                                           hashtable_busy)

    extract = _named(spans, "seq.extract_kmers_batch")
    m["seq.extract_kmers_per_s"] = _ratio(sum(span.items for span in extract),
                                          sum(span.seconds for span in extract))
    pack = _named(spans, "seq.pack_read_block")
    m["seq.pack_mb_per_s"] = _ratio(sum(span.items for span in pack) / 1e6,
                                    sum(span.seconds for span in pack))

    for phase in PHASES:
        m[f"mpisim.wire_mb.{phase}"] = sum(
            result.trace.phase_traffic(phase).total_bytes for result in op.results) / 1e6
    m["mpisim.alltoallv_calls"] = sum(result.trace.snapshot()["alltoallv_calls"]
                                      for result in op.results)
    m["mpisim.exchange_wait_s"] = sum(
        max((sum(report.stage_exchange_seconds.values()) for report in result.rank_reports),
            default=0.0)
        for result in op.results)
    runs = _named(spans, "mpisim.spmd_run")
    m["mpisim.dispatch_s"] = sum(span.seconds - span.extra for span in runs)
    m["mpisim.job_mb"] = _ratio(sum(span.items for span in runs) / 1e6, len(runs))

    for stage in STAGES:
        m[f"core.{stage}.busy_s"] = _stage_slowest(op, stage, "wall_compute_seconds",
                                                   "wall_overlapped_seconds")
        m[f"core.{stage}.exposed_s"] = _stage_slowest(op, stage, "wall_exchange_seconds")
        m[f"core.{stage}.overlapped_s"] = _stage_slowest(op, stage, "wall_overlapped_seconds")
    busy = _per_rank_busy(op)
    m["core.rank_skew"] = _ratio(busy.max(initial=0.0), busy.mean()) if busy.size else 0.0
    m["core.slowest_rank_busy_s"] = float(busy.max(initial=0.0))
    m["core.driver_s"] = op.wall - sum(span.seconds for span in runs)
    m["io.partition_s"] = sum(span.seconds for span in _named(spans, "io.partition_reads"))
    m["core.service.retries"] = op.counter("query_batch_retries")
    return m


def tail_latency(walls: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with >= 10 samples beyond it.

    With 10 samples or fewer no percentile qualifies; the median is returned.
    """
    n = len(walls)
    if n <= 10:
        return 50.0, float(np.percentile(walls, 50)) if walls else 0.0
    pct = float(np.floor(100.0 * (n - 10) / n))
    return pct, float(np.percentile(walls, pct))


def combine(per_op: list[dict[str, float]]) -> dict[str, float]:
    """Median over ops of every per-op figure."""
    return {name: float(median(values[name] for values in per_op))
            for name in per_op[0]}
