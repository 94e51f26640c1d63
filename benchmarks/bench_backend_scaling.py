"""Benchmark: thread vs process runtime backend at multi-rank scale.

The thread backend runs P ranks under one GIL, so rank *compute* largely
serialises; the process backend gives every rank its own interpreter and
exchanges typed buffers through shared memory, so P ranks really occupy P
cores.  Two measurements:

* **Overlap-stage gate** — an SPMD program running exactly the overlap
  stage's hot path (chunked pair generation → bucketing → ``alltoallv``
  supersteps → lexsort consolidation → batched seed selection) on per-rank
  synthetic retained-k-mer partitions.  On a host with at least ``RANKS``
  cores the process backend must beat threads by ``MIN_OVERLAP_SPEEDUP`` —
  the regression gate for "P ranks buy real parallelism".  On smaller hosts
  (e.g. single-core CI containers) no parallel speedup is physically
  possible, so the gate is reported but not enforced.

* **End-to-end pipeline** — the full four-stage pipeline on a small 30x
  workload under both backends, reported per stage, with the scientific
  output asserted identical (the runtime backend must never change the
  answer).

* **Wire-packing gate** — the pipeline's 2-bit packed alignment-stage read
  blocks.  Pure byte accounting from the run's own counters (deterministic
  on any host, always enforced): the packed read payload must be ≤ 0.3x the
  raw one-byte-per-base bytes.

* **Serve-latency gate** — warm query batches drained against a resident
  index (build/serve split, pooled process backend) vs a cold one-shot
  pipeline over the same union read set.  Every batch must reuse the
  resident index (zero rebuild counters, always asserted); on hosts with
  enough cores the batch p99 wall must be well under the cold run.

* **Pool-amortisation gate** — two consecutive pooled pipeline runs: the
  first pays pool creation (fork + queue setup) and cold read caches, the
  second must be faster (and fetch zero remote reads — its rank processes
  kept their caches).  Output asserted identical across both runs and the
  unpooled baseline.

Runs standalone: ``python benchmarks/bench_backend_scaling.py``.
Environment knobs: ``REPRO_BENCH_RANKS`` (default 4),
``REPRO_BENCH_GENOME`` (default 12000 bp, pipeline part),
``REPRO_BENCH_OVERLAP_REPEATS`` (default 3, gate part).
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.config import PipelineConfig
from repro.core.driver import run_dibella
from repro.data.datasets import DatasetSpec, generate_dataset
from repro.data.genome import GenomeSpec
from repro.data.reads import ReadSimSpec
from repro.kmers.hashtable import KmerHashTablePartition
from repro.kmers.reliable import high_frequency_threshold
from repro.mpisim.collectives import bucket_by_destination
from repro.mpisim.runtime import spmd_run
from repro.overlap.pairs import (
    OverlapTable,
    PairBatch,
    choose_owner,
    generate_pairs,
    pair_chunk_ranges,
)
from repro.overlap.seeds import SeedStrategy, select_seeds_batched
from repro.seq.kmer import KmerSpec, extract_kmers_batch

#: Ranks per run (and the core count needed before the gate is enforced).
RANKS = int(os.environ.get("REPRO_BENCH_RANKS", "4"))
#: Required overlap-stage speedup of the process backend over threads.
MIN_OVERLAP_SPEEDUP = 1.5
#: Wire budget per overlap-exchange superstep in the gate program.
CHUNK_BYTES = 8 << 20


# ---------------------------------------------------------------------------
# Part 1: the overlap-stage gate
# ---------------------------------------------------------------------------

def _rank_partition(rank: int, k: int = 17):
    """A synthetic 30x retained-k-mer partition, distinct per rank."""
    spec = DatasetSpec(
        name=f"backend-overlap-{rank}",
        genome=GenomeSpec(length=10000, repeat_fraction=0.02, repeat_length=300,
                          seed=500 + rank),
        reads=ReadSimSpec(coverage=30.0, mean_read_length=1000,
                          min_read_length=400, error_rate=0.10, seed=600 + rank),
    )
    dataset = generate_dataset(spec)
    codes, read_index, positions, strands = extract_kmers_batch(
        [read.sequence for read in dataset.reads], KmerSpec(k=k), with_strand=True
    )
    part = KmerHashTablePartition()
    part.add_candidate_keys(codes)
    part.finalize_keys()
    part.add_occurrences(codes, read_index.astype(np.int64), positions, strands)
    retained = part.finalize(min_count=2,
                             max_count=high_frequency_threshold(30.0, 0.10, k))
    n_reads = len(dataset.reads)
    return retained, n_reads


def _overlap_stage_program(comm, partitions, n_reads_max, repeats):
    """The overlap stage's exact hot path, measured per rank."""
    retained = partitions[comm.rank]
    read_owner = np.arange(n_reads_max, dtype=np.int64) % comm.size
    # d=k ("all seeds"): the maximum-computation seed-selection setting.
    strategy = SeedStrategy.separated_by(17)
    start = time.perf_counter()
    for _ in range(repeats):
        chunks = pair_chunk_ranges(retained, CHUNK_BYTES)
        n_supersteps = int(comm.allreduce(len(chunks), op="max"))
        received_batches: list[PairBatch] = []
        for step in range(n_supersteps):
            if step < len(chunks):
                pairs = generate_pairs(retained, kmer_range=chunks[step])
            else:
                pairs = PairBatch.empty()
            if len(pairs):
                destinations = choose_owner(pairs.rid_a, pairs.rid_b, read_owner,
                                            swapped=pairs.swapped)
                send = bucket_by_destination(pairs.to_matrix(), destinations,
                                             comm.size)
            else:
                send = [np.empty((0, 5), dtype=np.int64) for _ in range(comm.size)]
            received = comm.alltoallv(send)
            received_batches.extend(
                PairBatch.from_matrix(np.asarray(c)) for c in received
            )
        table = OverlapTable.from_pairs(PairBatch.concatenate(received_batches))
        select_seeds_batched(table, strategy)
    return time.perf_counter() - start


def run_overlap_gate() -> dict[str, float]:
    repeats = int(os.environ.get("REPRO_BENCH_OVERLAP_REPEATS", "3"))
    built = [_rank_partition(rank) for rank in range(RANKS)]
    partitions = [retained for retained, _ in built]
    n_reads_max = max(n for _, n in built)
    metrics: dict[str, float] = {
        "overlap_retained_kmers": float(sum(p.n_kmers for p in partitions)),
        "overlap_repeats": float(repeats),
    }
    for backend in ("thread", "process"):
        wall = time.perf_counter()
        rank_seconds = spmd_run(RANKS, _overlap_stage_program, partitions,
                                n_reads_max, repeats, backend=backend)
        metrics[f"{backend}_overlap_gate_wall"] = time.perf_counter() - wall
        metrics[f"{backend}_overlap_gate_max_rank"] = max(rank_seconds)
    metrics["overlap_speedup"] = (
        metrics["thread_overlap_gate_wall"]
        / max(metrics["process_overlap_gate_wall"], 1e-12)
    )
    return metrics


# ---------------------------------------------------------------------------
# Part 2: the end-to-end pipeline comparison
# ---------------------------------------------------------------------------

def _pipeline_workload():
    genome_length = int(os.environ.get("REPRO_BENCH_GENOME", "12000"))
    spec = DatasetSpec(
        name="backend-scaling",
        genome=GenomeSpec(length=genome_length, repeat_fraction=0.02,
                          repeat_length=300, seed=99),
        reads=ReadSimSpec(coverage=30.0, mean_read_length=1000,
                          min_read_length=400, error_rate=0.10, seed=100),
    )
    return generate_dataset(spec).reads


def _stage_walls(result) -> dict[str, float]:
    """Per-stage wall span: max over ranks of compute + exchange seconds."""
    walls = {}
    for record in result.stages:
        walls[record.name] = float(
            (record.wall_compute_seconds + record.wall_exchange_seconds).max(initial=0.0)
        )
    return walls


def run_pipeline_comparison() -> dict[str, float]:
    reads = _pipeline_workload()
    config = PipelineConfig(coverage_hint=30.0, error_rate_hint=0.10,
                            kmer=KmerSpec(k=17))
    metrics: dict[str, float] = {
        "reads": float(len(reads)),
        "bases": float(reads.total_bases),
    }
    results = {}
    for backend in ("thread", "process"):
        result = run_dibella(reads, config=config.with_backend(backend),
                             n_nodes=1, ranks_per_node=RANKS)
        results[backend] = result
        metrics[f"{backend}_wall_seconds"] = result.wall_seconds
        for stage, wall in _stage_walls(result).items():
            metrics[f"{backend}_{stage}_seconds"] = wall
    thread, process = results["thread"], results["process"]
    assert thread.overlap_pairs() == process.overlap_pairs(), \
        "backends disagree on the scientific output"
    metrics["overlap_pairs"] = float(thread.n_overlap_pairs)
    metrics["pipeline_speedup"] = (
        metrics["thread_wall_seconds"] / max(metrics["process_wall_seconds"], 1e-12)
    )
    return metrics


# ---------------------------------------------------------------------------
# Part 3: the wire-packing gate (alignment-exchange read-payload bytes)
# ---------------------------------------------------------------------------

#: Required ratio of packed to raw alignment-stage read-payload bytes.  The
#: 2-bit codec stores 4 bases/byte with per-read byte-boundary padding, so
#: realistic read lengths land at ~0.25x; 0.3x leaves headroom for the
#: padding while still catching any regression to a byte-per-base format.
MAX_PACKED_PAYLOAD_RATIO = 0.3


def run_wire_packing_gate() -> dict[str, float]:
    """Packed read exchange: >= ~3.3x fewer payload bytes than one per base.

    Raw (one byte per base) and wire bytes both come from the run's own
    ``read_payload_*_bytes`` counters.  Unlike the timing gates this one is
    pure byte accounting — deterministic on any host — so it is always
    enforced.
    """
    reads = _pipeline_workload()
    config = PipelineConfig(coverage_hint=30.0, error_rate_hint=0.10,
                            kmer=KmerSpec(k=17))
    packed = run_dibella(reads, config=config, n_nodes=1, ranks_per_node=RANKS)
    raw_bytes = packed.counters["read_payload_raw_bytes"]
    assert raw_bytes > 0, "wire-packing gate workload exchanged no reads"
    return {
        "packing_raw_payload_bytes": float(raw_bytes),
        "packing_packed_payload_bytes": float(
            packed.counters["read_payload_wire_bytes"]),
        "packing_payload_ratio": (
            packed.counters["read_payload_wire_bytes"] / raw_bytes),
        "packing_exchange_bytes": float(
            packed.trace.phase_traffic("alignment_exchange").total_bytes),
    }


# ---------------------------------------------------------------------------
# Part 4: the pool-amortisation gate
# ---------------------------------------------------------------------------

def _alignment_tables_equal(a, b) -> bool:
    ta, tb = a.alignment_table(), b.alignment_table()
    return all(np.array_equal(ta[col], tb[col]) for col in ta)


def run_pool_gate() -> dict[str, float]:
    """Two consecutive pooled runs: the second must beat the first cold one.

    Uses a deliberately small workload (``REPRO_BENCH_POOL_GENOME``, default
    5000 bp): pool amortisation targets exactly the regime where per-run
    fixed costs — forking ranks, importing, re-fetching and re-encoding
    reads — are a visible fraction of the run.
    """
    from repro.core.stages import reset_persistent_read_caches
    from repro.mpisim.backend import shutdown_rank_pools

    genome_length = int(os.environ.get("REPRO_BENCH_POOL_GENOME", "5000"))
    spec = DatasetSpec(
        name="pool-amortisation",
        genome=GenomeSpec(length=genome_length, repeat_fraction=0.02,
                          repeat_length=300, seed=199),
        reads=ReadSimSpec(coverage=30.0, mean_read_length=1000,
                          min_read_length=400, error_rate=0.10, seed=200),
    )
    reads = generate_dataset(spec).reads
    config = PipelineConfig(coverage_hint=30.0, error_rate_hint=0.10,
                            kmer=KmerSpec(k=17), backend="process", pool=True)
    shutdown_rank_pools()
    reset_persistent_read_caches()
    try:
        start = time.perf_counter()
        cold = run_dibella(reads, config=config, n_nodes=1, ranks_per_node=RANKS)
        cold_wall = time.perf_counter() - start
        start = time.perf_counter()
        warm = run_dibella(reads, config=config, n_nodes=1, ranks_per_node=RANKS)
        warm_wall = time.perf_counter() - start
    finally:
        shutdown_rank_pools()
        reset_persistent_read_caches()
    assert _alignment_tables_equal(cold, warm), \
        "pooled rank reuse changed the scientific output"
    assert warm.counters["read_cache_fetch_hits"] > 0, \
        "second pooled run fetched no reads from the persistent cache"
    assert warm.counters["remote_reads_fetched"] == 0, \
        "second pooled run still fetched remote reads"
    return {
        "pool_cold_seconds": cold_wall,
        "pool_warm_seconds": warm_wall,
        "pool_amortization": cold_wall / max(warm_wall, 1e-12),
        "pool_warm_fetch_hits": float(warm.counters["read_cache_fetch_hits"]),
    }


# ---------------------------------------------------------------------------
# Part 5: the serve-latency gate
# ---------------------------------------------------------------------------

#: Required ratio of warm query-batch p99 latency to the cold one-shot wall.
#: A served batch routes only the query reads' k-mers against the resident
#: index (no bloom pass, no table rebuild, warm read caches), so it must be
#: well under a cold full-pipeline run over the same union read set.
MAX_SERVE_P99_RATIO = 0.5


def run_serve_gate() -> dict[str, float]:
    """Warm query batches against a resident index vs a cold one-shot run.

    Builds the index once on a pooled process-backend service, drains three
    query batches, and compares the batch p99 wall to a cold one-shot
    pipeline over (index + query).  Every batch must reuse the resident
    index (zero rebuild counters) — asserted unconditionally; the latency
    gate is enforced only on hosts with enough cores.
    """
    from repro.core import AlignmentService
    from repro.core.stages import reset_persistent_read_caches, reset_resident_indexes
    from repro.mpisim.backend import shutdown_rank_pools
    from repro.seq.records import ReadSet

    genome_length = int(os.environ.get("REPRO_BENCH_POOL_GENOME", "5000"))
    spec = DatasetSpec(
        name="serve-latency",
        genome=GenomeSpec(length=genome_length, repeat_fraction=0.02,
                          repeat_length=300, seed=299),
        reads=ReadSimSpec(coverage=30.0, mean_read_length=1000,
                          min_read_length=400, error_rate=0.10, seed=300),
    )
    reads = list(generate_dataset(spec).reads)
    n_index = (3 * len(reads)) // 4
    index_reads, queries = ReadSet(reads[:n_index]), reads[n_index:]
    config = PipelineConfig(coverage_hint=30.0, error_rate_hint=0.10,
                            kmer=KmerSpec(k=17), backend="process", pool=True)
    shutdown_rank_pools()
    reset_persistent_read_caches()
    reset_resident_indexes()
    try:
        start = time.perf_counter()
        run_dibella(ReadSet(reads), config=config.with_pool(False),
                    n_nodes=1, ranks_per_node=RANKS)
        cold_wall = time.perf_counter() - start

        n_batches = 3
        per_batch = max(1, (len(queries) + n_batches - 1) // n_batches)
        service = AlignmentService(
            index_reads, config=config.with_serve_batch_reads(per_batch))
        service.build()
        for lo in range(0, len(queries), per_batch):
            service.submit(queries[lo:lo + per_batch])
        records = service.drain()
        assert len(records) >= 2, "serve gate produced fewer than 2 query batches"
        for record in records:
            counters = record.result.counters
            assert counters["index_reuse_hits"] == RANKS, \
                "a serve-gate query batch missed the resident index"
            assert counters.get("index_build_runs", 0) == 0, \
                "a serve-gate query batch rebuilt the index"
        stats = service.latency_stats()
    finally:
        shutdown_rank_pools()
        reset_persistent_read_caches()
        reset_resident_indexes()
    return {
        "serve_cold_oneshot_seconds": cold_wall,
        "serve_batches": stats["batches"],
        "serve_batch_p50_seconds": stats["p50_seconds"],
        "serve_batch_p99_seconds": stats["p99_seconds"],
        "serve_reads_per_second": stats["reads_per_second"],
        "serve_p99_ratio": stats["p99_seconds"] / max(cold_wall, 1e-12),
    }


def run_bench() -> dict[str, float]:
    metrics = {
        "ranks": float(RANKS),
        "cores": float(os.cpu_count() or 1),
    }
    metrics.update(run_overlap_gate())
    metrics.update(run_pipeline_comparison())
    metrics.update(run_wire_packing_gate())
    metrics.update(run_pool_gate())
    metrics.update(run_serve_gate())
    return metrics


def format_report(metrics: dict[str, float]) -> str:
    gate_active = metrics["cores"] >= metrics["ranks"]
    lines = [
        f"backend scaling bench ({metrics['ranks']:.0f} ranks, "
        f"{metrics['cores']:.0f} cores)",
        f"overlap-stage gate ({metrics['overlap_retained_kmers']:.0f} retained "
        f"k-mers, x{metrics['overlap_repeats']:.0f} repeats):",
        f"  thread  : {metrics['thread_overlap_gate_wall']:.3f}s wall "
        f"(slowest rank {metrics['thread_overlap_gate_max_rank']:.3f}s)",
        f"  process : {metrics['process_overlap_gate_wall']:.3f}s wall "
        f"(slowest rank {metrics['process_overlap_gate_max_rank']:.3f}s)",
        f"  speedup : {metrics['overlap_speedup']:.2f}x — gate >= "
        f"{MIN_OVERLAP_SPEEDUP:.1f}x "
        + ("(enforced)" if gate_active else
           f"(not enforced: only {metrics['cores']:.0f} cores for "
           f"{metrics['ranks']:.0f} ranks — no parallel speedup possible)"),
        f"end-to-end pipeline ({metrics['reads']:.0f} reads, "
        f"{metrics['bases'] / 1e6:.2f} Mbp, {metrics['overlap_pairs']:.0f} "
        f"overlap pairs):",
        f"  {'stage':<12} {'thread':>10} {'process':>10} {'speedup':>9}",
    ]
    for stage in ("bloom", "hashtable", "overlap", "alignment"):
        t = metrics[f"thread_{stage}_seconds"]
        p = metrics[f"process_{stage}_seconds"]
        lines.append(f"  {stage:<12} {t:>9.3f}s {p:>9.3f}s {t / max(p, 1e-12):>8.2f}x")
    lines.append(
        f"  {'pipeline':<12} {metrics['thread_wall_seconds']:>9.3f}s "
        f"{metrics['process_wall_seconds']:>9.3f}s {metrics['pipeline_speedup']:>8.2f}x"
    )
    lines.extend([
        "wire-packing gate (alignment-stage read payload):",
        f"  raw {metrics['packing_raw_payload_bytes'] / 1e3:.1f} kB -> packed "
        f"{metrics['packing_packed_payload_bytes'] / 1e3:.1f} kB "
        f"(ratio {metrics['packing_payload_ratio']:.3f}, gate <= "
        f"{MAX_PACKED_PAYLOAD_RATIO:.2f} always enforced); "
        f"alignment-exchange trace {metrics['packing_exchange_bytes'] / 1e3:.1f} kB",
        f"pool-amortisation gate (process backend, {metrics['ranks']:.0f} ranks):",
        f"  cold {metrics['pool_cold_seconds']:.3f}s -> warm "
        f"{metrics['pool_warm_seconds']:.3f}s "
        f"({metrics['pool_amortization']:.2f}x, {metrics['pool_warm_fetch_hits']:.0f} "
        f"cross-run read-cache fetch hits; gate > 1.0 "
        + ("enforced)" if gate_active else "not enforced on this host)"),
        f"serve-latency gate ({metrics['serve_batches']:.0f} query batches "
        f"against the resident index, process backend + pool):",
        f"  cold one-shot {metrics['serve_cold_oneshot_seconds']:.3f}s; warm "
        f"batch p50 {metrics['serve_batch_p50_seconds'] * 1e3:.1f}ms, p99 "
        f"{metrics['serve_batch_p99_seconds'] * 1e3:.1f}ms "
        f"({metrics['serve_reads_per_second']:.0f} reads/s; p99 ratio "
        f"{metrics['serve_p99_ratio']:.3f}, gate <= {MAX_SERVE_P99_RATIO:.2f} "
        + ("enforced)" if gate_active else "not enforced on this host)"),
    ])
    return "\n".join(lines)


if __name__ == "__main__":
    bench_metrics = run_bench()
    bench_report = format_report(bench_metrics)
    print(bench_report)
    results_dir = Path(__file__).resolve().parent / "results"
    results_dir.mkdir(exist_ok=True)
    (results_dir / "backend_scaling.txt").write_text(bench_report + "\n",
                                                    encoding="utf-8")
    gate_enforced = bench_metrics["cores"] >= bench_metrics["ranks"]
    if gate_enforced and bench_metrics["overlap_speedup"] < MIN_OVERLAP_SPEEDUP:
        sys.exit(
            f"FAIL: overlap-stage speedup {bench_metrics['overlap_speedup']:.2f}x "
            f"below the {MIN_OVERLAP_SPEEDUP:.1f}x gate on a "
            f"{bench_metrics['cores']:.0f}-core host"
        )
    if bench_metrics["packing_payload_ratio"] > MAX_PACKED_PAYLOAD_RATIO:
        sys.exit(
            f"FAIL: packed alignment read payload is "
            f"{bench_metrics['packing_payload_ratio']:.3f}x the raw bytes "
            f"(gate <= {MAX_PACKED_PAYLOAD_RATIO:.2f})"
        )
    if gate_enforced and bench_metrics["pool_amortization"] <= 1.0:
        sys.exit(
            f"FAIL: second pooled run ({bench_metrics['pool_warm_seconds']:.3f}s) "
            f"was not faster than the cold run "
            f"({bench_metrics['pool_cold_seconds']:.3f}s)"
        )
    if gate_enforced and bench_metrics["serve_p99_ratio"] > MAX_SERVE_P99_RATIO:
        sys.exit(
            f"FAIL: warm query-batch p99 "
            f"({bench_metrics['serve_batch_p99_seconds']:.3f}s) is "
            f"{bench_metrics['serve_p99_ratio']:.3f}x the cold one-shot wall "
            f"(gate <= {MAX_SERVE_P99_RATIO:.2f})"
        )
    print("PASS")
