"""Regression net: pinned wire traffic, counters and stage records per launch.

One tiny fixed workload is run through all three launches — the one-shot
``run``, the build phase ``build_index`` and a serve-phase
``run_query_batch`` — and each result is reduced to its fingerprint:

* per ``CommTrace`` phase, the bytes moved and the alltoallv calls;
* the cross-rank summed counters, minus the schedule flags;
* the stage-record names.

The one-shot and serve paths share their stage implementations, so a
refactor of either must leave every number here unchanged.  Every knob is
spelled out in the config so no ``DIBELLA_*`` environment default leaks in.
"""

from __future__ import annotations

from repro.core import DibellaPipeline, PipelineConfig
from repro.core.counters import SCHEDULE_FLAG_COUNTERS
from repro.core.result import PipelineResult
from repro.core.stages import reset_persistent_read_caches, reset_resident_indexes
from repro.mpisim.topology import Topology
from repro.seq.kmer import KmerSpec
from repro.seq.records import ReadSet

CONFIG = PipelineConfig(
    kmer=KmerSpec(k=15), coverage_hint=12.0, error_rate_hint=0.08,
    seed_mode="reliable", batch_reads=8, backend="thread", exchange_chunk_mb=0.05,
    double_buffer=True, pool=False, read_cache_mb=0.0,
    sanitize=False, fault_plan=None, collective="flat", rank_groups=None,
    pin_ranks=False,
)
RANKS = 3

EXPECTED = {
    "run": {
        "phases": {"bloom_exchange": (374832, 2),
                   "hashtable_exchange": (553008, 2),
                   "overlap_exchange": (887688, 6),
                   "alignment_exchange": (16755, 2)},
        "alltoallv_calls": 12,
        "counters": {
            "accepted_alignments": 424,
            "alignment_tasks": 424, "alignments": 424,
            "bloom_nbytes": 20097, "bloom_payload_bytes": 276480,
            "bloom_stash_peak_bytes": 108080, "bloom_stash_total_bytes": 276480,
            "distinct_keys": 3265, "dp_cells": 12350848,
            "hashtable_payload_bytes": 552960, "high_freq_threshold": 28,
            "hll_distinct_estimate": 25784, "input_kmers": 34560,
            "kmers_after_sketch": 69120, "kmers_extracted_total": 69120,
            "kmers_parsed": 34560, "kmers_received_bloom": 34560,
            "kmers_received_hashtable": 34560, "occurrences_stored": 12168,
            "overlap_exchange_chunks": 18, "overlap_pairs": 424,
            "overlap_payload_bytes": 887640, "pairs_generated": 22191,
            "read_cache_fetch_hits": 0, "read_cache_hits": 726,
            "read_cache_misses": 122, "read_payload_raw_bytes": 59908,
            "read_payload_wire_bytes": 15003, "remote_reads_fetched": 67,
            "retained_kmers": 3128, "retained_occurrences": 12031,
            "retained_table_peak_bytes": 254599, "sketch_density_ppm": 1000000,
        },
        "stages": ["bloom", "hashtable", "overlap", "alignment"],
    },
    "build_index": {
        "phases": {"hashtable_exchange": (441584, 2)},
        "alltoallv_calls": 2,
        "counters": {
            "hashtable_payload_bytes": 441536,
            "high_freq_threshold": 28, "index_build_runs": 3,
            "index_digest": 14980271729248855857, "index_nbytes": 808180,
            "index_occurrences": 27596, "index_retained_kmers": 2726,
            "index_retained_occurrences": 9133, "kmers_after_sketch": 27596,
            "kmers_extracted_total": 27596, "kmers_received_hashtable": 27596,
            "occurrences_stored": 27596, "sketch_density_ppm": 1000000,
        },
        "stages": ["hashtable"],
    },
    "run_query_batch": {
        "phases": {"query_route_exchange": (111520, 2),
                   "overlap_exchange": (313808, 5),
                   "alignment_exchange": (8911, 2)},
        "alltoallv_calls": 9,
        "counters": {
            "accepted_alignments": 150,
            "alignment_tasks": 150, "alignments": 150,
            "dp_cells": 4179712, "high_freq_threshold": 28,
            "index_reuse_hits": 3, "kmers_after_sketch": 6964,
            "kmers_extracted_total": 6964, "overlap_exchange_chunks": 15,
            "overlap_pairs": 150, "overlap_payload_bytes": 313760,
            "query_cross_pairs": 7844, "query_index_occurrences_touched": 5114,
            "query_kmers_parsed": 6964,
            "query_kmers_routed": 6964, "query_pairs_generated": 16460,
            "query_reads": 10, "query_route_payload_bytes": 111424,
            "read_cache_fetch_hits": 0, "read_cache_hits": 237,
            "read_cache_misses": 63, "read_payload_raw_bytes": 31556,
            "read_payload_wire_bytes": 7903, "remote_reads_fetched": 36,
            "retained_kmers": 1663, "retained_occurrences": 7564,
            "sketch_density_ppm": 1000000,
        },
        "stages": ["hashtable", "query_route", "overlap", "alignment"],
    },
}


def _fingerprint(result: PipelineResult) -> dict:
    trace = result.trace
    return {
        "phases": {phase: (trace.phase_traffic(phase).total_bytes,
                           trace.phase_traffic(phase).collective_calls)
                   for phase in trace.phases()},
        "alltoallv_calls": trace.snapshot()["alltoallv_calls"],
        "counters": {name: value for name, value in result.counters.items()
                     if name not in SCHEDULE_FLAG_COUNTERS},
        "stages": [record.name for record in result.stages],
    }


def test_launch_fingerprints_are_pinned(micro_dataset):
    reads = list(micro_dataset.reads)
    n_index = 3 * len(reads) // 4
    topology = Topology.single_node(RANKS)
    try:
        got = {"run": _fingerprint(
            DibellaPipeline(config=CONFIG, topology=topology).run(ReadSet(reads)))}
        pipeline = DibellaPipeline(config=CONFIG, topology=topology)
        got["build_index"] = _fingerprint(pipeline.build_index(ReadSet(reads[:n_index])))
        got["run_query_batch"] = _fingerprint(
            pipeline.run_query_batch(ReadSet(reads[n_index:])))
    finally:
        reset_persistent_read_caches()
        reset_resident_indexes()
    for launch, expected in EXPECTED.items():
        for key, value in expected.items():
            assert got[launch][key] == value, f"{launch}: {key}"
