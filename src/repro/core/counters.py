"""Central registry of every pipeline counter name.

Every ``state.counters[...]`` key the stages, the superstep scheduler or the
pipeline driver may write is declared here, once, with a one-line meaning.
The registry is the single source of truth for three consumers:

* the **SL004 lint rule** (:mod:`repro.analysis`): a counter key assigned in
  ``stages.py``/``supersteps.py``/``pipeline.py`` that is not declared here
  is a lint error — counters can no longer drift into existence unnamed;
* the **backend-invariance tests** (``tests/test_backends.py``,
  ``tests/test_supersteps.py``): parity assertions iterate
  :data:`SCHEDULE_FLAG_COUNTERS` from here instead of hand-kept copies;
* **humans**: the meaning of a counter is looked up here, not reverse
  engineered from the assignment site.

Counters fall into two classes.  *Science counters* describe the computed
result (k-mers retained, overlaps found, alignments accepted) and must be
bit-identical across every runtime backend, schedule and encoding knob —
the parity matrices pin exactly that.  *Schedule flags*
(:data:`SCHEDULE_FLAG_COUNTERS`) describe how the result was produced (how
many supersteps overlapped, which x-drop tier and lane type ran) and
legitimately differ between schedules, so cross-schedule comparisons exclude
them.
"""

from __future__ import annotations

__all__ = [
    "PIPELINE_COUNTERS",
    "RECOVERY_COUNTERS",
    "REGISTERED_COUNTERS",
    "SCHEDULE_FLAG_COUNTERS",
    "is_registered",
]

#: name -> one-line meaning.  Grouped by the stage that writes them.
PIPELINE_COUNTERS: dict[str, str] = {
    # -- pipeline driver ----------------------------------------------------
    "input_kmers": "k-mers parsed by stage 1 (its kmers_parsed), counted after the seed-mode sketch",
    "high_freq_threshold": "occurrence cutoff above which a k-mer is considered repetitive",
    "sketch_density_ppm": "k-mers surviving the seed-mode sketch per million extracted (minimizer ablation metric)",
    "query_reads": "reads submitted in the serve-phase query batch",
    # -- stage 1: bloom-filter cardinality pass -----------------------------
    "kmers_extracted_total": "canonical k-mers extracted before any sketching, summed over every extraction pass (one-shot extracts twice: stages 1 and 2)",
    "kmers_after_sketch": "k-mers surviving the seed-mode sketch (equals extracted for seed_mode=reliable)",
    "kmers_parsed": "k-mers parsed out of the streamed read batches",
    "kmers_received_bloom": "k-mers received by their owner rank in the bloom exchange",
    "bloom_payload_bytes": "bytes of k-mer codes moved by the bloom exchange",
    "distinct_keys": "distinct k-mer codes seen by the bloom pass",
    "bloom_nbytes": "bytes allocated to each rank's bloom filter",
    "bloom_stash_total_bytes": "bytes of the per-batch k-mer codes the HyperLogLog pre-pass extracted and stashed for the Bloom supersteps",
    "bloom_stash_peak_bytes": "peak bytes of that extracted-code stash left after any Bloom superstep releases its batch",
    "hll_distinct_estimate": "HyperLogLog estimate of distinct k-mers (recorded once, on rank 0)",
    # -- stage 2: hash-table construction -----------------------------------
    "kmers_received_hashtable": "k-mer occurrences received by their owner in the hash-table exchange",
    "occurrences_stored": "k-mer occurrences inserted into the distributed hash table",
    "hashtable_payload_bytes": "bytes of occurrence keys moved by the hash-table exchange: 8 per occurrence (16 in the two-word layout)",
    "retained_kmers": "distinct reliable k-mers retained after frequency filtering",
    "retained_occurrences": "read occurrences retained under the reliable k-mers",
    "retained_table_peak_bytes": "bytes of the retained table the overlap stage reads",
    # -- stage 3: overlap detection -----------------------------------------
    "pairs_generated": "candidate read pairs generated from shared reliable k-mers",
    "overlap_pairs": "consolidated overlapping read pairs after dedup/seed selection",
    "alignment_tasks": "alignment tasks (pair + seed) handed to stage 4",
    "overlap_exchange_chunks": "supersteps the chunked overlap exchange was split into",
    "overlap_payload_bytes": "bytes of candidate-pair rows moved by the overlap exchange",
    # -- stage 4: alignment -------------------------------------------------
    "alignments": "pairwise alignments computed",
    "accepted_alignments": "alignments passing the score acceptance threshold",
    "dp_cells": "dynamic-programming cells evaluated across all alignments",
    "remote_reads_fetched": "read sequences fetched from remote owner ranks",
    "read_payload_raw_bytes": "ASCII-equivalent bytes of the served read payloads",
    "read_payload_wire_bytes": "bytes of read payloads that actually crossed the exchange",
    # -- per-rank read cache (ReadCache.counters) ---------------------------
    "read_cache_hits": "per-task read lookups (one per task side, ReadCache.code_arena) served from the memo",
    "read_cache_misses": "per-task read lookups that were the first use of a (read, orientation) in the cache",
    "read_cache_fetch_hits": "remote read fetches skipped because the read was already cached",
    # -- serve phase: resident index build + query batches ------------------
    "index_build_runs": "index-build passes executed (on a query batch: the rebuild of an index the ranks reported missing)",
    "index_retained_kmers": "reliable k-mers in the built index",
    "index_retained_occurrences": "read occurrences in the built index",
    "index_occurrences": "occurrences scanned while building the index",
    "index_nbytes": "bytes of the resident index: its sorted occurrence keys, 8 per occurrence (16 in the two-word layout)",
    "index_digest": "content digest of the resident index (staleness detection)",
    "index_reuse_hits": "query batches served from a resident index",
    "index_reads_shipped": "index reads the rebuild job carried after a query batch found the index missing (absent on the hot path)",
    "query_kmers_parsed": "k-mers parsed from the query-batch reads",
    "query_kmers_routed": "query k-mers routed to their index-owner ranks",
    "query_route_payload_bytes": "bytes of occurrence keys moved by the query-routing exchange, in the union read set's layout",
    "query_pairs_generated": "candidate query-target pairs generated from index hits",
    "query_cross_pairs": "query-vs-index pairs kept from the generated pairs (within-side pairs dropped)",
    "query_index_occurrences_touched": "resident index occurrences gathered into query-batch merges (the hit k-mer groups)",
    # -- schedule flags (see SCHEDULE_FLAG_COUNTERS) ------------------------
    "bloom_steps_overlapped": "bloom supersteps whose compute overlapped a peer's exchange",
    "hashtable_steps_overlapped": "hash-table supersteps whose compute overlapped a peer's exchange",
    "overlap_chunks_overlapped": "overlap chunks whose compute overlapped a peer's exchange",
    "query_route_steps_overlapped": "query-routing supersteps whose compute overlapped a peer's exchange",
    "align_native_ranks": "ranks whose alignment stage ran the compiled x-drop tier (0: the NumPy kernel produced the timings)",
    "align_int16_extensions": "x-drop extensions (two per alignment) the compiled kernel ran on 16-bit lanes; the rest ran on 32-bit lanes or NumPy",
    # -- rank-failure recovery (see RECOVERY_COUNTERS) ----------------------
    "rank_failures_detected": "dead rank processes detected by the runtime during this call",
    "pool_respawns": "pool worker processes respawned after a failure eviction",
    "query_batch_retries": "extra attempts a recovered query batch needed beyond the first",
    "recovery_seconds": "wall seconds lost to failed attempts before the winning one (ceil, >=1 when retried)",
}

#: Every declared counter name (what the SL004 lint rule checks against).
REGISTERED_COUNTERS: frozenset[str] = frozenset(PIPELINE_COUNTERS)

#: Counters that describe the *schedule* rather than the science: they
#: legitimately differ between runs of the same input with different
#: superstep counts, or between the compiled and the NumPy x-drop tier, so
#: cross-schedule parity comparisons exclude exactly this set (and nothing
#: else).
SCHEDULE_FLAG_COUNTERS: frozenset[str] = frozenset({
    "bloom_steps_overlapped",
    "hashtable_steps_overlapped",
    "overlap_chunks_overlapped",
    "query_route_steps_overlapped",
    "align_native_ranks",
    "align_int16_extensions",
})

#: Counters that describe *recovery from injected or real rank failures*
#: rather than the science: written by the service layer on results that
#: needed retries (absent from failure-free runs), so bit-identity
#: comparisons between a recovered run and a clean run exclude exactly this
#: set (and nothing else) on the recovered side.
RECOVERY_COUNTERS: frozenset[str] = frozenset({
    "rank_failures_detected",
    "pool_respawns",
    "query_batch_retries",
    "recovery_seconds",
})


def is_registered(name: str) -> bool:
    """Whether *name* is a declared pipeline counter."""
    return name in REGISTERED_COUNTERS
