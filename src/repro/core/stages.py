"""The four pipeline stages as per-rank SPMD functions.

``run_rank_pipeline`` is the program every simulated rank executes (the body
of the SPMD job an MPI implementation would run on every process).  Each
stage follows the structure of §§6-9 of the paper:

* parse / compute locally,
* pack per-destination buffers,
* exchange with ``alltoallv``,
* process the received data.

The streamed exchange loops of stages 1-3 run on the shared
:class:`~repro.core.supersteps.SuperstepSchedule`: the stages only provide
produce/consume callbacks, and the scheduler owns global step-count
agreement, the double-buffered split-phase schedule, and the
exposed-vs-overlapped timer attribution.
Stage 4's read fetch is one request/response round.

Wall time is measured separately for the compute and exchange parts of every
stage (the paper's runtime-breakdown figures), and each stage accumulates the
machine-independent work counters the performance model projects onto the
Table 1 platforms.
"""

from __future__ import annotations

import threading
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from repro import native
from repro.align import batch as align_batch
from repro.align.batch import TaskBatch
from repro.align.read_cache import ReadCache
from repro.core.config import PipelineConfig
from repro.core.result import RankReport
from repro.core.supersteps import ScheduleOutcome, StageTimer, SuperstepSchedule
from repro.kmers.bloom import BloomFilter
from repro.kmers.hashing import owner_of
from repro.kmers.hashtable import (
    OCCURRENCE_NBYTES,
    RetainedKmers,
    ShardedKmerIndex,
    key_mask,
    shard_code_boundaries,
)
from repro.kmers.hyperloglog import HyperLogLog
from repro.kmers.minimizer import minimizer_mask, sketch_hash
from repro.mpisim.collectives import bucket_by_destination
from repro.mpisim.communicator import SimCommunicator
from repro.overlap.pairs import (
    OverlapTable,
    PairBatch,
    choose_owner,
    generate_pairs,
    pair_chunk_ranges,
)
from repro.overlap.seeds import select_seeds_batched
from repro.seq.kmer import extract_kmers_batch
from repro.seq.packing import PackedReadBlock, pack_read_block
from repro.seq.records import ReadSet

@dataclass
class _RankState:
    """Mutable per-rank state threaded through the stages."""

    config: PipelineConfig
    readset: ReadSet
    local_rids: list[int]
    read_owner: np.ndarray
    high_freq_threshold: int
    overlaps: OverlapTable = field(default_factory=OverlapTable.empty)
    tasks: TaskBatch = field(default_factory=TaskBatch.empty)
    #: Accepted alignments as (rid_a, rid_b, score, span_a, span_b) columns.
    accepted: tuple[np.ndarray, ...] = field(
        default_factory=lambda: tuple(np.empty(0, dtype=np.int64) for _ in range(5)))
    read_cache: ReadCache = field(default_factory=ReadCache)
    timers: dict[str, StageTimer] = field(default_factory=dict)
    work: dict[str, float] = field(default_factory=dict)
    local_bytes: dict[str, float] = field(default_factory=dict)
    counters: dict[str, int] = field(default_factory=dict)

    def timer(self, stage: str) -> StageTimer:
        return self.timers.setdefault(stage, StageTimer())


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

#: Read caches that outlive a single pipeline run, keyed by (generation tag,
#: rank).  Under the persistent rank pool a worker process survives across
#: ``spmd_run`` invocations, so keeping its rank's cache here lets the second
#: run over the same data set skip the remote fetches the first already paid
#: for (``ReadCache.fetch_hits``).  The generation tag fingerprints the data
#: set: a pooled worker reused for a *different* read set gets a fresh cache
#: and its stale entries are evicted — a reused rank never serves stale reads.
_PERSISTENT_READ_CACHES: dict[tuple[str, int], ReadCache] = {}
_PERSISTENT_READ_CACHES_LOCK = threading.Lock()


def _acquire_read_cache(cache_tag: str | None, rank: int) -> ReadCache:
    """The rank's read cache: ephemeral, or persistent under *cache_tag*.

    Thread-backend ranks share this process (and therefore this registry),
    so eviction + lookup happen under a lock; per-rank keying keeps the
    caches themselves unshared.
    """
    if cache_tag is None:
        return ReadCache()
    with _PERSISTENT_READ_CACHES_LOCK:
        stale = [key for key in _PERSISTENT_READ_CACHES if key[0] != cache_tag]
        for key in stale:
            del _PERSISTENT_READ_CACHES[key]
        return _PERSISTENT_READ_CACHES.setdefault((cache_tag, rank), ReadCache())


def reset_persistent_read_caches() -> None:
    """Drop every persistent read cache (tests and benches reset state)."""
    with _PERSISTENT_READ_CACHES_LOCK:
        _PERSISTENT_READ_CACHES.clear()


def _build_read_owner(readset: ReadSet, assignments: list[list[int]]) -> np.ndarray:
    """RID → owning rank from the partition, validating full coverage.

    Every read must appear in exactly one rank's assignment; a gap would
    otherwise turn into a garbage destination rank in the overlap and
    alignment exchanges (the array used to be ``np.empty``-initialised, so
    an uncovered RID silently routed its tasks to whatever rank number the
    uninitialised memory spelled out).
    """
    read_owner = np.full(len(readset), -1, dtype=np.int64)
    total_assigned = 0
    for rank, rids in enumerate(assignments):
        read_owner[np.asarray(rids, dtype=np.int64)] = rank
        total_assigned += len(rids)
    missing = np.flatnonzero(read_owner < 0)
    if missing.size:
        preview = ", ".join(str(rid) for rid in missing[:5].tolist())
        suffix = ", ..." if missing.size > 5 else ""
        raise ValueError(
            f"read partition does not cover {missing.size} of {len(readset)} "
            f"reads (missing RIDs: {preview}{suffix}); every read must be "
            "assigned to exactly one rank"
        )
    if total_assigned != len(readset):
        # Full coverage + a length mismatch means some RID appears in more
        # than one rank's assignment (its k-mers and pairs would be
        # processed twice, silently corrupting the output).
        raise ValueError(
            f"read partition assigns {total_assigned} RIDs for "
            f"{len(readset)} reads: some read is assigned to more than one "
            "rank; every read must be assigned to exactly one rank"
        )
    return read_owner


def _local_batches(local_rids: list[int], batch_reads: int) -> list[list[int]]:
    """Split this rank's RIDs into streaming batches of at most batch_reads."""
    return [local_rids[i : i + batch_reads] for i in range(0, len(local_rids), batch_reads)]


def _extract_batch_kmers(
    readset: ReadSet,
    rids: list[int],
    config: PipelineConfig,
    with_positions: bool,
    counters: dict[str, int] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Extract k-mers (and optionally RIDs/positions/strands) from a batch of reads.

    The whole batch is encoded and scanned as one concatenated array
    (:func:`repro.seq.kmer.extract_kmers_batch`) — no per-read Python loop.

    This is the single funnel every stage's k-mer stream flows through, so
    the minimizer sketch (``config.seed_mode == "minimizer"``) is applied
    here: the extracted stream is reduced to its windowed minima
    (:func:`repro.kmers.minimizer.minimizer_mask`) before anything
    downstream — the HLL pre-pass, the Bloom filter, the occurrence
    exchange, the resident index, or the query route — ever sees it.  The
    *counters* dict (a rank's ``state.counters``) accumulates
    ``kmers_extracted_total`` (pre-sketch) and ``kmers_after_sketch``
    (post-sketch; equal in reliable mode), from which the pipeline derives
    the reported ``sketch_density_ppm``.
    """
    empty_i = np.empty(0, dtype=np.int64)
    if not rids:
        return np.empty(0, dtype=np.uint64), empty_i, empty_i.copy(), np.empty(0, dtype=bool)
    sequences = [readset[rid].sequence for rid in rids]
    codes, read_index, positions, strands = extract_kmers_batch(
        sequences, config.kmer, with_strand=with_positions
    )
    if counters is not None:
        counters["kmers_extracted_total"] = (
            counters.get("kmers_extracted_total", 0) + int(codes.size))
    if config.seed_mode == "minimizer":
        keep = minimizer_mask(sketch_hash(codes), read_index,
                              config.minimizer_window)
        codes, read_index, positions = codes[keep], read_index[keep], positions[keep]
        if strands.size:
            strands = strands[keep]
    if counters is not None:
        counters["kmers_after_sketch"] = (
            counters.get("kmers_after_sketch", 0) + int(codes.size))
    if with_positions:
        rid_arr = np.asarray(rids, dtype=np.int64)[read_index]
        return codes, rid_arr, positions, strands
    return codes, empty_i, empty_i.copy(), np.empty(0, dtype=bool)


# ---------------------------------------------------------------------------
# Stage 1: Bloom-filter construction (§6)
# ---------------------------------------------------------------------------

def bloom_filter_stage(comm: SimCommunicator, state: _RankState) -> np.ndarray:
    """Stage 1: route every k-mer to its owner, build the Bloom filter partition.

    k-mers the filter has already (probably) seen are promoted to hash-table
    candidate keys — "if a k-mer was already present, it is also inserted
    into the local hash table partition" (§6).

    The filter is sized from the number of *distinct* k-mers, estimated with
    a HyperLogLog pre-pass over the local reads whose registers are merged
    across ranks with one allreduce (§6, eq. 2) — sizing from the raw k-mer
    instance count would overshoot by roughly the coverage depth.

    Each batch's k-mers are extracted exactly once: the pre-pass stashes the
    per-batch code arrays it sketches, and the superstep schedule consumes
    the stash one batch per step — each entry is **released** the moment its
    send buffers exist, instead of the whole stash being retained until the
    stage ends.  The pre-pass itself still materialises the full stash once
    (the filter must be sized before the first insert, so every local k-mer
    is sketched first); what the release schedule buys is that the stash
    shrinks by one batch per superstep instead of riding at full size
    through the whole exchange loop.  The counters
    ``bloom_stash_total_bytes`` (the full stash, which whole-stage retention
    held through every superstep *and* the finalise) and
    ``bloom_stash_peak_bytes`` (the largest residue surviving any superstep
    under the consume-and-free schedule — ``total`` minus the first batch)
    record exactly that saving; both are pure functions of the batch layout,
    so they are bit-identical across backends and schedules.

    The exchange is double-buffered: batch ``i+1``'s bucketing is performed
    — and published — while the peers are still reading batch ``i``'s
    k-mers.

    Parameters
    ----------
    comm:
        This rank's communicator (phase label ``"bloom_exchange"``).
    state:
        The rank's mutable pipeline state.

    Returns
    -------
    numpy.ndarray
        The candidate keys: sorted, deduplicated ``uint64`` k-mer codes.
    """
    config = state.config
    timer = state.timer("bloom")
    comm.set_phase("bloom_exchange")

    batches = _local_batches(state.local_rids, config.batch_reads)

    # HyperLogLog pre-pass: sketch the local k-mers, merge the registers
    # across ranks (register-wise max == sketch union), size the filter from
    # the distinct-cardinality estimate.
    with timer.compute():
        sketch = HyperLogLog(precision=config.hll_precision)
        batch_codes: list[np.ndarray | None] = []
        for rids in batches:
            codes, _, _, _ = _extract_batch_kmers(state.readset, rids, config,
                                                  with_positions=False,
                                                  counters=state.counters)
            sketch.add_many(codes)
            batch_codes.append(codes)
        batch_nbytes = [int(codes.nbytes) for codes in batch_codes]
    with timer.exchange():
        merged_registers = comm.allreduce(sketch.registers(), op="max")
    with timer.compute():
        distinct_estimate = HyperLogLog.from_registers(merged_registers).estimate()
        # The owner hash spreads distinct k-mers uniformly over ranks.
        expected_per_rank = max(1024, int(distinct_estimate / comm.size) + 1)
        bloom = BloomFilter.for_expected_items(expected_per_rank,
                                               fp_rate=config.bloom_fp_rate)

    # Stash accounting: the total is what the stage used to hold until its
    # end; the peak is the largest residue left after any superstep releases
    # its batch (a pure function of the batch byte sizes, so it is identical
    # across backends).
    stash_total = sum(batch_nbytes)
    stash_peak = 0
    remaining = stash_total
    for nbytes in batch_nbytes:
        remaining -= nbytes
        stash_peak = max(stash_peak, remaining)

    kmers_parsed = 0
    kmers_received = 0
    payload_bytes = 0
    # Seeded with an empty batch so the concatenation below always has one.
    candidate_batches = [np.empty(0, dtype=np.uint64)]

    def produce(step: int) -> list[np.ndarray]:
        nonlocal kmers_parsed
        if step < len(batch_codes):
            codes = batch_codes[step]
            batch_codes[step] = None  # consumed: free the stash entry
        else:
            codes = np.empty(0, dtype=np.uint64)
        kmers_parsed += int(codes.size)
        if codes.size:
            owners = owner_of(codes, comm.size)
            return bucket_by_destination(codes, owners, comm.size)
        return [np.empty(0, dtype=np.uint64) for _ in range(comm.size)]

    def consume(step: int, received: list) -> None:
        nonlocal kmers_received, payload_bytes
        chunks = [np.asarray(c, dtype=np.uint64) for c in received if np.asarray(c).size]
        payload_bytes += sum(int(c.nbytes) for c in chunks)
        if chunks:
            incoming = np.concatenate(chunks)
            kmers_received += int(incoming.size)
            seen_before = bloom.insert_many(incoming)
            candidate_batches.append(incoming[seen_before])

    outcome = SuperstepSchedule(comm, timer, len(batches),
                                label="bloom").run(produce, consume)

    with timer.compute():
        keys = np.unique(np.concatenate(candidate_batches))

    state.work["bloom"] = float(kmers_received)
    state.local_bytes["bloom"] = float(bloom.nbytes + keys.nbytes)
    state.counters["kmers_parsed"] = kmers_parsed
    state.counters["kmers_received_bloom"] = kmers_received
    # Received-side wire bytes of this stage's k-mer exchange (summed over
    # all ranks they equal the sent volume); a pure function of the sketched
    # k-mer stream, so bit-identical across backends.
    state.counters["bloom_payload_bytes"] = payload_bytes
    state.counters["distinct_keys"] = int(keys.size)
    state.counters["bloom_nbytes"] = bloom.nbytes
    state.counters["bloom_stash_total_bytes"] = stash_total
    state.counters["bloom_stash_peak_bytes"] = stash_peak
    # A function of the batch layout only, so it stays bit-identical across
    # runtime backends (the counter-parity invariant).
    state.counters["bloom_steps_overlapped"] = outcome.steps_overlapped
    if comm.rank == 0:
        # Identical on every rank after the allreduce; recorded once so the
        # summed global counters report the estimate itself.
        state.counters["hll_distinct_estimate"] = int(round(distinct_estimate))
    return keys


# ---------------------------------------------------------------------------
# Stage 2: hash-table construction (§7)
# ---------------------------------------------------------------------------

def _occurrence_exchange(
    comm: SimCommunicator,
    state: _RankState,
    rids: list[int],
    label: str,
    keys: np.ndarray | None = None,
) -> tuple[tuple[np.ndarray, ...], int, int, int, ScheduleOutcome]:
    """Ship every k-mer occurrence of *rids* to the k-mer's owner rank.

    The superstep behind stage 2 and the serve phase's query route: each
    step extracts one batch of reads, packs every occurrence's (RID, strand,
    position) into one word, buckets the ``(code, packed)`` rows by owner
    and exchanges them; the receiving side decodes each step's rows into
    ``(codes, rids, positions, strands)`` and, given *keys*, drops the rows
    whose k-mer is not a key.  Batch ``i+1``'s extraction — the dominant
    compute — runs while the peers are still reading batch ``i`` (the
    double-buffered schedule).

    Parameters
    ----------
    comm:
        This rank's communicator (phase label ``f"{label}_exchange"``).
    state:
        The rank's mutable pipeline state (timer ``state.timer(label)``).
    rids:
        The local reads to stream.
    label:
        The exchange label (``"hashtable"`` or ``"query_route"``).
    keys:
        Sorted, unique k-mer codes to keep (stage 1's candidate keys), or
        None to keep every occurrence.

    Returns
    -------
    tuple
        (the kept ``(codes, rids, positions, strands)`` columns in arrival
        order, k-mers parsed locally, occurrences received, received payload
        bytes, the schedule outcome).
    """
    config = state.config
    comm.set_phase(f"{label}_exchange")
    batches = _local_batches(rids, config.batch_reads)
    parsed = 0
    received_total = 0
    payload_bytes = 0
    # One chunk list per column, each seeded with an empty chunk so the
    # concatenation below always has one.
    kept = ([np.empty(0, dtype=np.uint64)], [np.empty(0, dtype=np.int64)],
            [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=bool)])

    def produce(step: int) -> list[np.ndarray]:
        nonlocal parsed
        batch = batches[step] if step < len(batches) else []
        codes, rid_arr, pos_arr, strand_arr = _extract_batch_kmers(
            state.readset, batch, config, with_positions=True,
            counters=state.counters,
        )
        parsed += int(codes.size)
        if codes.size:
            # Pack (RID, strand, position) into one word: RID in the high
            # 32 bits, the strand flag in bit 31, the position in the low
            # 31 bits.  This keeps the exchange at 2 words per k-mer
            # instance (the paper reports ~2.5x the Bloom-filter stage
            # volume, §7).  The word is built in place in the payload's
            # second column, and the unpacked columns are dropped before
            # the bucketing copy, which is this stage's memory peak.
            payload = np.empty((codes.size, 2), dtype=np.uint64)
            payload[:, 0] = codes
            meta = payload[:, 1]
            meta[:] = rid_arr
            meta <<= np.uint64(32)
            meta |= strand_arr.astype(np.uint64) << np.uint64(31)
            meta |= pos_arr.view(np.uint64)
            del rid_arr, pos_arr, strand_arr, meta
            owners = owner_of(codes, comm.size)
            del codes
            return bucket_by_destination(payload, owners, comm.size)
        return [np.empty((0, 2), dtype=np.uint64) for _ in range(comm.size)]

    def consume(step: int, received: list) -> None:
        nonlocal received_total, payload_bytes
        # Each peer's rows are decoded where they arrived, with no joined
        # copy of the step and no full-width temporaries: the receive side
        # is this exchange's memory peak.
        for rows in received:
            rows = np.asarray(rows, dtype=np.uint64)
            if not rows.size:
                continue
            payload_bytes += int(rows.nbytes)
            received_total += int(rows.shape[0])
            if keys is not None:
                rows = rows[key_mask(keys, rows[:, 0])]
            meta = rows[:, 1]
            rid_arr = np.empty(meta.size, dtype=np.int64)
            pos_arr = np.empty(meta.size, dtype=np.int64)
            np.right_shift(meta, np.uint64(32), out=rid_arr.view(np.uint64))
            # The position column's buffer holds the strand bit first.
            strand_arr = np.bitwise_and(meta, np.uint64(1 << 31),
                                        out=pos_arr.view(np.uint64)) != 0
            np.bitwise_and(meta, np.uint64(0x7FFFFFFF), out=pos_arr.view(np.uint64))
            for column_chunks, column in zip(kept, (rows[:, 0].copy(), rid_arr, pos_arr,
                                                    strand_arr)):
                column_chunks.append(column)

    timer = state.timer(label)
    outcome = SuperstepSchedule(comm, timer, len(batches),
                                label=label).run(produce, consume)
    with timer.compute():
        # Column by column, each column's chunks released once joined, so
        # the chunks and the joined columns are never all alive at once.
        columns = []
        for column_chunks in kept:
            columns.append(np.concatenate(column_chunks))
            column_chunks.clear()
        columns = tuple(columns)
    return columns, parsed, received_total, payload_bytes, outcome


def hash_table_stage(comm: SimCommunicator, state: _RankState, rids: list[int],
                     keys: np.ndarray | None = None) -> ShardedKmerIndex:
    """Stage 2: second pass shipping (k-mer, RID, position) to the owner rank.

    Occurrences of *rids* are exchanged by :func:`_occurrence_exchange`,
    kept only for k-mers in *keys* (stage 1's candidate keys; the one-shot
    run passes them), and sorted once into a
    :class:`~repro.kmers.hashtable.ShardedKmerIndex` cut by
    ``config.hash_table_shards`` code ranges — the sort timed as hash-table
    work.  The frequency filters that leave the retained k-mers (§7) are
    applied later, one shard at a time, by the index's views.

    The serve phase's index build passes no keys: the resident index must
    keep singleton occurrences too, because a later query batch can lift a
    singleton's union count into the reliable range.  It skips stage 1
    entirely, whose only output is the key set.

    Parameters
    ----------
    comm:
        This rank's communicator (phase label ``"hashtable_exchange"``).
    state:
        The rank's mutable pipeline state.
    rids:
        The local reads whose occurrences are streamed.
    keys:
        Sorted, unique k-mer codes whose occurrences are stored, or None to
        store every occurrence.

    Returns
    -------
    ShardedKmerIndex
        This rank's partition of the occurrence table.
    """
    config = state.config
    columns, _, received, payload_bytes, outcome = _occurrence_exchange(
        comm, state, rids, "hashtable", keys)
    with state.timer("hashtable").compute():
        index = ShardedKmerIndex(
            shard_code_boundaries(config.kmer.k, config.hash_table_shards), *columns)
    key_bytes = 0 if keys is None else keys.nbytes
    state.work["hashtable"] = float(received)
    state.local_bytes["hashtable"] = float(
        key_bytes + index.n_occurrences * OCCURRENCE_NBYTES)
    state.counters["kmers_received_hashtable"] = received
    state.counters["occurrences_stored"] = index.n_occurrences
    state.counters["hashtable_payload_bytes"] = payload_bytes
    state.counters["hashtable_steps_overlapped"] = outcome.steps_overlapped
    return index


# ---------------------------------------------------------------------------
# Stage 3: overlap detection (§8, Algorithm 1)
# ---------------------------------------------------------------------------

def overlap_stage(
    comm: SimCommunicator,
    state: _RankState,
    shards: Iterator[RetainedKmers],
    shard_stage: str,
    n_index_reads: int | None = None,
) -> None:
    """Stage 3: form all read pairs per retained k-mer and route them to owners.

    The retained table is consumed one **code-range shard** at a time: each
    shard is pulled from *shards* under ``state.timer(shard_stage)``'s
    compute time, its pairs are generated and exchanged, and the shard is
    released before the next one is built — so at most one shard's grouped
    table is live per rank.  Shards partition the code space, so the
    concatenated pair stream (and therefore the consolidated overlap table)
    is bit-identical to the unsharded build.  The one-shot pipeline pulls
    its index's ``retained_shard`` views (timed as hash-table work); a
    serve-phase query batch pulls the resident index's per-shard merge with
    its routed query occurrences (timed as query-route work) and passes
    *n_index_reads*, which keeps only the **query-vs-index** pairs
    (``rid_a < n_index_reads <= rid_b``) and labels the exchange
    ``query_overlap``.

    Within a shard the pair exchange streams in *bounded chunked supersteps*
    like the k-mer stages: the shard's retained k-mers are split into ranges
    whose pair expansion fits the ``exchange_chunk_mb`` wire budget
    (:func:`pair_chunk_ranges`), and each superstep — one
    :class:`~repro.core.supersteps.SuperstepSchedule` instance per shard —
    generates, packs and ships only one chunk, so the in-flight send buffers
    stay bounded regardless of how many pairs the partition produces in
    total.  Every rank runs the same number of supersteps per shard (the
    global maximum), padding with empty exchanges; each superstep is a full
    ``alltoallv`` and is traced per chunk, so the cost model sees the same
    total volume plus the true call count.

    The supersteps are **double-buffered**: chunk ``i``'s exchange is split
    into ``alltoallv_start``/``alltoallv_finish``, and chunk ``i+1`` is
    generated — and published — between the two, while the peers are still
    reading chunk ``i``'s segments.  The generation time spent with an
    exchange in flight is recorded as *overlapped* (latency the pipeline
    hid); ``exchange_seconds`` then only measures the **exposed** remainder.
    """
    config = state.config
    timer = state.timer("overlap")
    shard_timer = state.timer(shard_stage)
    comm.set_phase("overlap_exchange")
    label = "overlap" if n_index_reads is None else "query_overlap"

    pairs_generated = 0
    pairs_kept = 0
    retained_kmers = 0
    retained_occurrences = 0
    retained_local_peak = 0
    retained_peak_nbytes = 0
    total_chunks = 0
    chunks_overlapped = 0
    payload_bytes = 0
    received_batches: list[PairBatch] = []

    def make_send(retained: RetainedKmers, chunks: list[tuple[int, int]],
                  step: int) -> list[np.ndarray]:
        """Expand chunk *step* of one shard into per-destination send buffers."""
        nonlocal pairs_generated, pairs_kept
        if step < len(chunks):
            pairs = generate_pairs(retained, kmer_range=chunks[step])
        else:
            pairs = PairBatch.empty()
        pairs_generated += len(pairs)
        if not len(pairs):
            return [np.empty((0, 5), dtype=np.int64) for _ in range(comm.size)]
        # Owner choice happens before the query filter drops the swapped
        # annotation of the pairs it removes.
        destinations = choose_owner(
            pairs.rid_a, pairs.rid_b, state.read_owner, swapped=pairs.swapped,
        )
        matrix = pairs.to_matrix()
        if n_index_reads is not None:
            # rid_a < rid_b always holds, so a query-vs-index pair is
            # exactly rid_a on the index side and rid_b on the query side.
            keep = (pairs.rid_a < n_index_reads) & (pairs.rid_b >= n_index_reads)
            matrix, destinations = matrix[keep], destinations[keep]
        pairs_kept += len(matrix)
        return bucket_by_destination(matrix, destinations, comm.size)

    def consume(step: int, received: list) -> None:
        nonlocal payload_bytes
        payload_bytes += sum(int(np.asarray(c).nbytes) for c in received)
        received_batches.extend(
            PairBatch.from_matrix(np.asarray(c)) for c in received
        )

    def stream_shard(retained: RetainedKmers,
                     chunks: list[tuple[int, int]]) -> ScheduleOutcome:
        """Run one shard's chunked pair exchange as a schedule instance.

        The produce closure lives only inside this call frame, so the shard
        it captures is actually freed when the caller drops its reference —
        a longer-lived closure would silently keep two shards alive at once.
        """
        schedule = SuperstepSchedule(comm, timer, len(chunks), label=label)
        return schedule.run(lambda step: make_send(retained, chunks, step), consume)

    while True:
        # Build this shard's slice of the retained table (timed as the shard
        # source's stage), stream its pairs, then release it before the next
        # shard is built — the build → pair-generation → release pipeline
        # that bounds peak table memory at one shard.
        with shard_timer.compute():
            retained = next(shards, None)
            if retained is None:
                break
            retained_kmers += retained.n_kmers
            retained_occurrences += retained.n_occurrences
            retained_local_peak = max(
                retained_local_peak,
                retained.rids.nbytes + retained.positions.nbytes,
            )
            retained_peak_nbytes = max(retained_peak_nbytes, retained.nbytes)
        with timer.compute():
            chunks = pair_chunk_ranges(retained, config.exchange_chunk_bytes)
        outcome = stream_shard(retained, chunks)
        total_chunks += len(chunks)
        chunks_overlapped += outcome.steps_overlapped
        retained = None  # release the shard before building the next one

    with timer.compute():
        table = OverlapTable.from_pairs(PairBatch.concatenate(received_batches))
        state.overlaps = table
        # Apply the seed-selection constraint, batched over every pair at
        # once, and gather the selected seeds into a flat task batch.
        selected = select_seeds_batched(table, config.seed_strategy)
        pair_of_seed = np.searchsorted(table.seed_offsets, selected, side="right") - 1
        state.tasks = TaskBatch(
            rid_a=table.rid_a[pair_of_seed],
            rid_b=table.rid_b[pair_of_seed],
            seed_pos_a=table.seed_pos_a[selected],
            seed_pos_b=table.seed_pos_b[selected],
            same_strand=table.seed_same_strand[selected],
        )

    state.work["overlap"] = float(retained_occurrences + pairs_generated)
    state.local_bytes["overlap"] = float(retained_local_peak + 32 * pairs_generated)
    state.counters["retained_kmers"] = retained_kmers
    state.counters["retained_occurrences"] = retained_occurrences
    if n_index_reads is None:
        state.counters["retained_table_peak_bytes"] = retained_peak_nbytes
        state.counters["pairs_generated"] = pairs_generated
    else:
        state.counters["query_pairs_generated"] = pairs_generated
        state.counters["query_cross_pairs"] = pairs_kept
    state.counters["overlap_pairs"] = len(state.overlaps)
    state.counters["alignment_tasks"] = len(state.tasks)
    state.counters["overlap_exchange_chunks"] = total_chunks
    state.counters["overlap_payload_bytes"] = payload_bytes
    # A function of the config and the chunk/shard layout only, so it stays
    # bit-identical across runtime backends (the counter-parity invariant).
    state.counters["overlap_chunks_overlapped"] = chunks_overlapped


# ---------------------------------------------------------------------------
# Stage 4: read exchange and pairwise alignment (§9)
# ---------------------------------------------------------------------------

def _build_read_block(
    rids: np.ndarray, readset: ReadSet, cache: ReadCache
) -> PackedReadBlock:
    """Serve the requested reads as one 2-bit packed wire block.

    Parameters
    ----------
    rids:
        The RIDs a peer requested (all local to this rank).
    readset:
        The rank's read set (the source of truth for sequences).
    cache:
        The rank's read cache.  The served reads are routed through it so
        their 2-bit encodings are computed at most once — repeated serves
        (and pooled reruns) pack straight from the memoised buffers.

    The block is flat typed buffers (lengths in the typed header), so the
    payload crosses the typed collectives protocol (and a real network)
    without per-read envelopes; see ``docs/wire-format.md``.
    """
    # Put-if-absent: served reads are this rank's own immutable local reads,
    # so an existing entry is always current.  The stored string is a
    # reference to the readset's resident sequence; the memoised code array
    # (1 byte/base) is the buffer repeat serves reuse.
    rids = np.asarray(rids, dtype=np.int64)
    code_arrays = []
    for rid in rids.tolist():
        if rid not in cache:
            cache.put(rid, readset[rid].sequence)
        code_arrays.append(cache.encoded_peek(rid))
    return pack_read_block(rids, code_arrays)


def _unpack_read_block(block: PackedReadBlock, cache: ReadCache) -> None:
    """Insert a received read block into the per-rank read cache.

    The reads are inserted **without decoding**: each read's packed bytes
    land in the cache as-is (:meth:`ReadCache.put_packed`) and are unpacked
    to a 2-bit code array only when the aligner first touches the read — the
    ASCII string is never materialised.
    """
    for index, rid in enumerate(block.rids.tolist()):
        cache.put_packed(rid, block.packed_slice(index), int(block.lengths[index]))


def alignment_stage(comm: SimCommunicator, state: _RankState) -> None:
    """Stage 4: fetch non-local reads, then align every task locally.

    The read fetch is one request/response round: each rank requests its
    tasks' missing reads from their owner ranks (``alignment:request``) and
    the owners serve them back as **2-bit packed** blocks (4 bases/byte,
    :class:`PackedReadBlock`, ``alignment:response``) — cutting the phase's
    dominant payload ~4x.  The receive side inserts the packed bytes into
    the cache *without decoding*.  The layout is specified in
    ``docs/wire-format.md``; the counters ``read_payload_raw_bytes`` /
    ``read_payload_wire_bytes`` record the saving.

    Fetched sequences land in the rank's :class:`ReadCache`, which also
    memoises the 2-bit encodings the x-drop kernel consumes — repeated tasks
    against the same read reuse one buffer, and reads already cached are
    never re-requested from their owner.  The serve side routes the packed
    blocks through the same cache, so a read served twice (or re-served by a
    pooled rank) packs from its memoised encoding.  The cache's hit/miss
    counters are surfaced in the run result.

    Parameters
    ----------
    comm:
        This rank's communicator (phase label ``"alignment_exchange"``).
    state:
        The rank's mutable pipeline state (tasks from the overlap stage);
        on return ``state.accepted`` holds the accepted alignments.
    """
    config = state.config
    timer = state.timer("alignment")
    comm.set_phase("alignment_exchange")

    # Persistent (pooled) caches carry counts from previous runs; report this
    # run's activity as a delta from the entry snapshot.
    cache_counter_base = state.read_cache.counters()
    cache = state.read_cache
    cache.capacity_bytes = config.read_cache_capacity_bytes
    tasks = state.tasks

    with timer.compute():
        needed = tasks.rids()
        local_arr = np.asarray(state.local_rids, dtype=np.int64)
        is_local = np.isin(needed, local_arr)
        for rid in needed[is_local].tolist():
            cache.put(rid, state.readset[rid].sequence)
        to_fetch = cache.missing(needed[~is_local])
        # Group read requests by the rank owning each read.
        requests = bucket_by_destination(to_fetch, state.read_owner[to_fetch], comm.size)
    with timer.exchange():
        incoming = comm.alltoallv(requests, label="alignment:request")
    with timer.compute():
        # Serve the requested reads back to each requesting rank.
        blocks = [_build_read_block(incoming[src], state.readset, cache)
                  for src in range(comm.size)]
        # Sequence payload only: ``raw`` is one byte per base, ``wire`` what
        # actually crosses the exchange (~raw/4); headers are excluded from
        # both, so the pair isolates exactly what the packing compresses.
        read_payload_raw = sum(block.raw_nbytes for block in blocks)
        read_payload_wire = sum(int(block.packed.nbytes) for block in blocks)
    with timer.exchange():
        received = comm.alltoallv(blocks, label="alignment:response")
    with timer.compute():
        for block in received:
            _unpack_read_block(block, cache)
        # Called through the module attribute, so a wrapper installed on
        # ``repro.align.batch.batched_xdrop_align`` sees every kernel call.
        results = np.recarray(0, dtype=align_batch.RESULT_DTYPE)
        if len(tasks):
            results = align_batch.batched_xdrop_align(
                tasks, cache, k=config.kmer.k, scoring=config.scoring,
                xdrop=config.xdrop, band=config.band)
        accepted = results.score >= config.min_alignment_score
        dp_cells = int(results.cells.sum())

    state.work["alignment"] = float(dp_cells)
    # Bytes of the reads this rank's tasks actually touch — deliberately not
    # the whole cache, which may also hold reads memoised while *serving*
    # peers (and, under the pool, previous runs' reads).
    state.local_bytes["alignment"] = float(cache.bases_cached(needed))
    # Capacity trim happens only here, at stage exit: every task has aligned,
    # so no read the fetch plan promised is still needed (a mid-stage evict
    # would break that promise).  The eviction counters land in this run's
    # delta below.
    cache.trim()
    state.counters["alignments"] = len(results)
    state.counters["accepted_alignments"] = int(accepted.sum())
    state.counters["dp_cells"] = dp_cells
    state.counters["remote_reads_fetched"] = int(to_fetch.size)
    state.counters["read_payload_raw_bytes"] = read_payload_raw
    state.counters["read_payload_wire_bytes"] = read_payload_wire
    # A rank that aligned nothing ran no kernel, compiled or not.
    state.counters["align_native_ranks"] = int(
        len(results) > 0 and native.library() is not None
    )
    # spmdlint: disable=SL004 keys come from ReadCache.counters(), all five
    # declared as the read_cache_* group in repro.core.counters.
    state.counters.update({
        name: value - cache_counter_base.get(name, 0)
        for name, value in cache.counters().items()
    })

    state.accepted = (
        tasks.rid_a[accepted].astype(np.int64),
        tasks.rid_b[accepted].astype(np.int64),
        results.score[accepted],
        (results.end_a - results.start_a)[accepted],
        (results.end_b - results.start_b)[accepted],
    )


# ---------------------------------------------------------------------------
# Rank state and report: shared by every rank program
# ---------------------------------------------------------------------------

def _rank_state(
    comm: SimCommunicator,
    readset: ReadSet,
    assignments: list[list[int]],
    config: PipelineConfig,
    high_freq_threshold: int,
    cache_tag: str | None,
) -> _RankState:
    """This rank's fresh pipeline state.

    Validates the partition (:func:`_build_read_owner`) and acquires the
    rank's read cache (persistent under *cache_tag*, see
    :func:`_acquire_read_cache`).
    """
    state = _RankState(
        config=config,
        readset=readset,
        local_rids=list(assignments[comm.rank]),
        read_owner=_build_read_owner(readset, assignments),
        high_freq_threshold=high_freq_threshold,
        read_cache=_acquire_read_cache(cache_tag, comm.rank),
    )
    if comm.rank == 0:
        # One value per run, not per rank: recorded once so the summed
        # global counters report the shard count itself.
        state.counters["hash_table_shards"] = config.hash_table_shards
    return state


def _rank_report(comm: SimCommunicator, state: _RankState) -> RankReport:
    """Package *state* as this rank's report."""
    timers = state.timers.items()
    aln_rid_a, aln_rid_b, aln_score, aln_span_a, aln_span_b = state.accepted
    return RankReport(
        rank=comm.rank,
        stage_work=dict(state.work),
        stage_bytes=dict(state.local_bytes),
        stage_compute_seconds={name: t.compute_seconds for name, t in timers},
        stage_exchange_seconds={name: t.exchange_seconds for name, t in timers},
        counters=dict(state.counters),
        overlaps=state.overlaps,
        aln_rid_a=aln_rid_a,
        aln_rid_b=aln_rid_b,
        aln_score=aln_score,
        aln_span_a=aln_span_a,
        aln_span_b=aln_span_b,
        stage_overlapped_seconds={name: t.overlapped_seconds for name, t in timers},
    )


# ---------------------------------------------------------------------------
# The full per-rank program
# ---------------------------------------------------------------------------

def run_rank_pipeline(
    comm: SimCommunicator,
    readset: ReadSet,
    assignments: list[list[int]],
    config: PipelineConfig,
    high_freq_threshold: int,
    cache_tag: str | None = None,
) -> RankReport:
    """Execute all four stages on one rank and return its report.

    This is the SPMD program every simulated rank runs — the body an MPI
    implementation would execute on every process (see
    ``docs/architecture.md`` for the stage-by-stage map).

    Parameters
    ----------
    comm:
        This rank's :class:`~repro.mpisim.communicator.SimCommunicator`.
    readset:
        The full read set (every rank holds it; each rank parses only its
        assigned RIDs, mirroring the paper's parallel file read).
    assignments:
        Per-rank RID lists from :func:`repro.io.partition.partition_reads`;
        must cover every read exactly once.
    config:
        The run's :class:`~repro.core.config.PipelineConfig`.
    high_freq_threshold:
        The resolved high-occurrence cutoff m (already broadcast-identical
        across ranks).
    cache_tag:
        Set by the pipeline when the rank pool is enabled: keys this rank's
        read cache into the persistent registry, so a pooled worker reused
        for another run over the *same* read set starts with the reads it
        already fetched; a different tag evicts the stale generation first.

    Returns
    -------
    RankReport
        The rank's counters, timers, overlaps and accepted alignments.
    """
    state = _rank_state(comm, readset, assignments, config, high_freq_threshold,
                        cache_tag)
    keys = bloom_filter_stage(comm, state)
    index = hash_table_stage(comm, state, state.local_rids, keys)
    order_key = _arrival_order_key(assignments, len(readset), config.batch_reads)
    overlap_stage(comm, state, (
        index.retained_shard(shard, order_key, config.min_kmer_count,
                             high_freq_threshold)
        for shard in range(index.n_shards)), "hashtable")
    del keys, index  # release the table before stage 4
    alignment_stage(comm, state)
    return _rank_report(comm, state)


# ---------------------------------------------------------------------------
# Build / serve phase split: index residency + query batches
# ---------------------------------------------------------------------------

#: Resident sharded k-mer indexes that outlive a single SPMD run, keyed by
#: (index tag, rank) — the serve phase's counterpart of the persistent read
#: caches above.  Under the persistent rank pool a worker process survives
#: across ``spmd_run`` invocations, so the index a rank built in
#: ``run_index_build`` is still here when ``run_query_batch`` executes, and
#: the query batch touches zero index-build code paths (counter
#: ``index_reuse_hits``).  The tag fingerprints the index read set *and* the
#: parameters the resident layout depends on (k, shard count, rank count);
#: acquiring a different tag evicts the previous generation, so a reused
#: rank never serves a stale index.
_RESIDENT_INDEXES: dict[tuple[str, int], ShardedKmerIndex] = {}
_RESIDENT_INDEXES_LOCK = threading.Lock()


def _resident_index(index_tag: str, rank: int) -> ShardedKmerIndex | None:
    """This rank's resident index under *index_tag*, evicting stale tags."""
    with _RESIDENT_INDEXES_LOCK:
        stale = [key for key in _RESIDENT_INDEXES if key[0] != index_tag]
        for key in stale:
            del _RESIDENT_INDEXES[key]
        return _RESIDENT_INDEXES.get((index_tag, rank))


def _store_resident_index(index_tag: str, rank: int,
                          index: ShardedKmerIndex) -> None:
    """Publish *rank*'s freshly built index under *index_tag*."""
    with _RESIDENT_INDEXES_LOCK:
        _RESIDENT_INDEXES[(index_tag, rank)] = index


def reset_resident_indexes() -> None:
    """Drop every resident index (tests and benches reset state)."""
    with _RESIDENT_INDEXES_LOCK:
        _RESIDENT_INDEXES.clear()


def _arrival_order_key(assignments: list[list[int]], n_reads: int,
                       batch_reads: int) -> np.ndarray:
    """RID → arrival ordinal of the emulated one-shot run over these reads.

    In the one-shot pipeline, occurrences reach their owner rank in
    (superstep, source rank, in-batch read order) order: superstep ``b``
    carries every rank's batch ``b``, the consume callback concatenates the
    received chunks in source-rank order, and within one batch the reads
    keep their local order.  ``((b * P) + src) * batch_reads + i`` (with
    ``i`` the read's index within its batch) is a per-read key whose sort
    order equals exactly that arrival order — the key every retained-table
    view sorts its occurrence groups by: the one-shot run's
    (:meth:`~repro.kmers.hashtable.ShardedKmerIndex.retained_shard`) and a
    query batch's over the emulated union run, which reproduces the one-shot
    retained table bit for bit
    (:meth:`~repro.kmers.hashtable.ShardedKmerIndex.merged_shard`).
    """
    n_ranks = len(assignments)
    key = np.empty(n_reads, dtype=np.int64)
    for rank, rids in enumerate(assignments):
        rid_arr = np.asarray(rids, dtype=np.int64)
        if rid_arr.size == 0:
            continue
        local = np.arange(rid_arr.size, dtype=np.int64)
        batch, in_batch = local // batch_reads, local % batch_reads
        key[rid_arr] = ((batch * n_ranks) + rank) * batch_reads + in_batch
    return key


def _index_report_counters(state: _RankState, index: ShardedKmerIndex) -> None:
    """Record the per-rank index shape counters on *state*."""
    with state.timer("hashtable").compute():
        retained_kmers, retained_occurrences = index.retained_counts(
            min_count=state.config.min_kmer_count,
            max_count=state.high_freq_threshold)
        digest = index.digest()
    state.counters["index_build_runs"] = 1
    state.counters["index_retained_kmers"] = retained_kmers
    state.counters["index_retained_occurrences"] = retained_occurrences
    state.counters["index_occurrences"] = index.n_occurrences
    state.counters["index_nbytes"] = index.nbytes
    state.counters["index_digest"] = digest


def run_index_build(
    comm: SimCommunicator,
    readset: ReadSet,
    assignments: list[list[int]],
    config: PipelineConfig,
    high_freq_threshold: int,
    index_tag: str,
    cache_tag: str | None = None,
) -> RankReport:
    """Build phase: construct this rank's sharded k-mer index and keep it resident.

    The SPMD program of :meth:`DibellaPipeline.build_index`: runs stage 2
    over the index reads with no candidate keys (see
    :func:`hash_table_stage`), which sorts every occurrence into a
    :class:`~repro.kmers.hashtable.ShardedKmerIndex`, and publishes it in
    the resident-index registry under *index_tag* — where subsequent
    :func:`run_query_batch` invocations on a pooled rank find it without
    rebuilding.  No overlaps or alignments are produced.

    Counters: ``index_build_runs`` (always 1 here), ``index_retained_kmers``
    / ``index_retained_occurrences`` (the table a query batch with no novel
    occurrences would see), ``index_occurrences`` / ``index_nbytes`` (the
    resident buffers), and ``index_digest`` — an insertion-order-independent
    content digest, comparable across backends even when the index itself
    lives in an unreachable worker process.
    """
    state = _rank_state(comm, readset, assignments, config, high_freq_threshold,
                        cache_tag)
    index = hash_table_stage(comm, state, state.local_rids)
    _store_resident_index(index_tag, comm.rank, index)
    _index_report_counters(state, index)
    return _rank_report(comm, state)


def run_query_batch(
    comm: SimCommunicator,
    readset: ReadSet,
    assignments: list[list[int]],
    config: PipelineConfig,
    high_freq_threshold: int,
    index_tag: str,
    n_index_reads: int,
    cache_tag: str | None = None,
) -> RankReport:
    """Serve phase: align one query batch against the resident index.

    The SPMD program of :meth:`DibellaPipeline.run_query_batch`.  *readset*
    is the combined set — index reads first (RIDs ``< n_index_reads``), the
    query batch after them — and *assignments* partitions the combined set
    exactly as a one-shot run over it would (the *emulated union run*).  The
    batch flows through the one-shot stage implementations:

    1. **Query route** — the stage-2 occurrence exchange
       (:func:`_occurrence_exchange`) over the local *query* reads only,
       labelled ``query_route`` (the index reads are never re-parsed).
    2. **Query overlap** — :func:`overlap_stage` with the resident index as
       its shard source: per code-range shard, the routed query occurrences
       are merged into the resident shard
       (:meth:`~repro.kmers.hashtable.ShardedKmerIndex.merged_shard`,
       ordered by the emulated union run's arrival order), and only
       **query-vs-index** pairs are kept — within-side pairs are not this
       batch's job.
    3. **Alignment** — the unmodified :func:`alignment_stage`: one-round read
       fetch + x-drop over the consolidated tasks.

    Ordering the merged occurrence groups by the union run's arrival order
    makes the surviving pair stream — and therefore the accepted alignments
    — bit-identical to running the one-shot pipeline over the combined set
    and keeping only its query-vs-index alignments (pinned by the serve
    parity tests).

    If any rank lost its resident index (non-pooled process backend: fresh
    workers every run), **all** ranks rebuild it first — presence is agreed
    with a min-allreduce, so the rebuild's collectives stay matched — and
    the run reports ``index_build_runs`` instead of ``index_reuse_hits``.

    Query RIDs are reused by every batch, so the previous batch's query
    reads are evicted from the (possibly pooled) read cache before the
    alignment stage caches this batch's.
    """
    state = _rank_state(comm, readset, assignments, config, high_freq_threshold,
                        cache_tag)
    state.read_cache.evict_rids_at_or_above(n_index_reads)
    route_timer = state.timer("query_route")
    comm.set_phase("query_route_exchange")

    # Index residency consensus: either every rank reuses its resident index
    # or every rank rebuilds — a mixed decision would leave the rebuilding
    # ranks alone in the hash-table exchange and deadlock the collectives.
    index = _resident_index(index_tag, comm.rank)
    with route_timer.exchange():
        all_present = int(comm.allreduce(
            np.array([0 if index is None else 1], dtype=np.int64), op="min")[0])
    if all_present:
        state.counters["index_reuse_hits"] = 1
    else:
        # Rebuild over the index reads only (their slots in the combined
        # partition still cover each exactly once).
        index = hash_table_stage(
            comm, state, [rid for rid in state.local_rids if rid < n_index_reads])
        _store_resident_index(index_tag, comm.rank, index)
        state.counters["index_build_runs"] = 1

    # -- stage Q1: route the query batch's k-mers to their owner ranks ------
    (q_codes, q_rids, q_positions, q_strands), parsed, routed, payload_bytes, outcome = (
        _occurrence_exchange(
            comm, state, [rid for rid in state.local_rids if rid >= n_index_reads],
            "query_route"))
    with route_timer.compute():
        order_key = _arrival_order_key(assignments, len(readset), config.batch_reads)
        q_shard_of = np.searchsorted(index.boundaries, q_codes, side="right")

    state.work["query_route"] = float(routed)
    state.counters["query_kmers_parsed"] = parsed
    state.counters["query_kmers_routed"] = routed
    state.counters["query_route_payload_bytes"] = payload_bytes
    state.counters["query_route_steps_overlapped"] = outcome.steps_overlapped

    # -- stage Q2: the overlap stage over merged shards, cross pairs only ---
    touched = 0

    def merged_shards() -> Iterator[RetainedKmers]:
        nonlocal touched
        for shard in range(index.n_shards):
            in_shard = q_shard_of == shard
            merged, gathered = index.merged_shard(
                shard,
                q_codes[in_shard], q_rids[in_shard],
                q_positions[in_shard], q_strands[in_shard],
                order_key, n_index_reads,
                min_count=config.min_kmer_count,
                max_count=high_freq_threshold,
            )
            touched += gathered
            yield merged

    overlap_stage(comm, state, merged_shards(), "query_route", n_index_reads)
    state.counters["query_index_occurrences_touched"] = touched
    state.local_bytes["query_route"] = float(
        (touched + q_codes.size) * OCCURRENCE_NBYTES)

    # -- stage Q3: the unmodified read fetch + alignment --------------------
    alignment_stage(comm, state)
    return _rank_report(comm, state)
