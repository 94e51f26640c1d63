"""Index parity: the one-sort build vs a grouping oracle.

The :class:`~repro.kmers.hashtable.KmerIndex` every launch builds is made
once from a rank's whole occurrence stream and stored as one table in
canonical order — sorted by ``(code, rid, position, strand)``, by one sort
of packed 64-bit keys or, when the fields do not fit a word, by a 4-key
``lexsort``.  These tests pin the equivalences the index rests on (the
arrival-order view the one-shot run reads is pinned in
``tests/test_kmers_structures.py``):

* any reordering of the same occurrence stream, on either side of the
  64-bit line, yields retained views equal to a ``lexsort``-and-group
  oracle with each group's rows in canonical order;
* the one table equals the concatenation of per-code-range oracles and of
  per-code-range indexes (``n_ranges`` cuts of the code space; one cut is
  the monolithic oracle) — the layout the code-range-sharded index stored;
* the digest equals a 4-key ``lexsort`` of every occurrence, hashed one
  code-range slice at a time;
* ``merged``, which gathers only the index groups a query batch hits,
  equals the full-concatenate merge it replaced (kept here as the oracle);
* the pipeline-level index digest agrees across runtime backends, and a
  ``k = 31`` build takes the ``lexsort`` path and still matches the oracle.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from repro.core import DibellaPipeline, PipelineConfig
from repro.core.stages import reset_persistent_read_caches, reset_resident_indexes
from repro.kmers import hashtable
from repro.kmers.hashtable import (
    KmerIndex,
    RetainedKmers,
    _digest_boundaries,
    _packed_field_bits,
)
from repro.mpisim.backend import shutdown_rank_pools
from repro.mpisim.topology import Topology
from repro.seq.kmer import KmerSpec


K = 8  # small code space so counts cross min/max thresholds often
WIDE_K = 31  # a code space too wide for the packed 64-bit key
N_READS = 40
READ_LENGTH = 5000


def _occurrence_stream(rng: np.random.Generator, n: int, *, code_hi: int = 4**K,
                       rid_lo: int = 0, rid_hi: int = N_READS):
    """A synthetic occurrence stream with heavy code reuse (dense groups).

    Codes come from a pool of 300 spread over ``[0, code_hi)``, so every
    code range below *code_hi* sees groups.  ``(rid, position)`` is unique
    within the stream, as it is for real reads (one k-mer per read
    position), so canonical order has no ties.
    """
    pool = rng.choice(code_hi, size=300, replace=False).astype(np.uint64)
    codes = pool[rng.integers(0, pool.size, size=n)]
    slots = rng.choice((rid_hi - rid_lo) * READ_LENGTH, size=n, replace=False)
    rids = rid_lo + slots // READ_LENGTH
    positions = slots % READ_LENGTH
    strands = rng.integers(0, 2, size=n, dtype=np.int64).astype(bool)
    return codes, rids.astype(np.int64), positions.astype(np.int64), strands


def _oracle(codes, rids, positions, strands, min_count, max_count) -> RetainedKmers:
    """The groups the count filters keep, each group's rows in canonical
    ``(rid, position, strand)`` order: a 4-key ``lexsort``, then grouping."""
    order = np.lexsort((strands, positions, rids, codes))
    codes, rids, positions, strands = (
        codes[order], rids[order], positions[order], strands[order])
    unique_codes, starts, counts = np.unique(codes, return_index=True,
                                             return_counts=True)
    keep = counts >= min_count
    if max_count is not None:
        keep &= counts <= max_count
    rows = np.concatenate([np.arange(lo, lo + c) for lo, c
                           in zip(starts[keep], counts[keep])] + [np.empty(0, np.int64)])
    return RetainedKmers(codes=unique_codes[keep],
                         offsets=np.concatenate(([0], np.cumsum(counts[keep]))).astype(np.int64),
                         rids=rids[rows], positions=positions[rows], strands=strands[rows])


def _canonical_view(index: KmerIndex, min_count: int = 2,
                    max_count: int | None = None) -> RetainedKmers:
    """The index's retained k-mers in canonical order: the ``retained`` view
    keyed by the identity order (RID order), whose stable sort keeps the
    canonical storage order on ``(rid, position)`` ties."""
    identity = np.arange(N_READS + N_QUERY_READS, dtype=np.int64)
    return index.retained(identity, min_count, max_count)


def _range_of(codes: np.ndarray, n_ranges: int, k: int = K) -> np.ndarray:
    """Which of *n_ranges* equal cuts of the code space ``[0, 4**k)`` each
    code falls in."""
    boundaries = np.array([(r * 4**k) // n_ranges for r in range(1, n_ranges)],
                          dtype=np.uint64)
    return np.searchsorted(boundaries, codes, side="right")


def _concat(tables: list[RetainedKmers]) -> RetainedKmers:
    """Tables over disjoint ascending code ranges, back to back."""
    counts = np.concatenate([table.counts() for table in tables])
    return RetainedKmers(
        codes=np.concatenate([table.codes for table in tables]),
        offsets=np.concatenate(([0], np.cumsum(counts))).astype(np.int64),
        rids=np.concatenate([table.rids for table in tables]),
        positions=np.concatenate([table.positions for table in tables]),
        strands=np.concatenate([table.strands for table in tables]),
    )


def _per_range(stream, n_ranges: int, k: int = K) -> list[tuple[np.ndarray, ...]]:
    """*stream* split by code range, lowest range first."""
    range_of = _range_of(stream[0], n_ranges, k)
    return [tuple(column[range_of == r] for column in stream) for r in range(n_ranges)]


def _lexsort_digest(codes, rids, positions, strands, k: int) -> int:
    """The digest formula: per code-range slice, a 4-key lexsort of every
    occurrence."""
    h = hashlib.blake2b(digest_size=8)
    slice_of = np.searchsorted(_digest_boundaries(k), codes, side="right")
    for piece in range(4):
        in_slice = slice_of == piece
        c, r, p, s = codes[in_slice], rids[in_slice], positions[in_slice], strands[in_slice]
        order = np.lexsort((s, p, r, c))
        for column in (c, r, p, s):
            h.update(np.ascontiguousarray(column[order]).tobytes())
    return int.from_bytes(h.digest(), "big") >> 1


def _full_merge_oracle(i_codes, i_rids, i_positions, i_strands,
                       q_codes, q_rids, q_positions, q_strands,
                       order_key, n_index_reads, min_count, max_count) -> RetainedKmers:
    """The merge before canonical storage: concatenate the *whole* index with
    the query occurrences, sort all of it, count and keep."""
    codes = np.concatenate([i_codes, q_codes])
    if codes.size == 0:
        return RetainedKmers.empty()
    rids = np.concatenate([i_rids, q_rids])
    positions = np.concatenate([i_positions, q_positions])
    strands = np.concatenate([i_strands, q_strands])

    order = np.lexsort((positions, order_key[rids], codes))
    codes, rids, positions, strands = (
        codes[order], rids[order], positions[order], strands[order]
    )
    unique_codes, group_starts, counts = np.unique(
        codes, return_index=True, return_counts=True
    )
    group_of = np.repeat(np.arange(unique_codes.size, dtype=np.int64), counts)
    index_counts = np.bincount(
        group_of[rids < n_index_reads], minlength=unique_codes.size
    )
    keep = (counts >= min_count) & (index_counts >= 1) & (index_counts < counts)
    if max_count is not None:
        keep &= counts <= max_count

    kept_starts = group_starts[keep]
    kept_counts = counts[keep]
    offsets = np.concatenate(([0], np.cumsum(kept_counts))).astype(np.int64)
    if kept_counts.size:
        take = (np.repeat(kept_starts - offsets[:-1], kept_counts)
                + np.arange(int(offsets[-1]), dtype=np.int64))
    else:
        take = np.empty(0, dtype=np.int64)
    return RetainedKmers(
        codes=unique_codes[keep].astype(np.uint64),
        offsets=offsets,
        rids=rids[take].astype(np.int64),
        positions=positions[take].astype(np.int64),
        strands=strands[take].astype(bool),
    )


def _assert_retained_equal(got: RetainedKmers, expected: RetainedKmers) -> None:
    for column in ("codes", "offsets", "rids", "positions", "strands"):
        expected_column = getattr(expected, column)
        got_column = getattr(got, column)
        assert got_column.dtype == expected_column.dtype, column
        np.testing.assert_array_equal(got_column, expected_column, err_msg=column)


def _reordered(stream, n_blocks: int, shuffle: bool = False):
    """The same occurrence stream, reordered: cut into *n_blocks* blocks
    laid out back to front, then (with *shuffle*) randomly permuted."""
    bounds = [stream[0].size * i // n_blocks for i in range(n_blocks + 1)]
    order = np.concatenate([np.arange(lo, hi) for lo, hi
                            in zip(bounds[:-1], bounds[1:])][::-1])
    if shuffle:
        order = np.random.default_rng(n_blocks).permutation(order)
    return tuple(column[order] for column in stream)


def _with_ties(stream):
    """*stream* plus rows that tie on (code, rid, position): 50 occurrences
    repeated on the other strand, and 50 exact duplicates."""
    return tuple(np.concatenate([column, flip(column[:50]), column[50:100]])
                 for column, flip in zip(stream, (lambda c: c,) * 3 + (np.logical_not,)))


def _widen(stream):
    """*stream* with its codes spread over the ``WIDE_K`` code space: the
    same groups in the same order, but a key too wide to pack in 64 bits."""
    codes, *rest = stream
    return (codes * np.uint64(4 ** (WIDE_K - K)), *rest)


@pytest.mark.parametrize("n_ranges", [1, 3, 4])
@pytest.mark.parametrize("n_batches", [1, 2, 7])
def test_insert_batch_splits_match_one_shot_finalize(n_ranges, n_batches):
    """The stream cut into *n_batches* blocks, fed back to front, builds the
    one-shot ``finalize`` table: the per-code-range oracles, back to back."""
    rng = np.random.default_rng(42)
    stream = _occurrence_stream(rng, 3000)
    expected = _concat([_oracle(*part, min_count=2, max_count=12)
                        for part in _per_range(stream, n_ranges)])

    index = KmerIndex(K, *_reordered(stream, n_batches))

    assert index.n_occurrences == stream[0].size
    _assert_retained_equal(_canonical_view(index, min_count=2, max_count=12), expected)


@pytest.mark.parametrize("n_ranges", [1, 4])
@pytest.mark.parametrize("key", ["packed", "lexsort"])
def test_both_sort_paths_match_the_oracles(key, n_ranges):
    """Either side of the 64-bit line, any order of a stream with ties gives
    the ``finalize`` views and the ``lexsort`` digest."""
    rng = np.random.default_rng(13)
    stream, k = _with_ties(_occurrence_stream(rng, 2000)), K
    if key == "lexsort":
        stream, k = _widen(stream), WIDE_K
    assert (_packed_field_bits(*stream[:3]) is None) == (key == "lexsort")
    expected = _concat([_oracle(*part, min_count=1, max_count=None)
                        for part in _per_range(stream, n_ranges, k)])
    digest = _lexsort_digest(*stream, k)

    for order in (stream, tuple(column[::-1] for column in stream),
                  _reordered(stream, 3, shuffle=True)):
        index = KmerIndex(k, *order)
        _assert_retained_equal(_canonical_view(index, min_count=1), expected)
        assert index.digest() == digest


def test_packed_key_uses_the_full_word():
    """A stream whose fields need exactly 64 bits still packs, one more bit
    does not, and both build the same canonical storage."""
    rids = np.array([3, 0, 3, 1], dtype=np.int64)        # 2 bits
    positions = np.array([7, 7, 0, 5], dtype=np.int64)   # 3 bits
    strands = np.array([True, False, False, True])
    for code_bits, packs in ((58, True), (59, False)):
        top = np.uint64((1 << code_bits) - 1)
        codes = np.array([top, 0, top, 0], dtype=np.uint64)
        assert (_packed_field_bits(codes, rids, positions) is not None) == packs
        index = KmerIndex(31, codes, rids, positions, strands)
        _assert_retained_equal(_canonical_view(index, min_count=1),
                               _oracle(codes, rids, positions, strands, 1, None))


@pytest.mark.parametrize("n_ranges", [1, 4])
def test_shard_views_concatenate_to_the_whole(n_ranges):
    """One index per code range of the stream: their views, back to back,
    are the whole index's view, and their retained counts add up."""
    rng = np.random.default_rng(7)
    stream = _occurrence_stream(rng, 1500)
    parts = [KmerIndex(K, *part) for part in _per_range(stream, n_ranges)]
    whole = KmerIndex(K, *stream)

    for min_count, max_count in ((1, None), (2, None), (2, 6)):
        view = _canonical_view(whole, min_count=min_count, max_count=max_count)
        _assert_retained_equal(_concat([
            _canonical_view(part, min_count=min_count, max_count=max_count)
            for part in parts]), view)
        assert whole.retained_counts(min_count, max_count) == (
            view.n_kmers, view.n_occurrences)
        assert [sum(column) for column in zip(*(
            part.retained_counts(min_count, max_count) for part in parts))] == [
            view.n_kmers, view.n_occurrences]


def test_retained_counts_validates_filters():
    empty = np.empty(0, dtype=np.int64)
    index = KmerIndex(K, empty.astype(np.uint64), empty, empty, empty.astype(bool))
    assert index.retained_counts(min_count=1) == (0, 0)
    with pytest.raises(ValueError):
        index.retained_counts(min_count=0)
    with pytest.raises(ValueError):
        index.retained_counts(min_count=3, max_count=2)


@pytest.mark.parametrize("n_ranges", [1, 3])
def test_nbytes_counts_the_group_table(n_ranges):
    rng = np.random.default_rng(3)
    stream = _occurrence_stream(rng, 1000)
    index = KmerIndex(K, *stream)
    # Every occurrence plus its unique codes and group offsets (one more
    # offset than groups, so each extra per-range index adds 8 bytes).
    assert index.nbytes == _canonical_view(index, min_count=1).nbytes
    assert index.nbytes == sum(KmerIndex(K, *part).nbytes
                               for part in _per_range(stream, n_ranges)) - 8 * (n_ranges - 1)


def test_digest_is_insertion_order_independent():
    rng = np.random.default_rng(11)
    stream = _with_ties(_occurrence_stream(rng, 700))

    forward = KmerIndex(K, *stream)
    assert forward.digest() == _lexsort_digest(*stream, K)

    # Same occurrence set, in reverse.
    backward = KmerIndex(K, *(column[::-1] for column in stream))
    assert backward.digest() == forward.digest()

    # A different stream digests differently (sanity, not a collision proof).
    codes, rids, positions, strands = stream
    other = KmerIndex(K, codes, rids, positions + 1, strands)
    assert forward.digest() != other.digest()


N_INDEX_READS = 30
N_QUERY_READS = 10


def _query_stream(rng, index_codes, n: int, *, absent_only: bool = False):
    """Query occurrences on query RIDs: codes drawn from the index (hits) and
    from codes the index does not hold (query-only groups)."""
    codes, rids, positions, strands = _occurrence_stream(
        rng, n, rid_lo=N_INDEX_READS, rid_hi=N_INDEX_READS + N_QUERY_READS)
    codes = rng.choice(np.setdiff1d(codes, index_codes), size=n)
    if not absent_only:
        hit = rng.random(n) < 0.6
        codes = np.where(hit, rng.choice(index_codes, size=n), codes)
    return codes.astype(np.uint64), rids, positions, strands


@pytest.mark.parametrize("n_ranges", [1, 3])
@pytest.mark.parametrize("n_batches, shuffle", [(1, False), (3, False), (3, True)])
@pytest.mark.parametrize("query", ["mixed", "absent", "empty"])
@pytest.mark.parametrize("max_count", [None, 6])
def test_merged_shard_matches_full_concatenate_merge(n_ranges, n_batches,
                                                     shuffle, query,
                                                     max_count):
    """One ``merged`` call over the whole index equals the full-concatenate
    merge of each code range, back to back.  With 3 ranges the index codes
    stay below the last cut, so query codes above every index group (and a
    range with no index occurrence) are covered."""
    rng = np.random.default_rng(101)
    code_hi = (n_ranges - 1) * 4**K // n_ranges if n_ranges > 1 else 4**K
    stream = _occurrence_stream(rng, 2500, code_hi=code_hi, rid_hi=N_INDEX_READS)
    index = KmerIndex(K, *_reordered(stream, n_batches, shuffle))

    n_query = 0 if query == "empty" else 400
    q_stream = _query_stream(rng, np.unique(stream[0]), n_query,
                             absent_only=query == "absent")
    order_key = rng.permutation(N_INDEX_READS + N_QUERY_READS).astype(np.int64)

    merged, touched = index.merged(*q_stream, order_key, N_INDEX_READS,
                                   min_count=2, max_count=max_count)
    expected = _concat([
        _full_merge_oracle(*i_part, *q_part, order_key, N_INDEX_READS,
                           min_count=2, max_count=max_count)
        for i_part, q_part in zip(_per_range(stream, n_ranges),
                                  _per_range(q_stream, n_ranges))])
    _assert_retained_equal(merged, expected)
    assert touched == int(np.isin(stream[0], q_stream[0]).sum())
    if query == "mixed":
        assert merged.n_kmers > 0
    else:
        assert merged.n_kmers == 0


@pytest.mark.slow
def test_pipeline_index_digest_matches_across_backends(micro_dataset):
    """build_index produces content-identical resident indexes on both backends.

    The process backend's indexes live in worker processes the test cannot
    reach, so the comparison goes through the ``index_digest`` counter — an
    insertion-order-independent content hash summed over ranks.
    """
    config = PipelineConfig(kmer=KmerSpec(k=15), coverage_hint=12.0,
                            error_rate_hint=0.08)
    topology = Topology.single_node(2)
    digests = {}
    try:
        for backend in ("thread", "process"):
            pipeline = DibellaPipeline(config=replace(config, backend=backend),
                                       topology=topology)
            result = pipeline.build_index(micro_dataset.reads)
            digests[backend] = result.counters["index_digest"]
            assert result.counters["index_build_runs"] == 2
            assert result.counters["index_retained_kmers"] > 0
    finally:
        shutdown_rank_pools()
        reset_persistent_read_caches()
        reset_resident_indexes()
    assert digests["thread"] == digests["process"]


def test_pipeline_k31_build_takes_the_lexsort_path(micro_dataset, monkeypatch):
    """At k = 31 the packed key does not fit, so ``build_index`` sorts with
    the ``lexsort`` fallback — and still digests every rank's occurrence
    stream as the oracle does."""
    widths, sorted_streams = [], []
    packed_field_bits = hashtable._packed_field_bits
    canonical_sort = hashtable._canonical_sort

    def spy_bits(*columns):
        widths.append(packed_field_bits(*columns))
        return widths[-1]

    def spy_sort(*columns):
        sorted_streams.append(columns)
        return canonical_sort(*columns)

    monkeypatch.setattr(hashtable, "_packed_field_bits", spy_bits)
    monkeypatch.setattr(hashtable, "_canonical_sort", spy_sort)
    config = PipelineConfig(kmer=KmerSpec(k=WIDE_K), coverage_hint=12.0,
                            error_rate_hint=0.08, backend="thread")
    try:
        result = DibellaPipeline(config=config, topology=Topology.single_node(2)
                                 ).build_index(micro_dataset.reads)
    finally:
        reset_persistent_read_caches()
        reset_resident_indexes()
    assert len(widths) == len(sorted_streams) == 2
    assert widths == [None, None]
    assert result.counters["index_digest"] == sum(
        _lexsort_digest(*stream, WIDE_K) for stream in sorted_streams)
