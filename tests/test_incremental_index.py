"""Index parity: the one-sort build vs a grouping oracle.

The :class:`~repro.kmers.hashtable.KmerIndex` every launch builds is made
once from a rank's whole occurrence stream and stored as its occurrence
keys in canonical order — sorted by ``(code, rid, position, strand)``: the
64-bit keys stage 2 ships, sorted once (:meth:`KmerIndex.from_keys`), or,
when the fields do not fit a word, two-word ``(code, payload)`` rows
sorted by a 2-key ``lexsort``.  These tests pin the equivalences the index
rests on (the arrival-order view the one-shot run reads is pinned in
``tests/test_kmers_structures.py``):

* any reordering of the same occurrence stream, on either side of the
  64-bit line, yields retained views equal to a ``lexsort``-and-group
  oracle with each group's rows in canonical order;
* an index built from routed keys equals one built from the columns in
  every view, its digest and its storage size, and each rank's routed
  keys decode to the oracle sort of the occurrences it owns;
* ``retained_counts`` equals counting the oracle's groups, and ``merged``
  finds the top code's run when the key fills all 64 bits;
* the one table equals the concatenation of per-code-range oracles and of
  per-code-range indexes (``n_ranges`` cuts of the code space; one cut is
  the monolithic oracle) — the layout the code-range-sharded index stored;
* the digest equals a 4-key ``lexsort`` of every occurrence, hashed one
  code-range slice at a time;
* the arrival order the retained views group by (one stable sort of a
  packed key when the fields fit a word) equals its 3-key ``lexsort``;
* ``merged``, which gathers only the index groups a query batch hits,
  equals the full-concatenate merge it replaced (kept here as the oracle);
* the pipeline-level index digest agrees across runtime backends and
  across the compiled and NumPy tiers, and a ``k = 31`` build ships
  two-word rows and still matches the oracle.
"""

from __future__ import annotations

import hashlib
from contextlib import nullcontext
from dataclasses import replace

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import canonical_occurrences

from repro import native
from repro.core import DibellaPipeline, PipelineConfig
from repro.core import stages
from repro.core.counters import SCHEDULE_FLAG_COUNTERS
from repro.core.stages import (
    reset_persistent_read_caches,
    reset_resident_indexes,
    route_occurrences,
)
from repro.kmers import hashtable
from repro.kmers.hashing import owner_of
from repro.kmers.hashtable import (
    WIDE_KEY_BITS,
    KmerIndex,
    RetainedKmers,
    _arrival_order,
    _digest_boundaries,
    decode_occurrences,
    occurrence_key_bits,
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


def _routed_keys(stream, bits: tuple[int, int], n_ranks: int = 1) -> list[np.ndarray]:
    """Every rank's keys of an occurrence stream, packed and bucketed by the
    sender (:func:`route_occurrences`, one read per occurrence)."""
    codes, rids, positions, strands = stream
    return route_occurrences(codes, np.arange(codes.size), positions, strands, rids,
                             n_ranks, bits)


def _key_index(k: int, stream, bits: tuple[int, int], n_blocks: int = 1) -> KmerIndex:
    """The index stage 2 builds: the stream's routed keys, received in
    *n_blocks* blocks, then :meth:`KmerIndex.from_keys`."""
    blocks = np.array_split(_routed_keys(stream, bits)[0], n_blocks)
    return KmerIndex.from_keys(k, blocks, *bits)


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
    """Either side of the 64-bit line (one-word keys, or two-word rows
    sorted by a ``lexsort``), any order of a stream with ties gives the
    ``finalize`` views and the ``lexsort`` digest, whether the index is
    built from the columns or from routed keys."""
    rng = np.random.default_rng(13)
    stream, k = _with_ties(_occurrence_stream(rng, 2000)), K
    if key == "lexsort":
        stream, k = _widen(stream), WIDE_K
    bits = occurrence_key_bits(k, N_READS, READ_LENGTH - 1 + k)
    assert (bits == WIDE_KEY_BITS) == (key == "lexsort")
    expected = _concat([_oracle(*part, min_count=1, max_count=None)
                        for part in _per_range(stream, n_ranges, k)])
    digest = _lexsort_digest(*stream, k)

    for order in (stream, tuple(column[::-1] for column in stream),
                  _reordered(stream, 3, shuffle=True)):
        for index in (KmerIndex(k, *order), _key_index(k, order, bits),
                      _key_index(k, order, bits, 4)):
            _assert_retained_equal(_canonical_view(index, min_count=1), expected)
            assert index.digest() == digest


def test_packed_key_uses_the_full_word():
    """A read set whose key fields need exactly 64 bits still packs, one
    more bit ships two-word rows, and the packed build stores what the
    columns do."""
    assert occurrence_key_bits(29, 4, 7 + 29) == (2, 3)   # 58 + 2 + 3 + 1
    assert occurrence_key_bits(29, 5, 7 + 29) == WIDE_KEY_BITS  # a third RID bit
    assert occurrence_key_bits(29, 4, 8 + 29) == WIDE_KEY_BITS  # a fourth position bit
    assert occurrence_key_bits(31, 1, 1 + 31) == (0, 1)   # 62 + 0 + 1 + 1
    assert occurrence_key_bits(31, 2, 1 + 31) == WIDE_KEY_BITS
    assert occurrence_key_bits(1, 2**33, 1) == WIDE_KEY_BITS    # a RID past 32 bits
    for k, rids, positions in ((29, [3, 0, 3, 1], [7, 7, 0, 5]), (31, [0] * 4, [1, 0, 1, 1])):
        rids, positions = np.array(rids, dtype=np.int64), np.array(positions, dtype=np.int64)
        strands = np.array([True, False, False, True])
        top = np.uint64(4**k - 1)
        codes = np.array([top, 0, top, 0], dtype=np.uint64)
        bits = occurrence_key_bits(k, int(rids.max()) + 1, int(positions.max()) + k)
        stream = (codes, rids, positions, strands)
        columns, keys = KmerIndex(k, *stream), _key_index(k, stream, bits)
        for index in (columns, keys):
            _assert_retained_equal(_canonical_view(index, min_count=1),
                                   _oracle(codes, rids, positions, strands, 1, None))
        assert keys.digest() == columns.digest() == _lexsort_digest(*stream, k)


@given(rows=st.lists(st.tuples(st.integers(0, 2**64 - 1), st.integers(-2, 2**40),
                                st.integers(-2, 2**40)), max_size=40),
       narrow=st.booleans())
@settings(max_examples=200, deadline=None)
def test_arrival_order_is_the_lexsort_order(rows, narrow):
    """The packed arrival key sorts exactly as the 3-key lexsort, ties
    included; fields that do not fit a word (or are negative) take the
    lexsort itself."""
    codes = np.array([r[0] for r in rows], dtype=np.uint64)
    arrival = np.array([r[1] for r in rows], dtype=np.int64)
    positions = np.array([r[2] for r in rows], dtype=np.int64)
    if narrow:  # fields that pack, with many ties
        codes, arrival, positions = codes % np.uint64(5), np.abs(arrival) % 3, np.abs(positions) % 4
    np.testing.assert_array_equal(_arrival_order(codes, arrival, positions),
                                  np.lexsort((positions, arrival, codes)))


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
def test_nbytes_is_one_key_per_occurrence(n_ranges):
    """The index holds its sorted keys and no group table: 8 bytes per
    occurrence and none per k-mer, so per-range indexes add up exactly."""
    rng = np.random.default_rng(3)
    stream = _occurrence_stream(rng, 1000)
    index = KmerIndex(K, *stream)
    view = _canonical_view(index, min_count=1)
    assert view.n_kmers < view.n_occurrences == 1000
    assert index.nbytes == 8 * view.n_occurrences
    assert index.nbytes == sum(KmerIndex(K, *part).nbytes
                               for part in _per_range(stream, n_ranges))


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
                                                     shuffle, query, max_count):
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


@pytest.mark.parametrize("n_blocks", [1, 5])
@pytest.mark.parametrize("k", [K, WIDE_K])
def test_key_built_index_equals_column_built(k, n_blocks):
    """The build from routed keys equals the column build in every view, the
    digest and the storage size; at k = 31 the same read set ships two-word
    rows."""
    rng = np.random.default_rng(29)
    stream = _with_ties(_occurrence_stream(rng, 2500, rid_hi=N_INDEX_READS))
    if k == WIDE_K:
        stream = _widen(stream)
    bits = occurrence_key_bits(k, N_INDEX_READS, READ_LENGTH - 1 + k)
    assert (bits == WIDE_KEY_BITS) == (k == WIDE_K)
    built = _key_index(k, _reordered(stream, 3, shuffle=True), bits, n_blocks)
    columns = KmerIndex(k, *stream)

    assert built.n_occurrences == columns.n_occurrences == stream[0].size
    assert built.nbytes == columns.nbytes == stream[0].size * (16 if k == WIDE_K else 8)
    assert built.digest() == columns.digest() == _lexsort_digest(*stream, k)
    order_key = rng.permutation(N_INDEX_READS + N_QUERY_READS).astype(np.int64)
    for min_count, max_count in ((1, None), (2, None), (2, 6)):
        assert (built.retained_counts(min_count, max_count)
                == columns.retained_counts(min_count, max_count))
        _assert_retained_equal(built.retained(order_key, min_count, max_count),
                               columns.retained(order_key, min_count, max_count))
    q_stream = _query_stream(rng, np.unique(stream[0]), 400)
    merged, touched = built.merged(*q_stream, order_key, N_INDEX_READS, max_count=6)
    expected, expected_touched = columns.merged(*q_stream, order_key, N_INDEX_READS,
                                                max_count=6)
    assert merged.n_kmers > 0 and touched == expected_touched
    _assert_retained_equal(merged, expected)


@pytest.mark.parametrize("tier", ["compiled", "numpy"])
@pytest.mark.parametrize("k", [K, WIDE_K])
def test_routed_keys_build_the_oracle_index(k, tier):
    """Three ranks' worth of stage 2 on one stream: each rank's keys,
    received batch by batch, decode to the occurrences it owns, and its
    index holds them in the oracle's canonical order."""
    rng = np.random.default_rng(31)
    stream = _with_ties(_occurrence_stream(rng, 1800))
    if k == WIDE_K:
        stream = _widen(stream)
    bits = occurrence_key_bits(k, N_READS, READ_LENGTH - 1 + k)
    received: list[list[np.ndarray]] = [[], [], []]
    with mock.patch.object(native, "library", lambda: None) if tier == "numpy" else (
            nullcontext()):
        for batch in _per_range(stream, 4):   # four batches, each routed alone
            for rank, keys in enumerate(_routed_keys(batch, bits, n_ranks=3)):
                received[rank].append(keys)
    owners = owner_of(stream[0], 3)
    for rank in range(3):
        expected = canonical_occurrences(*(column[owners == rank] for column in stream))
        joined = np.concatenate(received[rank])
        assert sorted(zip(*(c.tolist() for c in decode_occurrences(joined, *bits)))) == (
            list(zip(*(c.tolist() for c in expected))))
        view = _canonical_view(KmerIndex.from_keys(k, received[rank], *bits), min_count=1)
        assert not received[rank]
        for got, column in zip((np.repeat(view.codes, view.counts()), view.rids,
                                view.positions, view.strands), expected):
            np.testing.assert_array_equal(got, column)


def test_merged_finds_the_largest_code():
    """With ``2k + rid_bits + position_bits + 1 = 64`` the top code's keys
    reach the word's top bit: ``merged`` must still find its run (an upper
    bound of ``(code + 1) << s`` would wrap to 0 and miss it)."""
    k, top = 29, 4**29 - 1
    bits = occurrence_key_bits(k, 4, 7 + k)
    assert bits == (2, 3)
    # Index reads 0 and 1, query reads 2 and 3.
    index_stream = (np.array([top, top, 5, top, 0], dtype=np.uint64),
                    np.array([0, 1, 0, 1, 1]), np.array([7, 3, 0, 0, 5]),
                    np.array([True, False, True, True, False]))
    q_stream = (np.array([top, 5, 9], dtype=np.uint64), np.array([2, 3, 3]),
                np.array([1, 7, 2]), np.array([False, True, True]))
    index = _key_index(k, index_stream, bits)
    order_key = np.array([2, 0, 3, 1], dtype=np.int64)
    merged, touched = index.merged(*q_stream, order_key, 2, min_count=2)
    _assert_retained_equal(merged, _full_merge_oracle(*index_stream, *q_stream, order_key, 2,
                                                      min_count=2, max_count=None))
    assert merged.codes.tolist() == [5, top] and touched == 4


@given(codes=st.lists(st.sampled_from([0, 1, 2, 7]) | st.integers(0, 4**K - 1), max_size=60),
       wide=st.booleans(), min_count=st.sampled_from([1, 2]),
       max_count=st.sampled_from([None, 1, 2, 3, 5]))
@settings(max_examples=300, deadline=None)
def test_retained_counts_matches_the_oracle(codes, wide, min_count, max_count):
    """``retained_counts`` reads the runs of equal codes: it counts the
    groups the oracle counts, the last run and the top code included, in
    both key layouts."""
    if max_count is not None and max_count < min_count:
        max_count = None
    codes = np.array(codes, dtype=np.uint64)
    k = K
    if wide:
        codes, k = codes * np.uint64(4 ** (WIDE_K - K)), WIDE_K
    n = codes.size
    index = KmerIndex(k, codes, np.arange(n) % N_READS, np.arange(n), np.arange(n) % 2 == 0)
    expected = _oracle(codes, np.arange(n) % N_READS, np.arange(n), np.arange(n) % 2 == 0,
                       min_count, max_count)
    assert index.retained_counts(min_count, max_count) == (expected.n_kmers,
                                                           expected.n_occurrences)


@pytest.mark.parametrize("launch", ["run", "build_index"])
def test_pipeline_key_path_matches_column_path(micro_dataset, micro_config,
                                               monkeypatch, launch):
    """Stage 2 through one-word keys (the micro set at k = 15 fits a word)
    and forced onto two-word rows builds the same index: the same counters,
    digest and overlaps, one rank at a time — apart from the stage-2
    payload and the index bytes, which two words per occurrence double."""
    layouts = []
    key_bits = stages.occurrence_key_bits

    def spy_bits(*args):
        layouts.append(key_bits(*args))
        return layouts[-1]

    results = {}
    try:
        for path in ("keys", "rows"):
            if path == "rows":
                monkeypatch.setattr(stages, "occurrence_key_bits",
                                    lambda *args: layouts.append(WIDE_KEY_BITS)
                                    or WIDE_KEY_BITS)
            else:
                monkeypatch.setattr(stages, "occurrence_key_bits", spy_bits)
            layouts.clear()
            pipeline = DibellaPipeline(config=replace(micro_config, backend="thread"),
                                       topology=Topology.single_node(2))
            results[path] = getattr(pipeline, launch)(micro_dataset.reads)
            assert layouts and all((bits == WIDE_KEY_BITS) == (path == "rows")
                                   for bits in layouts)
    finally:
        reset_persistent_read_caches()
        reset_resident_indexes()
    keys, rows = results["keys"], results["rows"]
    assert keys.overlap_pairs() == rows.overlap_pairs()
    for key_counters, row_counters in zip(
            [keys.counters, *(report.counters for report in keys.rank_reports)],
            [rows.counters, *(report.counters for report in rows.rank_reports)]):
        for doubled in ("hashtable_payload_bytes", "index_nbytes"):
            if doubled in key_counters:
                assert row_counters.pop(doubled) == 2 * key_counters.pop(doubled)
        assert key_counters == row_counters


@pytest.mark.parametrize("launch", ["run", "build_index"])
def test_pipeline_tiers_agree_at_three_ranks(micro_dataset, micro_config, launch):
    """Three ranks route, gate and sort the same keys on the compiled and
    the NumPy tier: the same counters (schedule flags aside), digest and
    overlaps, rank by rank."""
    results = {}
    try:
        for tier in ("compiled", "numpy"):
            with mock.patch.object(native, "library", lambda: None) if tier == "numpy" else (
                    nullcontext()):
                pipeline = DibellaPipeline(config=replace(micro_config, backend="thread"),
                                           topology=Topology.single_node(3))
                results[tier] = getattr(pipeline, launch)(micro_dataset.reads)
    finally:
        reset_persistent_read_caches()
        reset_resident_indexes()

    def science(counters):
        return {name: value for name, value in counters.items()
                if name not in SCHEDULE_FLAG_COUNTERS}

    compiled, numpy_tier = results["compiled"], results["numpy"]
    assert compiled.overlap_pairs() == numpy_tier.overlap_pairs()
    assert [science(report.counters) for report in compiled.rank_reports] == [
        science(report.counters) for report in numpy_tier.rank_reports]
    assert compiled.counters["hashtable_payload_bytes"] == 8 * compiled.counters[
        "kmers_received_hashtable"]


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
    """At k = 31 the key does not fit a word, so ``build_index`` ships
    two-word rows and sorts them with a 2-key ``lexsort`` — and still
    digests every rank's occurrence stream as the oracle does."""
    widths, sorted_streams = [], []
    key_bits = stages.occurrence_key_bits
    join_keys = hashtable.join_keys

    def spy_bits(*args):
        widths.append(key_bits(*args))
        return widths[-1]

    def spy_join(chunks, *bits):
        keys = join_keys(chunks, *bits)
        sorted_streams.append(tuple(column.copy()
                                    for column in decode_occurrences(keys, *bits)))
        return keys

    monkeypatch.setattr(stages, "occurrence_key_bits", spy_bits)
    monkeypatch.setattr(hashtable, "join_keys", spy_join)
    config = PipelineConfig(kmer=KmerSpec(k=WIDE_K), coverage_hint=12.0,
                            error_rate_hint=0.08, backend="thread")
    try:
        result = DibellaPipeline(config=config, topology=Topology.single_node(2)
                                 ).build_index(micro_dataset.reads)
    finally:
        reset_persistent_read_caches()
        reset_resident_indexes()
    assert len(widths) == len(sorted_streams) == 2
    assert widths == [WIDE_KEY_BITS, WIDE_KEY_BITS]
    assert result.counters["hashtable_payload_bytes"] == 16 * result.counters[
        "kmers_received_hashtable"]
    assert result.counters["index_digest"] == sum(
        _lexsort_digest(*stream, WIDE_K) for stream in sorted_streams)
