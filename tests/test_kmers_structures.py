"""Unit and property tests for repro.kmers (hashing, Bloom, HLL, counter, hash table)."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.kmers import bloom as bloom_module
from repro.kmers.bloom import BloomFilter
from repro.kmers.counter import KmerCounter, count_kmers
from repro.kmers.hashing import hash_with_seed, mix64, owner_of
from repro.kmers.hashtable import (
    KmerIndex,
    RetainedKmers,
    _digest_boundaries,
    key_mask,
)
from repro.kmers.hyperloglog import HyperLogLog
from repro.seq.kmer import KmerSpec
from repro.seq.records import Read, ReadSet
from repro.stats.histograms import kmer_spectrum

codes_arrays = st.lists(st.integers(min_value=0, max_value=2**62), min_size=0, max_size=300).map(
    lambda xs: np.array(xs, dtype=np.uint64)
)


class TestHashing:
    def test_mix64_deterministic_and_scalar(self):
        assert mix64(12345) == mix64(12345)
        assert isinstance(mix64(1), int)

    def test_mix64_distinct(self):
        values = mix64(np.arange(1000, dtype=np.uint64))
        assert np.unique(values).size == 1000

    def test_seeded_hashes_differ(self):
        x = np.arange(100, dtype=np.uint64)
        assert not np.array_equal(hash_with_seed(x, 1), hash_with_seed(x, 2))

    def test_owner_range_and_balance(self):
        codes = np.arange(100_000, dtype=np.uint64)
        owners = owner_of(codes, 16)
        assert owners.min() >= 0 and owners.max() < 16
        counts = np.bincount(owners, minlength=16)
        assert counts.min() > 0.8 * counts.mean()

    def test_owner_scalar(self):
        assert 0 <= owner_of(123, 7) < 7

    def test_owner_invalid(self):
        with pytest.raises(ValueError):
            owner_of(np.arange(3, dtype=np.uint64), 0)

    @given(codes_arrays, st.integers(min_value=1, max_value=64))
    @settings(max_examples=30)
    def test_owner_is_stable(self, codes, n_ranks):
        a = owner_of(codes, n_ranks)
        b = owner_of(codes, n_ranks)
        np.testing.assert_array_equal(a, b)


class TestBloomFilter:
    def test_sizing(self):
        bloom = BloomFilter.for_expected_items(10_000, fp_rate=0.01)
        assert bloom.n_bits > 10_000
        assert bloom.n_hashes >= 4

    def test_no_false_negatives(self):
        rng = np.random.default_rng(0)
        codes = rng.integers(0, 2**62, size=5000).astype(np.uint64)
        bloom = BloomFilter.for_expected_items(5000)
        bloom.insert_many(codes)
        assert bloom.contains_many(codes).all()

    def test_second_insert_reports_present(self):
        codes = np.arange(100, dtype=np.uint64)
        bloom = BloomFilter.for_expected_items(1000)
        first = bloom.insert_many(codes)
        second = bloom.insert_many(codes)
        assert not first.all()  # most were new the first time
        assert second.all()

    def test_within_batch_duplicates_detected(self):
        bloom = BloomFilter.for_expected_items(1000)
        codes = np.array([5, 7, 5, 9, 7, 5], dtype=np.uint64)
        seen = bloom.insert_many(codes)
        # The 3rd, 5th and 6th entries repeat earlier entries of the batch.
        assert seen[2] and seen[4] and seen[5]

    def test_batch_is_tested_against_the_filter_before_it(self):
        # Distinct codes over several probe chunks, into a filter that the
        # first chunk alone saturates: none was present before the batch,
        # so none may report present.
        codes = np.random.default_rng(2).permutation(
            np.arange(3 * bloom_module._PROBE_CHUNK + 5, dtype=np.uint64))
        bloom = BloomFilter(n_bits=4096, n_hashes=2)
        assert not bloom.insert_many(codes).any()
        assert bloom.contains_many(codes).all()

    def test_false_positive_rate_reasonable(self):
        rng = np.random.default_rng(1)
        inserted = rng.integers(0, 2**62, size=20_000).astype(np.uint64)
        probes = rng.integers(0, 2**62, size=20_000).astype(np.uint64)
        bloom = BloomFilter.for_expected_items(20_000, fp_rate=0.05)
        bloom.insert_many(inserted)
        fp = bloom.contains_many(probes).mean()
        assert fp < 0.15

    def test_empty_batch(self):
        bloom = BloomFilter(n_bits=128)
        assert bloom.insert_many(np.empty(0, dtype=np.uint64)).size == 0

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            BloomFilter(n_bits=0)
        with pytest.raises(ValueError):
            BloomFilter.for_expected_items(0)
        with pytest.raises(ValueError):
            BloomFilter.for_expected_items(10, fp_rate=2.0)

    @given(codes_arrays)
    @settings(max_examples=30)
    def test_never_false_negative_property(self, codes):
        bloom = BloomFilter.for_expected_items(max(1, codes.size))
        bloom.insert_many(codes)
        if codes.size:
            assert bloom.contains_many(codes).all()


class TestHyperLogLog:
    def test_estimate_accuracy(self):
        rng = np.random.default_rng(2)
        codes = rng.integers(0, 2**62, size=50_000).astype(np.uint64)
        hll = HyperLogLog(precision=14)
        hll.add_many(codes)
        distinct = np.unique(codes).size
        assert abs(hll.estimate() - distinct) / distinct < 0.05

    def test_duplicates_do_not_inflate(self):
        codes = np.arange(1000, dtype=np.uint64)
        hll = HyperLogLog(precision=12)
        for _ in range(5):
            hll.add_many(codes)
        assert abs(hll.estimate() - 1000) / 1000 < 0.1

    def test_small_range_correction(self):
        hll = HyperLogLog(precision=10)
        hll.add_many(np.arange(10, dtype=np.uint64))
        assert 5 <= hll.estimate() <= 20

    def test_merge_equals_union(self):
        rng = np.random.default_rng(3)
        a = rng.integers(0, 2**62, size=20_000).astype(np.uint64)
        b = rng.integers(0, 2**62, size=20_000).astype(np.uint64)
        ha, hb, hu = HyperLogLog(12), HyperLogLog(12), HyperLogLog(12)
        ha.add_many(a)
        hb.add_many(b)
        hu.add_many(np.concatenate([a, b]))
        merged = ha | hb
        assert abs(merged.estimate() - hu.estimate()) / hu.estimate() < 0.01

    def test_register_roundtrip(self):
        hll = HyperLogLog(precision=8)
        hll.add_many(np.arange(500, dtype=np.uint64))
        clone = HyperLogLog.from_registers(hll.registers())
        assert clone.estimate() == hll.estimate()

    def test_invalid(self):
        with pytest.raises(ValueError):
            HyperLogLog(precision=2)
        with pytest.raises(ValueError):
            HyperLogLog(12).merge(HyperLogLog(13))


class TestCounter:
    def test_count_kmers(self):
        codes, counts = count_kmers(np.array([3, 1, 3, 3, 2], dtype=np.uint64))
        np.testing.assert_array_equal(codes, [1, 2, 3])
        np.testing.assert_array_equal(counts, [1, 1, 3])

    def test_streaming_counter(self):
        counter = KmerCounter(KmerSpec(k=3, canonical=False))
        counter.add_read("ACGTACGT")
        counter.add_read("ACG")
        assert counter.total_kmers == 7
        codes, counts = counter.counts()
        assert counts[codes == 0b000110].tolist() == [3]  # "ACG" == codes 0,1,2
        assert counter.distinct_kmers > 0

    def test_singleton_fraction_and_retained(self):
        counter = KmerCounter(KmerSpec(k=2, canonical=False))
        counter.add_codes(np.array([1, 1, 2, 3, 3, 3], dtype=np.uint64))
        assert counter.singleton_fraction() == pytest.approx(1 / 3)
        codes, counts = counter.counts()
        np.testing.assert_array_equal(codes, [1, 2, 3])
        np.testing.assert_array_equal(counts, [2, 1, 3])
        # The reliable range [2, 2] keeps only code 1.
        np.testing.assert_array_equal(codes[(counts >= 2) & (counts <= 2)], [1])

    def test_histogram(self):
        # Canonical 3-mers: AAA x10, ACA x1, CAC x1, CCC x2.
        sequences = ["A" * 12, "ACA", "CAC", "CCC", "CCC"]
        reads = ReadSet(Read(name=f"r{i}", sequence=s) for i, s in enumerate(sequences))
        spectrum = kmer_spectrum(reads, k=3, max_multiplicity=8)
        hist = spectrum["histogram"]
        assert hist[1] == 2
        assert hist[2] == 1
        assert hist[8] == 1  # clamped
        assert spectrum["max_multiplicity"] == 10


def _index_of(occurrences, k=17):
    """A KmerIndex over (code, rid, pos, strand) tuples."""
    return KmerIndex(
        k,
        np.array([o[0] for o in occurrences], dtype=np.uint64),
        np.array([o[1] for o in occurrences], dtype=np.int64),
        np.array([o[2] for o in occurrences], dtype=np.int64),
        np.array([o[3] for o in occurrences], dtype=bool),
    )


def _stable_grouping(codes, rids, positions, strands, min_count, max_count):
    """The oracle: group an arrival-ordered occurrence stream by code with one
    stable sort, so each group keeps arrival order, then apply the count
    filters — the whole-partition finalise the sorted index replaced."""
    order = np.argsort(codes, kind="stable")
    sorted_codes = codes[order]
    starts = np.flatnonzero(np.concatenate(
        ([sorted_codes.size > 0], sorted_codes[1:] != sorted_codes[:-1])))
    counts = np.diff(np.append(starts, sorted_codes.size))
    keep = counts >= min_count
    if max_count is not None:
        keep &= counts <= max_count
    rows = np.concatenate([order[lo:lo + c] for lo, c in zip(starts[keep], counts[keep])]
                          + [np.empty(0, dtype=np.int64)])
    return RetainedKmers(
        codes=sorted_codes[starts[keep]],
        offsets=np.concatenate(([0], np.cumsum(counts[keep]))).astype(np.int64),
        rids=rids[rows], positions=positions[rows], strands=strands[rows],
    )


class TestHashTablePartition:
    """One rank's table partition: the candidate-key gate and the index views."""

    def test_keys_and_membership(self):
        keys = np.unique(np.array([5, 9, 5, 7], dtype=np.uint64))
        assert keys.size == 3
        mask = key_mask(keys, np.array([5, 6, 7, 8, 9], dtype=np.uint64))
        np.testing.assert_array_equal(mask, [True, False, True, False, True])
        assert not key_mask(np.empty(0, dtype=np.uint64),
                            np.array([1], dtype=np.uint64)).any()

    def test_non_key_occurrences_dropped(self):
        keys = np.array([10], dtype=np.uint64)
        codes = np.array([10, 11, 12, 10], dtype=np.uint64)
        stored = codes[key_mask(keys, codes)]
        np.testing.assert_array_equal(stored, [10, 10])

    def test_finalize_groups_and_filters(self):
        occurrences = [
            (100, 0, 3, True), (100, 1, 7, False), (100, 2, 9, True),   # count 3
            (200, 3, 1, True),                                          # singleton
            (300, 4, 0, True), (300, 5, 2, True), (300, 6, 4, True),
            (300, 7, 6, True), (300, 8, 8, True),                       # count 5
        ]
        index = _index_of(occurrences)
        retained = index.retained(np.arange(9), min_count=2, max_count=4)
        assert retained.n_kmers == 1  # only code 100 survives (300 exceeds max)
        code, rids, positions, strands = retained.group(0)
        assert code == 100
        np.testing.assert_array_equal(rids, [0, 1, 2])
        assert retained.counts().tolist() == [3]
        assert strands.dtype == bool
        # A reversed arrival order reverses the group.
        reverse = index.retained(np.arange(9)[::-1].copy(), min_count=2,
                                 max_count=4)
        np.testing.assert_array_equal(reverse.rids, [2, 1, 0])
        np.testing.assert_array_equal(reverse.strands, [True, False, True])

    def test_finalize_empty(self):
        index = _index_of([])
        retained = index.retained(np.empty(0, dtype=np.int64))
        assert retained.n_kmers == 0
        assert retained.n_occurrences == 0
        assert retained.nbytes == RetainedKmers.empty().nbytes

    def test_add_occurrences_length_mismatch(self):
        with pytest.raises(ValueError):
            KmerIndex(17, np.array([1], dtype=np.uint64), np.array([0, 1]),
                      np.array([0]), np.array([True]))

    def test_memory_accounting(self):
        occurrences = [(code, rid, rid, True) for code in (1, 2, 3) for rid in range(4)]
        index = _index_of(occurrences)
        # RID, position and strand per occurrence; each code once, in the
        # group table with its offsets.
        assert index.nbytes == 12 * (8 + 8 + 1) + 3 * 8 + 4 * 8

    def test_retained_empty_constructor(self):
        empty = RetainedKmers.empty()
        assert empty.n_kmers == 0 and empty.n_occurrences == 0


def _concat_retained(tables):
    """Concatenate tables over ascending code ranges into one RetainedKmers
    (test oracle)."""
    non_empty = [s for s in tables if s.n_kmers]
    if not non_empty:
        return RetainedKmers.empty()
    counts = np.concatenate([np.diff(s.offsets) for s in non_empty])
    return RetainedKmers(
        codes=np.concatenate([s.codes for s in non_empty]),
        offsets=np.concatenate(([0], np.cumsum(counts))).astype(np.int64),
        rids=np.concatenate([s.rids for s in non_empty]),
        positions=np.concatenate([s.positions for s in non_empty]),
        strands=np.concatenate([s.strands for s in non_empty]),
    )


class TestCodeRangeSharding:
    """retained: the one-shot run's arrival-ordered view, against oracles cut
    by code range (the layout of the former code-range-sharded index)."""

    N_READS = 50

    def _arrival_stream(self, seed=0, n_occ=400, code_bits=34):
        """A random occurrence stream in arrival order, and its order key.

        Arrival order is ascending ``(order_key[rid], position)``, as stage 2
        delivers occurrences; ``(rid, position)`` is unique, one k-mer per
        read position.
        """
        rng = np.random.default_rng(seed)
        codes = rng.integers(0, 1 << code_bits, size=n_occ).astype(np.uint64)
        # Duplicate a share of codes so multi-occurrence groups exist.
        codes[n_occ // 2:] = rng.permutation(codes[: n_occ - n_occ // 2])
        slots = np.sort(rng.choice(self.N_READS * 1000, size=n_occ, replace=False))
        arrival_rank, positions = slots // 1000, (slots % 1000).astype(np.int64)
        order_key = rng.permutation(self.N_READS).astype(np.int64)
        rid_of_rank = np.argsort(order_key)
        rids = rid_of_rank[arrival_rank].astype(np.int64)
        strands = rng.integers(0, 2, size=n_occ).astype(bool)
        return (codes, rids, positions, strands), order_key

    def _index(self, seed=0):
        stream, order_key = self._arrival_stream(seed)
        # The index sees the stream in a scrambled order: storage is canonical.
        scramble = np.random.default_rng(seed + 1).permutation(stream[0].size)
        index = KmerIndex(17, *(column[scramble] for column in stream))
        return index, stream, order_key

    def test_boundaries_partition_the_code_space(self):
        """The digest's code-range slices partition ``[0, 4**k)``."""
        boundaries = _digest_boundaries(17)
        assert boundaries.dtype == np.uint64
        assert boundaries.size == 3
        assert np.all(np.diff(boundaries.astype(object)) > 0)
        assert int(boundaries[-1]) < 4 ** 17
        assert int(_digest_boundaries(31)[-1]) < 4 ** 31

    def test_shards_concatenate_to_the_monolithic_finalize(self):
        """The arrival-order oracle: the ``retained`` view equals one stable
        sort of the arrival-ordered stream, and the stable sorts of its
        code-range cuts, back to back."""
        for seed, (min_count, max_count), n_ranges in itertools.product(
                range(3), ((2, 6), (1, None), (3, None)), (1, 2, 3, 7, 8)):
            index, stream, order_key = self._index(seed)
            boundaries = np.array([(r << 34) // n_ranges for r in range(1, n_ranges)],
                                  dtype=np.uint64)
            range_of = np.searchsorted(boundaries, stream[0], side="right")
            expected = _concat_retained([
                _stable_grouping(*(column[range_of == r] for column in stream),
                                 min_count, max_count)
                for r in range(n_ranges)])
            retained = index.retained(order_key, min_count, max_count)
            for column in ("codes", "offsets", "rids", "positions", "strands"):
                assert getattr(retained, column).dtype == getattr(expected, column).dtype
                np.testing.assert_array_equal(getattr(retained, column),
                                              getattr(expected, column), err_msg=column)

    def test_empty_partition_yields_empty_shards(self):
        index = _index_of([])
        retained = index.retained(np.empty(0, dtype=np.int64))
        assert retained.n_kmers == 0

    def test_count_filter_validation(self):
        index, _, order_key = self._index()
        with pytest.raises(ValueError):
            index.retained(order_key, min_count=0)
        with pytest.raises(ValueError):
            index.retained(order_key, min_count=3, max_count=2)
