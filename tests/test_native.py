"""The compiled k-mer front end against its NumPy reference bodies, bit for bit.

Each entry point of the compiled library that the front end calls — the
Bloom filter's test and test-then-set, the candidate-key gate, the batch
k-mer extraction, the routing of exchange rows by destination, stage 2's
packing of occurrences into the index's keys and the HyperLogLog register
max — must return exactly what the NumPy body it replaces returns, on the
inputs that stress its edges.  The x-drop
kernel's twin of these tests is ``tests/test_alignment.py::TestCompiledXdrop``.
"""

from __future__ import annotations

from contextlib import nullcontext
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import native
from repro.core import stages
from repro.core.stages import route_occurrences
from repro.kmers import hashtable
from repro.kmers.bloom import BloomFilter
from repro.kmers.hashing import mix64, owner_of
from repro.kmers.hashtable import (
    WIDE_KEY_BITS,
    _key_mask_numpy,
    decode_occurrences,
    key_mask,
    pack_occurrences,
)
from repro.kmers.hyperloglog import HyperLogLog
from repro.mpisim import collectives
from repro.mpisim.collectives import _bucket_numpy, bucket_by_destination, bucket_by_owner
from repro.seq import kmer
from repro.seq.kmer import KmerSpec, _extract_numpy, extract_kmers_batch

#: The largest 31-mer code, and the one uint64 whose successor wraps to 0
#: (the compiled hash sets mark a filled slot with code + 1).
MAX_CODE = 4**31 - 1
TOP = 2**64 - 1


@pytest.fixture(autouse=True)
def _compiled_or_skip():
    if native.library() is None:
        pytest.skip("compiled tier unavailable (no C compiler on this host)")


def _numpy_tier():
    """Context in which :func:`repro.native.library` reports no library."""
    return mock.patch.object(native, "library", lambda: None)


#: Codes with many repeats (a small pool) mixed with the extremes.
codes = (st.integers(min_value=0, max_value=15)
         | st.sampled_from([0, MAX_CODE, TOP])
         | st.integers(min_value=0, max_value=MAX_CODE))


class TestCompiledBloom:
    @given(n_bits=st.integers(min_value=1, max_value=3000),
           n_hashes=st.integers(min_value=1, max_value=8),
           batches=st.lists(st.lists(codes, max_size=60), min_size=1, max_size=5),
           probes=st.lists(codes, max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_matches_numpy_body_across_batches(self, n_bits, n_hashes, batches, probes):
        # State carries between batches: each batch is tested against the
        # bits all earlier batches set.
        compiled = BloomFilter(n_bits, n_hashes)
        reference = BloomFilter(n_bits, n_hashes)
        probe = np.array(probes, dtype=np.uint64)
        for batch in batches:
            batch = np.array(batch, dtype=np.uint64)
            present = compiled.insert_many(batch)
            assert present.dtype == bool
            np.testing.assert_array_equal(present, reference._insert_numpy(batch))
            np.testing.assert_array_equal(compiled._bits, reference._bits)
            np.testing.assert_array_equal(compiled.contains_many(probe),
                                          reference._contains_numpy(probe))

    def test_in_batch_repeats_and_extremes(self):
        batch = np.array([MAX_CODE, 0, MAX_CODE, TOP, 0, TOP, 7], dtype=np.uint64)
        for n_bits in (1, 13, 64, 1001):
            compiled, reference = BloomFilter(n_bits, 3), BloomFilter(n_bits, 3)
            present = compiled.insert_many(batch)
            np.testing.assert_array_equal(present, reference._insert_numpy(batch))
            np.testing.assert_array_equal(compiled._bits, reference._bits)
            assert present[[2, 4, 5]].all()

    def test_large_batch(self):
        rng = np.random.default_rng(5)
        batch = rng.integers(0, 4**17, size=40_000, dtype=np.uint64)
        batch[::3] = batch[: batch[::3].size]
        compiled = BloomFilter.for_expected_items(20_000)
        reference = BloomFilter.for_expected_items(20_000)
        for half in np.array_split(batch, 2):
            np.testing.assert_array_equal(compiled.insert_many(half),
                                          reference._insert_numpy(half))
        np.testing.assert_array_equal(compiled._bits, reference._bits)

    def test_default_entry_points_use_compiled_tier(self, monkeypatch):
        monkeypatch.setattr(BloomFilter, "_insert_numpy", None)
        monkeypatch.setattr(BloomFilter, "_contains_numpy", None)
        bloom = BloomFilter(256, 2)
        assert bloom.insert_many(np.array([4, 4], dtype=np.uint64)).tolist() == [False, True]
        assert bloom.contains_many(np.array([4], dtype=np.uint64)).tolist() == [True]

    def test_empty_batch_on_both_tiers(self):
        empty = np.empty(0, dtype=np.uint64)
        for tier in (nullcontext(), _numpy_tier()):
            with tier:
                bloom = BloomFilter(128)
                assert bloom.insert_many(empty).size == 0
                assert bloom.contains_many(empty).size == 0
                assert not bloom._bits.any()


class TestCompiledKeyGate:
    @given(keys=st.lists(codes, max_size=80),
           probes=st.lists(codes, max_size=120))
    @settings(max_examples=300, deadline=None)
    def test_matches_numpy_body_on_strided_columns(self, keys, probes):
        keys = np.unique(np.array(keys, dtype=np.uint64))
        # The stage-2 shape: the code column of (code, meta) rows, read in
        # place (stride 2 words) and backwards (stride -2 words).
        rows = np.zeros((len(probes), 2), dtype=np.uint64)
        rows[:, 0] = probes
        rows[:, 1] = TOP
        for column in (rows[:, 0], rows[::-1, 0]):
            with _numpy_tier():
                reference = key_mask(keys, column)
            mask = key_mask(keys, column)
            assert mask.dtype == bool
            np.testing.assert_array_equal(mask, reference)
            if keys.size:
                np.testing.assert_array_equal(mask, _key_mask_numpy(keys, column.copy()))

    @given(keys=st.lists(st.integers(min_value=0, max_value=40), max_size=30),
           probes=st.lists(st.tuples(st.integers(min_value=0, max_value=40) | codes,
                                     st.integers(min_value=0, max_value=TOP)),
                           max_size=60),
           shift=st.integers(min_value=0, max_value=63))
    @settings(max_examples=300, deadline=None)
    def test_shift_reads_the_code_field_of_keys(self, keys, probes, shift):
        """Stage 2's one-word shape: the code is ``key >> shift``; the bits
        below it (RID, position, strand) never reach the gate."""
        code_top = (1 << (64 - shift)) - 1
        keys = np.unique(np.array(keys, dtype=np.uint64) & np.uint64(code_top))
        probe_codes = [code & code_top for code, _ in probes]
        packed = np.array([code << shift | low & ((1 << shift) - 1)
                           for code, (_, low) in zip(probe_codes, probes)], dtype=np.uint64)
        expected = [code in set(keys.tolist()) for code in probe_codes]
        for tier in (nullcontext(), _numpy_tier()):
            with tier:
                assert key_mask(keys, packed, shift).tolist() == expected

    def test_empty_keys(self):
        column = np.arange(10, dtype=np.uint64).reshape(5, 2)[:, 0]
        for tier in (nullcontext(), _numpy_tier()):
            with tier:
                assert not key_mask(np.empty(0, dtype=np.uint64), column).any()

    def test_extremes(self):
        keys = np.array([0, 5, MAX_CODE, TOP], dtype=np.uint64)
        probes = np.array([TOP, MAX_CODE, 1, 0, 5, TOP - 1], dtype=np.uint64)
        np.testing.assert_array_equal(key_mask(keys, probes),
                                      [True, True, False, True, True, False])
        np.testing.assert_array_equal(key_mask(keys[:-1], probes),
                                      [False, True, False, True, True, False])

    def test_other_shapes_and_dtypes_take_the_numpy_body(self):
        keys = np.array([3, 9, 12], dtype=np.uint64)
        for codes in (np.array([9, 4, 12], dtype=np.int64),
                      np.array([[9, 4], [12, 3]], dtype=np.uint64)):
            np.testing.assert_array_equal(key_mask(keys, codes), _key_mask_numpy(keys, codes))

    def test_default_entry_point_uses_compiled_tier(self, monkeypatch):
        monkeypatch.setattr(hashtable, "_key_mask_numpy", None)
        keys = np.array([3, 9], dtype=np.uint64)
        assert key_mask(keys, np.array([9, 4], dtype=np.uint64)).tolist() == [True, False]


reads = st.lists(st.text(alphabet="ACGTacgt", max_size=70), max_size=8)
ks = st.sampled_from([1, 2, 3, 16, 17, 30, 31]) | st.integers(min_value=1, max_value=31)


def _assert_same_columns(got, expected):
    assert len(got) == len(expected) == 4
    for column, reference in zip(got, expected):
        assert column.dtype == reference.dtype
        np.testing.assert_array_equal(column, reference)


class TestCompiledExtraction:
    @given(seqs=reads, k=ks, canonical=st.booleans(), with_strand=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_matches_numpy_body(self, seqs, k, canonical, with_strand):
        spec = KmerSpec(k=k, canonical=canonical)
        _assert_same_columns(extract_kmers_batch(seqs, spec, with_strand),
                             _extract_numpy(seqs, spec, with_strand))

    @pytest.mark.parametrize("k", [1, 31])
    @pytest.mark.parametrize("canonical", [True, False])
    @pytest.mark.parametrize("with_strand", [True, False])
    def test_edge_shapes(self, k, canonical, with_strand):
        spec = KmerSpec(k=k, canonical=canonical)
        rng = np.random.default_rng(k)
        long = "".join(rng.choice(list("ACGTacgt"), size=200))
        for seqs in ([], [""], ["", ""], ["ACG"], [long], ["", long[:k], "", long],
                     [long[:k - 1] if k > 1 else "", long.lower()]):
            _assert_same_columns(extract_kmers_batch(seqs, spec, with_strand),
                                 _extract_numpy(seqs, spec, with_strand))

    @given(seqs=st.lists(st.text(alphabet="ACGTacgt", max_size=40), min_size=1, max_size=5),
           where=st.data(), bad=st.sampled_from(list("NnRX-* \n\x00\x7fé")),
           k=ks, with_strand=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_invalid_character_raises_the_same_error(self, seqs, where, bad, k, with_strand):
        # Reads shorter than k are checked too: the NumPy body encodes
        # every character before it extracts.
        read = where.draw(st.integers(min_value=0, max_value=len(seqs) - 1))
        at = where.draw(st.integers(min_value=0, max_value=len(seqs[read])))
        seqs[read] = seqs[read][:at] + bad + seqs[read][at:]
        spec = KmerSpec(k=k)
        with pytest.raises(ValueError) as reference:
            _extract_numpy(seqs, spec, with_strand)
        with pytest.raises(ValueError) as compiled:
            extract_kmers_batch(seqs, spec, with_strand)
        assert type(compiled.value) is type(reference.value)
        assert str(compiled.value) == str(reference.value)

    def test_default_entry_point_uses_compiled_tier(self, monkeypatch):
        monkeypatch.setattr(kmer, "_extract_numpy", None)
        codes, read_index, positions, is_forward = extract_kmers_batch(
            ["ACGT", "TT"], KmerSpec(k=2), with_strand=True)
        assert codes.tolist() == [1, 6, 1, 0]  # AC, CG, GT -> AC, TT -> AA
        assert read_index.tolist() == [0, 0, 0, 1]
        assert positions.tolist() == [0, 1, 2, 0]
        assert is_forward.tolist() == [True, True, False, False]


def _assert_same_buckets(got, expected):
    assert len(got) == len(expected)
    for bucket, reference in zip(got, expected):
        assert bucket.dtype == reference.dtype
        assert bucket.shape == reference.shape
        np.testing.assert_array_equal(bucket, reference)


#: Rank counts 1-9: powers of two, and primes that no bit mask reduces.
n_ranks = st.integers(min_value=1, max_value=9)
words = st.integers(min_value=0, max_value=TOP) | st.sampled_from([0, TOP])


@st.composite
def routed_rows(draw):
    """``(rows, destinations, n_ranks)``: rows of 1, 2 or 5 words, uint64 or
    int64, and destinations in range, all to one rank or mixed."""
    width = draw(st.sampled_from([1, 2, 5]))
    dtype = draw(st.sampled_from([np.uint64, np.int64]))
    p = draw(n_ranks)
    n = draw(st.integers(min_value=0, max_value=60))
    flat = np.array(draw(st.lists(words, min_size=n * width, max_size=n * width)),
                    dtype=np.uint64).view(dtype)
    rows = flat if width == 1 else flat.reshape(n, width)
    one_rank = st.just(draw(st.integers(min_value=0, max_value=p - 1)))
    dest = draw(st.lists(one_rank | st.integers(min_value=0, max_value=p - 1),
                         min_size=n, max_size=n))
    return rows, np.array(dest, dtype=np.int64), p


class TestCompiledRouting:
    @given(case=routed_rows())
    @settings(max_examples=300, deadline=None)
    def test_route_rows_matches_numpy_body(self, case):
        rows, dest, p = case
        _assert_same_buckets(bucket_by_destination(rows, dest, p),
                             _bucket_numpy(rows, dest, p))
        # By owner: the owner of each row's first word, hashed in C.
        codes = rows.view(np.uint64)
        owners = owner_of(codes if codes.ndim == 1 else codes[:, 0], p)
        _assert_same_buckets(bucket_by_owner(codes, p), _bucket_numpy(codes, owners, p))

    @pytest.mark.parametrize("width", [1, 2, 5])
    def test_empty_and_one_destination(self, width):
        shape = (0,) if width == 1 else (0, width)
        for p in (1, 3, 8):
            empty = np.empty(shape, dtype=np.uint64)
            buckets = bucket_by_destination(empty, np.empty(0, dtype=np.int64), p)
            _assert_same_buckets(buckets, [empty] * p)
            _assert_same_buckets(bucket_by_owner(empty, p), [empty] * p)
        rows = np.arange(12 * width, dtype=np.int64).reshape((12, width) if width > 1 else 12)
        buckets = bucket_by_destination(rows, np.full(12, 4), 7)
        assert [len(b) for b in buckets] == [0, 0, 0, 0, 12, 0, 0]
        np.testing.assert_array_equal(buckets[4], rows)

    def test_extreme_codes_go_to_their_owner(self):
        codes = np.array([0, TOP, MAX_CODE, 0, TOP], dtype=np.uint64)
        for p in (1, 2, 7):
            _assert_same_buckets(bucket_by_owner(codes, p),
                                 _bucket_numpy(codes, owner_of(codes, p), p))

    @pytest.mark.parametrize("bad", [-1, 3, 2**40])
    def test_out_of_range_destination_raises_on_both_tiers(self, bad):
        rows = np.arange(8, dtype=np.uint64).reshape(4, 2)
        dest = np.array([0, 2, bad, 1])
        for tier in (nullcontext(), _numpy_tier()):
            with tier, pytest.raises(ValueError, match="destination rank out of range"):
                bucket_by_destination(rows, dest, 3)
        with pytest.raises(ValueError, match="n_ranks must be positive"):
            bucket_by_owner(rows, 0)

    def test_entry_point_refuses_without_writing(self):
        compiled = native.library()
        rows = np.arange(4, dtype=np.uint64)
        out = np.zeros(4, dtype=np.uint64)
        counts = np.zeros(2, dtype=np.int64)
        dest = np.array([0, 1, 2, 0], dtype=np.int64)
        assert compiled.route_rows(rows.ctypes.data, 4, 1, dest.ctypes.data, 2, None,
                                   out.ctypes.data, counts.ctypes.data) == -1
        assert not out.any()
        owner = np.empty(4, dtype=np.uint32)
        assert compiled.route_rows(rows.ctypes.data, 4, 1, None, 0, owner.ctypes.data,
                                   out.ctypes.data, counts.ctypes.data) == -1

    def test_other_dtypes_take_the_numpy_body(self):
        dest = np.array([1, 0, 1])
        for values in (np.array([3, 1, 2], dtype=np.int32),
                       np.array(["a", "b", "c"], dtype=object)):
            _assert_same_buckets(bucket_by_destination(values, dest, 2),
                                 _bucket_numpy(values, dest, 2))

    def test_default_entry_points_use_compiled_tier(self, monkeypatch):
        monkeypatch.setattr(collectives, "_bucket_numpy", None)
        monkeypatch.setattr(collectives, "owner_of", None)
        rows = np.array([[5, 1], [6, 2], [7, 3]], dtype=np.uint64)
        buckets = bucket_by_destination(rows, np.array([1, 0, 1]), 2)
        assert [b.tolist() for b in buckets] == [[[6, 2]], [[5, 1], [7, 3]]]
        assert sum(len(b) for b in bucket_by_owner(rows, 3)) == 3


@st.composite
def key_layouts(draw):
    """``(rid_bits, position_bits, code_bits)`` of an occurrence-key layout:
    one word with room for a code — at times exactly the rest of the word
    (``2k + rid_bits + position_bits + 1 = 64``), no RID bits (one read) or
    no position bits (reads of length k) — or the two-word layout, whose
    code is a whole word."""
    if draw(st.integers(min_value=0, max_value=4)) == 0:
        return (*WIDE_KEY_BITS, 64)
    rid_bits = draw(st.sampled_from([0, 32]) | st.integers(min_value=0, max_value=32))
    position_bits = draw(st.sampled_from([0, 31]) | st.integers(min_value=0, max_value=31))
    room = 64 - (rid_bits + position_bits + 1)
    if room < 1:
        rid_bits, room = rid_bits - (1 - room), 1
    code_bits = draw(st.sampled_from([room]) | st.integers(min_value=1, max_value=room))
    return rid_bits, position_bits, code_bits


def _fields_of(bits):
    """Values that fill a *bits*-wide field, extremes included."""
    top = (1 << bits) - 1
    return st.sampled_from([0, top]) | st.integers(min_value=0, max_value=top)


@st.composite
def occurrence_batches(draw):
    """One extracted batch in a key layout: per occurrence a code, an index
    into the batch's RID table, a position and a strand flag, every field
    inside its width; then the RID table and the layout's widths."""
    rid_bits, position_bits, code_bits = draw(key_layouts())
    n_reads = draw(st.integers(min_value=1, max_value=6))
    rids = draw(st.lists(_fields_of(rid_bits), min_size=n_reads, max_size=n_reads))
    n = draw(st.integers(min_value=0, max_value=50))
    column = partial(st.lists, min_size=n, max_size=n)
    batch = (np.array(draw(column(_fields_of(code_bits))), dtype=np.uint64),
             np.array(draw(column(st.integers(min_value=0, max_value=n_reads - 1))),
                      dtype=np.int64),
             np.array(draw(column(_fields_of(position_bits))), dtype=np.int64),
             np.array(draw(column(st.booleans())), dtype=bool),
             np.array(rids, dtype=np.int64))
    return batch, (rid_bits, position_bits)


def _keys_oracle(codes, rids, positions, strands, bits):
    """The occurrence keys (or two-word rows) with Python integers."""
    rid_bits, position_bits = bits
    shift = rid_bits + position_bits + 1
    keys = []
    for code, rid, position, strand in zip(codes.tolist(), rids.tolist(),
                                           positions.tolist(), strands.tolist()):
        payload = rid << (position_bits + 1) | position << 1 | int(strand)
        keys.append([code, payload] if shift == 64 else code << shift | payload)
    return np.array(keys, dtype=np.uint64).reshape((-1, 2) if shift == 64 else -1)


def _routed_oracle(codes, read_index, positions, strands, rids, p, bits):
    """The routed keys of a batch: Python packing, NumPy's stable bucketing
    by the owner of each code."""
    keys = _keys_oracle(codes, rids[read_index], positions, strands, bits)
    return _bucket_numpy(keys, owner_of(codes, p), p)


class TestCompiledOccurrenceRouting:
    @given(case=occurrence_batches(), p=n_ranks)
    @settings(max_examples=400, deadline=None)
    def test_matches_numpy_pack_owner_and_bucket(self, case, p):
        batch, bits = case
        expected = _routed_oracle(*batch, p, bits)
        _assert_same_buckets(route_occurrences(*batch, p, bits), expected)
        with _numpy_tier():
            _assert_same_buckets(route_occurrences(*batch, p, bits), expected)

    def test_bad_columns_raise_on_both_tiers(self):
        codes = np.arange(3, dtype=np.uint64)
        positions, strands = np.zeros(3, dtype=np.int64), np.zeros(3, dtype=bool)
        rids = np.array([4, 9], dtype=np.int64)
        for tier in (nullcontext(), _numpy_tier()):
            with tier:
                for read_index in ([0, 2, 1], [0, -1, 1]):
                    with pytest.raises(IndexError):
                        route_occurrences(codes, np.array(read_index), positions, strands,
                                          rids, 2, (4, 3))
                with pytest.raises(ValueError, match="equal length"):
                    route_occurrences(codes, np.array([0, 1]), positions, strands, rids, 2,
                                      (4, 3))
                with pytest.raises(ValueError, match="positive"):
                    route_occurrences(codes, np.array([0, 1, 1]), positions, strands,
                                      rids, 0, (4, 3))

    def test_wide_row_layout(self):
        """The two-word row: ``(code, rid << 32 | position << 1 | strand)``,
        every field at its limit."""
        codes = np.array([TOP, 0], dtype=np.uint64)
        for tier in (nullcontext(), _numpy_tier()):
            with tier:
                buckets = route_occurrences(
                    codes, np.array([1, 0]), np.array([2**31 - 1, 0]),
                    np.array([True, False]), np.array([7, 2**32 - 1], dtype=np.int64), 1,
                    WIDE_KEY_BITS)
                assert buckets[0].tolist() == [
                    [TOP, (2**32 - 1) << 32 | (2**31 - 1) << 1 | 1], [0, 7 << 32]]

    @pytest.mark.parametrize("bits", [WIDE_KEY_BITS, (4, 5)])
    @pytest.mark.parametrize("field, value", [("RID", 2**32), ("position", 2**31),
                                              ("RID", -1), ("position", -1)])
    def test_field_overflow_raises_on_both_tiers(self, bits, field, value):
        """A RID at 2^32 or a position at 2^31 no longer spills into its
        neighbour: the sender refuses it, naming the field, in either
        layout (and a field past a narrow layout's width, or a negative
        one, too)."""
        rids = np.array([3, value if field == "RID" else 1], dtype=np.int64)
        positions = np.array([0, value if field == "position" else 2], dtype=np.int64)
        args = (np.array([5, 6], dtype=np.uint64), np.array([0, 1]), positions,
                np.array([True, False]), rids, 2, bits)
        for tier in (nullcontext(), _numpy_tier()):
            with tier, pytest.raises(ValueError, match=f"occurrence {field} does not fit"):
                route_occurrences(*args)


MASK = 2**64 - 1
GOLDEN, MIX1, MIX2 = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB


def _unshift(z, shift):
    """The x with ``x ^ (x >> shift) == z``."""
    x = z
    for _ in range(64 // shift + 1):
        x = z ^ (x >> shift)
    return x


def _unmix(h):
    """The code whose ``mix64`` is *h* (the finaliser is a bijection)."""
    z = _unshift(h, 31) * pow(MIX2, -1, 2**64) & MASK
    z = _unshift(z, 27) * pow(MIX1, -1, 2**64) & MASK
    return (_unshift(z, 30) - GOLDEN) & MASK


def _codes_with_remainders(p, remainders, register=5):
    """Codes hashing to *register* with each of *remainders* as
    ``hash << p`` (the low p bits of each remainder are dropped)."""
    register %= 1 << p
    return np.array([_unmix(register << (64 - p) | (r & MASK) >> p) for r in remainders],
                    dtype=np.uint64)


def _edge_remainders(p):
    """Remainders at and around every leading-bit boundary: a lone bit, all
    ones after it, and all ones with one bit cleared around the point where
    float64 stops holding them."""
    out = [0]
    for b in range(p, 64):
        ones = (2 ** (b + 1) - 1) >> p << p
        out += [2**b, ones]
        out += [ones & ~(1 << (b - j)) for j in (1, 30, 31, 32, 33, 34, 52, 53, 54)
                if p <= b - j]
    return out


class TestCompiledHyperLogLog:
    @given(precision=st.integers(min_value=4, max_value=18),
           batches=st.lists(st.lists(codes, max_size=80), min_size=1, max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_matches_numpy_body(self, precision, batches):
        compiled, reference = HyperLogLog(precision), HyperLogLog(precision)
        for batch in batches:
            batch = np.array(batch, dtype=np.uint64)
            compiled.add_many(batch)
            reference._add_numpy(batch)
            np.testing.assert_array_equal(compiled.registers(), reference.registers())

    @pytest.mark.parametrize("precision", range(4, 19))
    def test_rank_edges_at_every_precision(self, precision):
        remainders = _edge_remainders(precision)
        batch = _codes_with_remainders(precision, remainders)
        assert (mix64(batch[:3]) << np.uint64(precision)).tolist() == remainders[:3]
        for one in np.array_split(batch, len(batch)):
            compiled, reference = HyperLogLog(precision), HyperLogLog(precision)
            compiled.add_many(one)
            reference._add_numpy(one)
            np.testing.assert_array_equal(compiled.registers(), reference.registers())
        rng = np.random.default_rng(precision)
        mixed = np.concatenate([batch, rng.integers(0, 2**63, 5000, dtype=np.uint64)])
        compiled, reference = HyperLogLog(precision), HyperLogLog(precision)
        compiled.add_many(mixed)
        reference._add_numpy(mixed)
        np.testing.assert_array_equal(compiled.registers(), reference.registers())
        assert compiled.estimate() == reference.estimate()

    def test_edges_include_a_rounded_rank(self):
        # At p = 4, all ones after bit 62 rounds up to 2^63 in float64: the
        # NumPy body gives rank 1 where the leading-zero count gives 2.
        # The compiled side must follow the NumPy body.
        code = _codes_with_remainders(4, [(2**63 - 1) >> 4 << 4])
        hll = HyperLogLog(4)
        hll.add_many(code)
        assert hll.registers()[5] == 1

    def test_default_entry_point_uses_compiled_tier(self, monkeypatch):
        monkeypatch.setattr(HyperLogLog, "_add_numpy", lambda self, codes: None)
        hll = HyperLogLog(4)
        hll.add_many(np.arange(100, dtype=np.uint64))
        assert hll.registers().any()


class TestCompiledOccurrenceKeys:
    """The keys the sender packs: the compiled route on one rank against
    the NumPy packing and a Python oracle, and the decoder's round trip."""

    @given(case=occurrence_batches())
    @settings(max_examples=400, deadline=None)
    def test_matches_numpy_body_and_oracle(self, case):
        (codes, read_index, positions, strands, rids), bits = case
        rids = rids[read_index]
        expected = _keys_oracle(codes, rids, positions, strands, bits)
        identity = np.arange(codes.size)
        compiled = route_occurrences(codes, identity, positions, strands, rids, 1, bits)[0]
        assert compiled.dtype == np.uint64
        np.testing.assert_array_equal(compiled, expected)
        np.testing.assert_array_equal(pack_occurrences(codes, rids, positions, strands, *bits),
                                      expected)
        decoded = decode_occurrences(compiled, *bits)
        for got, column in zip(decoded, (codes, rids, positions, strands)):
            assert got.tolist() == column.tolist()
        # Key order (row order in the two-word layout) is the canonical
        # (code, rid, position, strand) order.
        rows = list(zip(codes.tolist(), rids.tolist(), positions.tolist(), strands.tolist()))
        order = (np.argsort(compiled, kind="stable") if compiled.ndim == 1
                 else np.lexsort((compiled[:, 1], compiled[:, 0])))
        assert order.tolist() == sorted(range(len(rows)), key=lambda i: rows[i])

    @pytest.mark.parametrize("rid_bits, position_bits", [(0, 0), (0, 31), (32, 0), (32, 30)])
    def test_edge_widths(self, rid_bits, position_bits):
        """No RID bits (one read), no position bits (reads of length k), and
        fields that leave one code bit: 1 + 32 + 30 + 1 = 64."""
        code_top = (1 << (63 - rid_bits - position_bits)) - 1
        rows = [(code_top, (1 << rid_bits) - 1, (1 << position_bits) - 1, True),
                (0, 0, 0, False), (code_top, 0, 0, True), (0, 0, 0, True)]
        codes, rids, positions, strands = (np.array(c, dtype=t) for c, t in zip(
            zip(*rows), (np.uint64, np.int64, np.int64, bool)))
        bits = (rid_bits, position_bits)
        expected = _keys_oracle(codes, rids, positions, strands, bits)
        for tier in (nullcontext(), _numpy_tier()):
            with tier:
                got = route_occurrences(codes, np.arange(4), positions, strands, rids, 1, bits)
                np.testing.assert_array_equal(got[0], expected)

    def test_empty_input_on_both_tiers(self):
        empty = np.empty(0, dtype=np.int64)
        for bits, shape in (((3, 4), (0,)), (WIDE_KEY_BITS, (0, 2))):
            for tier in (nullcontext(), _numpy_tier()):
                with tier:
                    keys = route_occurrences(empty.astype(np.uint64), empty, empty,
                                             empty.astype(bool), empty, 2, bits)
                    assert [(k.dtype, k.shape) for k in keys] == [(np.uint64, shape)] * 2

    @pytest.mark.parametrize("row", [(1 << 56, 0, 0, False),    # code past 56 bits
                                     (0, 8, 0, False),          # RID past 3 bits
                                     (0, 0, 16, True)])         # position past 4 bits
    def test_field_overflow_raises_on_both_tiers(self, row):
        field = ("code", "RID", "position")[[bool(value) for value in row[:3]].index(True)]
        codes, rids, positions, strands = (np.array(c) for c in zip((0, 0, 0, False), row))
        for tier in (nullcontext(), _numpy_tier()):
            with tier, pytest.raises(ValueError, match=f"occurrence {field} does not fit"):
                route_occurrences(codes.astype(np.uint64), np.arange(2), positions, strands,
                                  rids, 3, (3, 4))
        with pytest.raises(ValueError, match=f"occurrence {field} does not fit"):
            pack_occurrences(codes, rids, positions, strands, 3, 4)

    def test_bad_widths_and_shapes_raise(self):
        zeros = np.zeros(2, dtype=np.int64)
        for bits in ((-1, 3), (33, 3), (3, 32), (32, -1)):
            for tier in (nullcontext(), _numpy_tier()):
                with tier, pytest.raises(ValueError, match="widths"):
                    route_occurrences(zeros.astype(np.uint64), zeros, zeros,
                                      zeros.astype(bool), zeros, 2, bits)
            with pytest.raises(ValueError, match="widths"):
                decode_occurrences(zeros.astype(np.uint64), *bits)
        with pytest.raises(ValueError, match="equal length"):
            route_occurrences(zeros.astype(np.uint64), zeros[:1], zeros, zeros.astype(bool),
                              zeros, 2, (3, 4))

    def test_strided_rows_are_read_in_order(self):
        codes = np.array([5, 7, 5], dtype=np.uint64)
        rids, positions = np.array([1, 0, 1]), np.array([2, 3, 1])
        strands = np.array([True, False, False])
        got = route_occurrences(codes[::-1], np.arange(3), positions[::-1], strands[::-1],
                                rids[::-1], 1, (1, 2))[0]
        np.testing.assert_array_equal(got, _keys_oracle(codes[::-1], rids[::-1],
                                                        positions[::-1], strands[::-1],
                                                        (1, 2)))

    def test_default_entry_point_uses_compiled_tier(self, monkeypatch):
        monkeypatch.setattr(stages, "_route_occurrences_numpy",
                            lambda *args: pytest.fail("took the NumPy body"))
        keys = route_occurrences(np.array([1], dtype=np.uint64), np.array([0]),
                                 np.array([1]), np.array([True]), np.array([1]), 1, (1, 1))
        assert keys[0].tolist() == [15]
