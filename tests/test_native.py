"""The compiled k-mer front end against its NumPy reference bodies, bit for bit.

Each entry point of the compiled library that the front end calls — the
Bloom filter's test and test-then-set, the candidate-key gate and the batch
k-mer extraction — must return exactly what the NumPy body it replaces
returns, on the inputs that stress its edges.  The x-drop kernel's twin of
these tests is ``tests/test_alignment.py::TestCompiledXdrop``.
"""

from __future__ import annotations

from contextlib import nullcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import native
from repro.kmers import hashtable
from repro.kmers.bloom import BloomFilter
from repro.kmers.hashtable import _key_mask_numpy, key_mask
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
