"""Tests for the 2-bit packed wire codec (repro.seq.packing).

Three layers:

* property tests for the codec of one read (pack/unpack round-trips over
  arbitrary lengths, including odd lengths and empty input, and the
  N-handling contract: non-ACGT bases are rejected unless sanitised per
  :mod:`repro.seq.alphabet`), packed as a one-read block;
* the :class:`PackedReadBlock` wire format — block round-trips, the typed
  serialization tag, byte accounting, and the lazy ``ReadCache`` insertion;
* end-to-end parity — the pipeline's scientific output must be bit-identical
  across {packed, ASCII} wire formats × {thread, process} backends, with the
  packed payload provably ~4x smaller (slow tier).
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.align.read_cache import ReadCache
from repro.mpisim.collectives import payload_nbytes
from repro.mpisim.serialization import decode_payload, encode_payload
from repro.seq.alphabet import sanitize
from repro.seq.encoding import decode_sequence, encode_sequence
from repro.seq.packing import (
    PackedReadBlock,
    pack_read_block,
    packed_length,
    unpack_codes,
)

dna = st.text(alphabet="ACGT", min_size=0, max_size=300)
dna_with_n = st.text(alphabet="ACGTN", min_size=1, max_size=120)


def pack_codes(codes: np.ndarray) -> np.ndarray:
    """The packed bytes of one read's codes, as a one-read block ships them."""
    return pack_read_block(np.zeros(1, dtype=np.int64), [codes]).packed


class TestPrimitiveCodec:
    @given(dna)
    def test_roundtrip(self, seq):
        codes = encode_sequence(seq)
        packed = pack_codes(codes)
        assert packed.dtype == np.uint8
        assert packed.size == packed_length(len(seq))
        np.testing.assert_array_equal(unpack_codes(packed, len(seq)), codes)

    @given(st.integers(min_value=0, max_value=130))
    def test_roundtrip_every_small_length(self, n):
        rng = np.random.default_rng(n)
        codes = rng.integers(0, 4, size=n).astype(np.uint8)
        np.testing.assert_array_equal(unpack_codes(pack_codes(codes), n), codes)

    def test_empty(self):
        assert pack_codes(np.empty(0, dtype=np.uint8)).size == 0
        assert unpack_codes(np.empty(0, dtype=np.uint8), 0).size == 0

    def test_four_bases_per_byte(self):
        # 'ACGT' = codes 0,1,2,3 → one byte, little-endian 2-bit lanes:
        # 0b11_10_01_00 = 0xE4.
        packed = pack_codes(encode_sequence("ACGT"))
        assert packed.tolist() == [0xE4]

    def test_trailing_pad_bits_zero(self):
        packed = pack_codes(encode_sequence("TTTTT"))  # 5 bases -> 2 bytes
        assert packed.size == 2
        assert packed[1] == 0b11  # only the first lane of byte 1 is data

    def test_out_of_range_codes_rejected(self):
        with pytest.raises(ValueError, match=r"\[0, 3\]"):
            pack_codes(np.array([0, 4], dtype=np.uint8))

    @given(dna_with_n)
    def test_n_handling_follows_alphabet_rules(self, seq):
        # The codec only accepts the 4-letter alphabet: an N must be
        # sanitised on ingest (N -> replacement base), exactly as the
        # readers do, after which packing round-trips the sanitised string.
        if "N" in seq:
            with pytest.raises(ValueError):
                pack_codes(encode_sequence(seq))
        clean = sanitize(seq)
        codes = encode_sequence(clean)
        assert decode_sequence(unpack_codes(pack_codes(codes), len(clean))) == clean

    def test_short_buffer_rejected(self):
        with pytest.raises(ValueError, match="too short"):
            unpack_codes(np.zeros(1, dtype=np.uint8), 5)


read_lists = st.lists(dna, min_size=0, max_size=8)


class TestPackedReadBlock:
    @given(read_lists)
    def test_block_roundtrip(self, seqs):
        rids = np.arange(100, 100 + len(seqs), dtype=np.int64)
        block = pack_read_block(rids, [encode_sequence(s) for s in seqs])
        assert block.n_reads == len(seqs)
        for i, seq in enumerate(seqs):
            assert decode_sequence(block.codes(i)) == seq

    @given(read_lists)
    def test_serialization_tag_roundtrip(self, seqs):
        rids = np.arange(len(seqs), dtype=np.int64)
        block = pack_read_block(rids, [encode_sequence(s) for s in seqs])
        decoded = decode_payload(encode_payload(block))
        assert isinstance(decoded, PackedReadBlock)
        np.testing.assert_array_equal(decoded.rids, block.rids)
        np.testing.assert_array_equal(decoded.lengths, block.lengths)
        np.testing.assert_array_equal(decoded.packed, block.packed)

    def test_serialization_nested_in_list(self):
        # Read blocks travel as alltoallv payload lists.
        block = pack_read_block(np.array([7], dtype=np.int64),
                                [encode_sequence("ACGTACGTA")])
        payload = [block, PackedReadBlock.empty(), "tail"]
        decoded = decode_payload(encode_payload(payload))
        assert decoded[2] == "tail"
        assert decoded[1].n_reads == 0
        assert decode_sequence(decoded[0].codes(0)) == "ACGTACGTA"

    def test_reads_start_on_byte_boundaries(self):
        seqs = ["ACG", "T", "ACGTACGT"]  # 3, 1, 8 bases -> 1, 1, 2 bytes
        block = pack_read_block(np.arange(3, dtype=np.int64),
                                [encode_sequence(s) for s in seqs])
        assert block.byte_offsets.tolist() == [0, 1, 2, 4]
        for i, seq in enumerate(seqs):
            np.testing.assert_array_equal(
                unpack_codes(block.packed_slice(i), len(seq)),
                encode_sequence(seq))

    def test_wire_accounting_is_a_quarter_of_ascii(self):
        seqs = ["A" * 1000] * 10
        block = pack_read_block(np.arange(10, dtype=np.int64),
                                [encode_sequence(s) for s in seqs])
        assert block.raw_nbytes == 10_000
        assert block.packed.nbytes == 2_500
        # payload_nbytes (the trace's accounting) reflects the packed size.
        assert payload_nbytes(block) == block.wire_nbytes < 3_000
        # ...and the serialized frame matches the accounted wire size.
        assert len(encode_payload(block)) == block.wire_nbytes + 1  # +1 tag

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            PackedReadBlock(rids=np.zeros(1, dtype=np.int64),
                            lengths=np.array([5], dtype=np.int64),
                            packed=np.zeros(1, dtype=np.uint8))


class TestReadCachePackedEntries:
    def test_put_packed_is_lazy_and_roundtrips(self):
        seq = "ACGTACGTACGTA"
        codes = encode_sequence(seq)
        block = pack_read_block(np.array([3], dtype=np.int64), [codes])
        cache = ReadCache()
        cache.put_packed(3, block.packed_slice(0), len(seq))
        assert 3 in cache
        assert cache.bases_cached(np.array([3])) == len(seq)
        # The first forward lookup unpacks (a miss), the second hits the memo.
        rids, arena, offsets = cache.code_arena(np.array([3, 3]), np.array([True, True]))
        assert rids.tolist() == [3] and offsets.tolist() == [0, len(seq)]
        np.testing.assert_array_equal(arena, codes)
        assert cache.misses == 1 and cache.hits == 1
        # The packed bytes round-trip to the original read.
        assert decode_sequence(cache.encoded_peek(3)) == seq

    def test_put_matching_packed_entry_keeps_encodings(self):
        seq = "ACGTTGCA"
        cache = ReadCache()
        block = pack_read_block(np.array([5], dtype=np.int64),
                                [encode_sequence(seq)])
        cache.put_packed(5, block.packed_slice(0), len(seq))
        buf = cache.encoded_peek(5)
        cache.put(5, seq)  # same read arriving as text must not evict
        assert cache.encoded_peek(5) is buf

    def test_put_conflicting_sequence_evicts(self):
        cache = ReadCache()
        block = pack_read_block(np.array([5], dtype=np.int64),
                                [encode_sequence("AAAA")])
        cache.put_packed(5, block.packed_slice(0), 4)
        cache.put(5, "CCCC")
        np.testing.assert_array_equal(cache.encoded_peek(5), encode_sequence("CCCC"))

    def test_put_packed_does_not_clobber_existing(self):
        cache = ReadCache()
        cache.put(9, "ACGT")
        block = pack_read_block(np.array([9], dtype=np.int64),
                                [encode_sequence("TTTT")])
        cache.put_packed(9, block.packed_slice(0), 4)
        np.testing.assert_array_equal(cache.encoded_peek(9), encode_sequence("ACGT"))

    def test_put_packed_on_cached_rid_keeps_entry(self):
        cache = ReadCache()
        cache.put(0, "AAAAAAAAAA")
        cache.put_packed(0, np.zeros(3, dtype=np.uint8), 10)
        np.testing.assert_array_equal(cache.encoded_peek(0), encode_sequence("A" * 10))
        assert len(cache) == 1

    def test_evict_rids_at_or_above_drops_only_those(self):
        cache = ReadCache()
        for rid in range(6):
            cache.put(rid, "ACGT"[rid % 4] * 10)
        assert cache.evict_rids_at_or_above(4) == 2
        assert all(rid in cache for rid in range(4))
        assert 4 not in cache and 5 not in cache

    def test_counters_are_the_three_read_cache_keys(self):
        assert set(ReadCache().counters()) == {
            "read_cache_hits", "read_cache_misses", "read_cache_fetch_hits"}


@pytest.mark.slow
class TestWirePackingPipelineParity:
    """The packed read exchange: ~4x fewer read-payload bytes than raw, and
    backend-independent byte and memory accounting."""

    @pytest.fixture(scope="class")
    def runs(self, micro_dataset, micro_config):
        from repro.core.driver import run_dibella

        return {backend: run_dibella(micro_dataset.reads,
                                     config=replace(micro_config, backend=backend),
                                     n_nodes=1, ranks_per_node=3)
                for backend in ("thread", "process")}

    def test_packed_payload_at_least_3x_smaller(self, runs):
        for result in runs.values():
            raw = result.counters["read_payload_raw_bytes"]
            assert raw > 0
            assert result.counters["read_payload_wire_bytes"] * 3 <= raw

    def test_trace_identical_across_backends(self, runs):
        # Packed payload byte accounting must stay backend-independent.
        assert runs["thread"].trace.total_bytes() == runs["process"].trace.total_bytes()

    def test_local_memory_accounting_mode_invariant(self, runs):
        # The cost-model input (bytes of reads held for alignment) must not
        # depend on the backend, even though the serve path memoises served
        # reads in the owner's cache.
        np.testing.assert_array_equal(
            runs["thread"].stage("alignment").local_bytes_per_rank,
            runs["process"].stage("alignment").local_bytes_per_rank)
