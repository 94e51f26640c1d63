"""Unit and property tests for repro.seq.kmer."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.seq.alphabet import reverse_complement
from repro.seq.kmer import (
    KmerSpec,
    canonicalize_codes,
    extract_kmer_codes,
    extract_kmers_batch,
    extract_kmers_with_strand,
    reverse_complement_code,
)

from oracles import iter_kmers, kmer_code_to_string, kmer_string_to_code

dna = st.text(alphabet="ACGT", min_size=0, max_size=150)
kvals = st.integers(min_value=2, max_value=21)


class TestKmerSpec:
    def test_defaults(self):
        spec = KmerSpec()
        assert spec.k == 17
        assert spec.canonical

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            KmerSpec(k=0)
        with pytest.raises(ValueError):
            KmerSpec(k=32)

    def test_kmers_in(self):
        spec = KmerSpec(k=5)
        assert extract_kmer_codes("A" * 10, spec).size == 6
        assert extract_kmer_codes("A" * 5, spec).size == 1
        assert extract_kmer_codes("A" * 4, spec).size == 0

    def test_code_mask(self):
        # A k-mer code uses exactly the 2*k low bits: all-T is all ones.
        spec = KmerSpec(k=3, canonical=False)
        assert extract_kmer_codes("TTT", spec).tolist() == [0b111111]


class TestCodeConversion:
    def test_known_values(self):
        assert kmer_string_to_code("A") == 0
        assert kmer_string_to_code("T") == 3
        assert kmer_string_to_code("AC") == 1
        assert kmer_string_to_code("CA") == 4

    def test_roundtrip_fixed(self):
        for s in ("ACGT", "TTTT", "GATTACA", "A" * 31):
            assert kmer_code_to_string(kmer_string_to_code(s), len(s)) == s

    def test_too_long(self):
        with pytest.raises(ValueError):
            kmer_string_to_code("A" * 32)

    @given(st.integers(min_value=1, max_value=31).flatmap(
        lambda k: st.text(alphabet="ACGT", min_size=k, max_size=k)))
    def test_roundtrip_property(self, kmer):
        assert kmer_code_to_string(kmer_string_to_code(kmer), len(kmer)) == kmer


class TestReverseComplementCode:
    def test_matches_string_revcomp(self):
        for s in ("ACGT", "AAAC", "GATTACA", "TTGCA"):
            code = kmer_string_to_code(s)
            rc_code = reverse_complement_code(code, len(s))
            assert kmer_code_to_string(rc_code, len(s)) == reverse_complement(s)

    @given(st.integers(min_value=2, max_value=21).flatmap(
        lambda k: st.text(alphabet="ACGT", min_size=k, max_size=k)))
    def test_involution(self, kmer):
        k = len(kmer)
        code = kmer_string_to_code(kmer)
        assert reverse_complement_code(reverse_complement_code(code, k), k) == code

    def test_vectorised_matches_scalar(self):
        codes = np.array([kmer_string_to_code(s) for s in ("ACGTA", "TTTTT", "GATTA")],
                         dtype=np.uint64)
        vec = reverse_complement_code(codes, 5)
        for i, c in enumerate(codes):
            assert int(vec[i]) == reverse_complement_code(int(c), 5)


class TestCanonical:
    def test_canonical_is_min(self):
        code = kmer_string_to_code("TTTTT")
        rc = reverse_complement_code(code, 5)
        assert canonicalize_codes(np.array([code], dtype=np.uint64), 5).tolist() == [min(code, rc)]

    def test_strand_invariance(self):
        s = "ACGGATCGAT"
        spec = KmerSpec(k=5, canonical=True)
        fwd = set(extract_kmer_codes(s, spec).tolist())
        rev = set(extract_kmer_codes(reverse_complement(s), spec).tolist())
        assert fwd == rev

    @given(dna.filter(lambda s: len(s) >= 6))
    @settings(max_examples=50)
    def test_strand_invariance_property(self, seq):
        spec = KmerSpec(k=6, canonical=True)
        fwd = set(extract_kmer_codes(seq, spec).tolist())
        rev = set(extract_kmer_codes(reverse_complement(seq), spec).tolist())
        assert fwd == rev


class TestExtraction:
    def test_count(self):
        spec = KmerSpec(k=4, canonical=False)
        assert extract_kmer_codes("ACGTACGT", spec).size == 5

    def test_too_short(self):
        spec = KmerSpec(k=10, canonical=False)
        assert extract_kmer_codes("ACGT", spec).size == 0

    def test_values_match_slow_path(self):
        seq = "ACGGATTACAGGT"
        spec = KmerSpec(k=4, canonical=False)
        fast = [kmer_code_to_string(int(c), 4) for c in extract_kmer_codes(seq, spec)]
        slow = [seq[i : i + 4] for i in range(len(seq) - 3)]
        assert fast == slow

    @given(dna, kvals)
    @settings(max_examples=60)
    def test_extraction_matches_slicing(self, seq, k):
        spec = KmerSpec(k=k, canonical=False)
        fast = [kmer_code_to_string(int(c), k) for c in extract_kmer_codes(seq, spec)]
        slow = [seq[i : i + k] for i in range(max(0, len(seq) - k + 1))]
        assert fast == slow

    def test_positions(self):
        codes, pos, _ = extract_kmers_with_strand("ACGTACG", KmerSpec(k=3))
        assert pos.tolist() == [0, 1, 2, 3, 4]
        assert codes.size == 5

    def test_iter_kmers(self):
        assert list(iter_kmers("ACGTA", 3)) == ["ACG", "CGT", "GTA"]


class TestStrandExtraction:
    def test_strand_flags(self):
        seq = "ACGGATTAC"
        spec = KmerSpec(k=5)
        codes, positions, strands = extract_kmers_with_strand(seq, spec)
        assert codes.size == positions.size == strands.size == 5
        # Canonical codes must equal the canonicalised forward codes.
        raw = extract_kmer_codes(seq, KmerSpec(k=5, canonical=False))
        np.testing.assert_array_equal(codes, canonicalize_codes(raw, 5))
        # Where the flag says "forward", the canonical code equals the raw code.
        np.testing.assert_array_equal(strands, codes == raw)

    def test_palindrome_is_forward(self):
        # ACGT's reverse complement is itself; the flag must be True.
        _, _, strands = extract_kmers_with_strand("ACGT", KmerSpec(k=4))
        assert strands.tolist() == [True]


class TestBatchExtraction:
    """extract_kmers_batch must match the per-read extraction exactly."""

    def _random_reads(self, rng, n_reads, k):
        reads = []
        for _ in range(n_reads):
            # Mix of normal reads, reads shorter than k, and empty reads.
            r = rng.random()
            if r < 0.15:
                length = int(rng.integers(0, k))
            else:
                length = int(rng.integers(k, 120))
            reads.append("".join("ACGT"[i] for i in rng.integers(0, 4, size=length)))
        return reads

    @pytest.mark.parametrize("seed,k", [(0, 5), (1, 17), (2, 11), (3, 2)])
    def test_with_strand_matches_per_read(self, seed, k):
        rng = np.random.default_rng(seed)
        reads = self._random_reads(rng, 20, k)
        spec = KmerSpec(k=k)
        codes, read_index, positions, strands = extract_kmers_batch(
            reads, spec, with_strand=True)
        assert codes.size == read_index.size == positions.size == strands.size
        cursor = 0
        for i, read in enumerate(reads):
            want_codes, want_pos, want_strands = extract_kmers_with_strand(read, spec)
            n = want_codes.size
            chunk = slice(cursor, cursor + n)
            assert (read_index[chunk] == i).all()
            np.testing.assert_array_equal(codes[chunk], want_codes)
            np.testing.assert_array_equal(positions[chunk], want_pos)
            np.testing.assert_array_equal(strands[chunk], want_strands)
            cursor += n
        assert cursor == codes.size  # nothing extra, nothing missing

    @pytest.mark.parametrize("canonical", [True, False])
    def test_codes_only_matches_per_read(self, canonical):
        rng = np.random.default_rng(9)
        spec = KmerSpec(k=7, canonical=canonical)
        reads = self._random_reads(rng, 15, 7)
        codes, read_index, positions, strands = extract_kmers_batch(reads, spec)
        assert strands.size == 0
        want = [extract_kmer_codes(r, spec) for r in reads]
        np.testing.assert_array_equal(codes, np.concatenate(want) if want else codes)
        np.testing.assert_array_equal(
            read_index, np.repeat(np.arange(len(reads)), [w.size for w in want]))

    def test_boundary_windows_masked(self):
        # k-mers spanning two reads must not appear: 8 total bases but only
        # 2 valid 4-mers (one per read).
        codes, read_index, positions, _ = extract_kmers_batch(
            ["ACGT", "TTTT"], KmerSpec(k=4))
        assert codes.size == 2
        assert read_index.tolist() == [0, 1]
        assert positions.tolist() == [0, 0]

    def test_empty_inputs(self):
        for batch in ([], ["", ""], ["AC"]):
            codes, read_index, positions, strands = extract_kmers_batch(
                batch, KmerSpec(k=5), with_strand=True)
            assert codes.size == 0 and read_index.size == 0
            assert positions.size == 0 and strands.size == 0

    @pytest.mark.parametrize("k", range(1, 32))
    def test_doubling_matches_the_string_oracle(self, k):
        """Every k, odd and even: the doubled forward and reverse-complement
        codes agree with ``iter_kmers`` and ``reverse_complement_code``."""
        rng = np.random.default_rng(k)
        lengths = [k + 40, k - 1, 0, k, 2 * k + 3]  # includes reads shorter than k
        reads = ["".join("ACGT"[i] for i in rng.integers(0, 4, size=max(n, 0)))
                 for n in lengths]
        for batch in (reads, reads[-1:], reads[1:2], []):
            want = [(i, pos, kmer_string_to_code(kmer))
                    for i, read in enumerate(batch)
                    for pos, kmer in enumerate(iter_kmers(read, k))]
            forward = np.array([code for _, _, code in want], dtype=np.uint64)
            rc = np.array([reverse_complement_code(int(c), k) for c in forward],
                          dtype=np.uint64)
            canonical = np.minimum(forward, rc)
            where = ([i for i, _, _ in want], [pos for _, pos, _ in want])

            got = extract_kmers_batch(batch, KmerSpec(k=k), with_strand=True)
            for column, expected in zip(got, (canonical, *where, canonical == forward)):
                np.testing.assert_array_equal(column, expected)
            for spec, expected in ((KmerSpec(k=k), canonical),
                                   (KmerSpec(k=k, canonical=False), forward)):
                got = extract_kmers_batch(batch, spec)
                np.testing.assert_array_equal(got[0], expected)
                np.testing.assert_array_equal(got[1], where[0])
                np.testing.assert_array_equal(got[2], where[1])

    def test_short_reads_between_long_ones(self):
        reads = ["ACGTACGTAC", "AC", "", "GGGTTTCCCA"]
        codes, read_index, positions, _ = extract_kmers_batch(reads, KmerSpec(k=5))
        assert set(read_index.tolist()) == {0, 3}
        assert codes.size == 12  # 6 k-mers from each long read
