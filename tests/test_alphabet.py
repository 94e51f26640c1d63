"""Unit tests for repro.seq.alphabet."""

import pytest
from hypothesis import given, strategies as st

from repro.seq.alphabet import (
    BASE_TO_CODE,
    CODE_TO_BASE,
    DNA_ALPHABET,
    complement,
    is_valid_dna,
    reverse_complement,
    sanitize,
)

dna = st.text(alphabet="ACGT", min_size=0, max_size=200)


class TestCodes:
    def test_alphabet_order(self):
        assert DNA_ALPHABET == "ACGT"

    def test_base_to_code_roundtrip(self):
        for base, code in BASE_TO_CODE.items():
            assert CODE_TO_BASE[code] == base

    def test_complement_pairs(self):
        assert complement("A") == "T"
        assert complement("T") == "A"
        assert complement("C") == "G"
        assert complement("G") == "C"

    def test_complement_lowercase(self):
        assert complement("a") == "T"

    def test_complement_invalid(self):
        with pytest.raises(ValueError):
            complement("X")

    def test_complement_is_involution_on_codes(self):
        # With A=0..T=3 the complement of code c must be 3-c.
        for base, code in BASE_TO_CODE.items():
            assert BASE_TO_CODE[complement(base)] == 3 - code


class TestValidation:
    def test_valid(self):
        assert is_valid_dna("ACGTACGT")
        assert is_valid_dna("acgt")
        assert is_valid_dna("")

    def test_invalid(self):
        assert not is_valid_dna("ACGTN")
        assert not is_valid_dna("hello")

    def test_sanitize_replaces_ambiguous(self):
        assert sanitize("ACNNG") == "ACAAG"
        assert sanitize("ACNNG", replacement="T") == "ACTTG"

    def test_sanitize_uppercases(self):
        assert sanitize("acgt") == "ACGT"

    def test_sanitize_invalid_replacement(self):
        with pytest.raises(ValueError):
            sanitize("ACGT", replacement="N")


class TestReverseComplement:
    def test_simple(self):
        assert reverse_complement("ACGT") == "ACGT"
        assert reverse_complement("AAAA") == "TTTT"
        assert reverse_complement("ACCGT") == "ACGGT"

    def test_empty(self):
        assert reverse_complement("") == ""

    def test_preserves_n(self):
        assert reverse_complement("ANT") == "ANT"

    @given(dna)
    def test_involution(self, seq):
        assert reverse_complement(reverse_complement(seq)) == seq

    @given(dna)
    def test_length_preserved(self, seq):
        assert len(reverse_complement(seq)) == len(seq)

    @given(dna, dna)
    def test_concatenation_rule(self, a, b):
        # revcomp(a + b) == revcomp(b) + revcomp(a)
        assert reverse_complement(a + b) == reverse_complement(b) + reverse_complement(a)
