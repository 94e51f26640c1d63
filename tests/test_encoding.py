"""Unit tests for repro.seq.encoding."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.seq.encoding import decode_sequence, encode_sequence

dna = st.text(alphabet="ACGT", min_size=0, max_size=300)


class TestEncodeDecode:
    def test_known_codes(self):
        np.testing.assert_array_equal(encode_sequence("ACGT"), [0, 1, 2, 3])

    def test_empty(self):
        assert encode_sequence("").size == 0
        assert decode_sequence(np.empty(0, dtype=np.uint8)) == ""

    def test_lowercase_accepted(self):
        np.testing.assert_array_equal(encode_sequence("acgt"), [0, 1, 2, 3])

    def test_invalid_raises(self):
        with pytest.raises(ValueError, match="invalid DNA"):
            encode_sequence("ACGN")

    def test_decode_invalid_code(self):
        with pytest.raises(ValueError):
            decode_sequence(np.array([0, 5], dtype=np.uint8))

    @given(dna)
    def test_roundtrip(self, seq):
        assert decode_sequence(encode_sequence(seq)) == seq

