"""Unit tests for repro.seq.records."""

import pickle

import numpy as np
import pytest

from repro.seq.records import Read, ReadSet


class TestRead:
    def test_basic(self):
        read = Read(name="r", sequence="ACGT")
        assert len(read) == 4
        assert read.nbytes == 4
        assert not read.has_truth()

    def test_quality_length_mismatch(self):
        with pytest.raises(ValueError):
            Read(name="r", sequence="ACGT", quality="II")

    def test_truth(self):
        read = Read(name="r", sequence="ACGT", true_start=10, true_end=14)
        assert read.has_truth()


class TestReadSet:
    def test_construction_and_rids(self):
        rs = ReadSet([Read(name="a", sequence="ACGT"), Read(name="b", sequence="GGTT")])
        assert len(rs) == 2
        assert rs[0].name == "a"
        assert rs[1].name == "b"

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            ReadSet([Read(name="a", sequence="ACGT"), Read(name="a", sequence="GG")])

    def test_totals(self):
        rs = ReadSet([Read(name="a", sequence="ACGT"), Read(name="b", sequence="GGTTAA")])
        assert rs.total_bases == 10
        assert rs.mean_read_length == 5.0
        np.testing.assert_array_equal(rs.read_lengths(), [4, 6])

    def test_empty_stats(self):
        rs = ReadSet()
        assert rs.total_bases == 0
        assert rs.mean_read_length == 0.0

    def test_total_kmers(self):
        rs = ReadSet([Read(name="a", sequence="ACGTACGT"), Read(name="b", sequence="AC")])
        # 8 - 3 + 1 = 6 from the first read, 0 from the too-short second.
        assert rs.total_kmers(3) == 6

    def test_subset(self):
        rs = ReadSet([Read(name=f"r{i}", sequence="ACGT") for i in range(5)])
        sub = rs.subset([1, 3])
        assert len(sub) == 2
        assert sub.names() == ["r1", "r3"]

    def test_iteration(self):
        rs = ReadSet([Read(name="a", sequence="AC"), Read(name="b", sequence="GT")])
        assert [r.name for r in rs] == ["a", "b"]

    def test_invalid_character_is_rejected_at_construction(self):
        reads = [Read(name="a", sequence="ACGT"), Read(name="bad", sequence="ACNGT")]
        with pytest.raises(ValueError, match=r"^read 'bad' has an invalid DNA "
                                             r"character 'N' at position 2$"):
            ReadSet(reads)
        with pytest.raises(ValueError, match="'é' at position 1"):
            ReadSet([Read(name="c", sequence="AéT")])

    def test_lower_case_reads_back_upper_case(self):
        rs = ReadSet([Read(name="a", sequence="acgT", true_start=3, true_end=7)])
        assert rs[0] == Read(name="a", sequence="ACGT", true_start=3, true_end=7)
        assert [r.sequence for r in rs] == ["ACGT"]
        np.testing.assert_array_equal(rs.codes(0), [0, 1, 2, 3])

    def test_fingerprint_separates_boundaries_and_names(self):
        def fingerprint(*reads):
            return ReadSet(Read(name=n, sequence=s) for n, s in reads).fingerprint()

        base = fingerprint(("a", "AC"), ("b", "GT"))
        assert base == fingerprint(("a", "AC"), ("b", "GT"))
        assert base != fingerprint(("a", "ACG"), ("b", "T"))
        assert base != fingerprint(("a", "AC"), ("c", "GT"))
        assert base != fingerprint(("ab", "AC"), ("", "GT"))

    def test_pickle_keeps_fingerprint_and_read_only_arena(self):
        rs = ReadSet([Read(name="a", sequence="ACGT", quality="IIII"),
                      Read(name="b", sequence="GGT", true_start=1, true_end=4,
                           true_strand=-1)])
        restored = pickle.loads(pickle.dumps(rs))
        assert restored.fingerprint() == rs.fingerprint()
        assert not restored.span(0, 2)[0].flags.writeable
        assert list(restored) == list(rs)
        with pytest.raises(ValueError):
            restored.codes(0)[0] = 3

    def test_concat_equals_building_from_the_joined_reads(self):
        first = [Read(name="a", sequence="ACGT", quality="!!!!"),
                 Read(name="b", sequence="", true_start=0, true_end=0)]
        second = [Read(name="c", sequence="TTG", true_start=5, true_end=8,
                       true_strand=-1)]
        joined = ReadSet.concat([ReadSet(first), ReadSet(), ReadSet(second)])
        built = ReadSet(first + second)
        assert joined.names() == built.names()
        np.testing.assert_array_equal(joined.span(0, 3)[0], built.span(0, 3)[0])
        np.testing.assert_array_equal(joined.read_lengths(), built.read_lengths())
        assert list(joined) == list(built)
        assert joined.fingerprint() == built.fingerprint()
        with pytest.raises(ValueError, match="unique"):
            ReadSet.concat([ReadSet(first), ReadSet(first)])
