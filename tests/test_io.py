"""Unit tests for repro.io (FASTQ, FASTA, partitioning)."""

import numpy as np
import pytest

from repro.io.fasta import FastaFormatError, read_fasta, write_fasta
from repro.io.fastq import FastqFormatError, parse_fastq, read_fastq, write_fastq
from repro.io.partition import partition_imbalance, partition_reads
from repro.seq.records import Read, ReadSet


@pytest.fixture
def reads():
    return ReadSet([
        Read(name="r0", sequence="ACGTACGTAA", quality="I" * 10),
        Read(name="r1", sequence="GGGGCCCC", quality="I" * 8),
        Read(name="r2", sequence="TTTTTTTTTTTTTTTT", quality="I" * 16),
    ])


class TestFastq:
    def test_roundtrip(self, reads, tmp_path):
        path = tmp_path / "x.fastq"
        assert write_fastq(reads, path) == 3
        back = read_fastq(path)
        assert back.names() == ["r0", "r1", "r2"]
        assert back[0].sequence == "ACGTACGTAA"
        assert back[2].quality == "I" * 16

    def test_gzip_roundtrip(self, reads, tmp_path):
        path = tmp_path / "x.fastq.gz"
        write_fastq(reads, path)
        back = read_fastq(path)
        assert len(back) == 3

    def test_missing_quality_placeholder(self, tmp_path):
        path = tmp_path / "x.fastq"
        write_fastq([Read(name="r", sequence="ACGT")], path)
        back = read_fastq(path)
        assert back[0].quality == "IIII"

    def test_sanitises_ambiguous_bases(self):
        records = list(parse_fastq(["@r1", "ACGNN", "+", "IIIII"]))
        assert records[0].sequence == "ACGAA"

    def test_bad_header(self):
        with pytest.raises(FastqFormatError):
            list(parse_fastq(["notaheader", "ACGT", "+", "IIII"]))

    def test_truncated_record(self):
        with pytest.raises(FastqFormatError):
            list(parse_fastq(["@r1", "ACGT"]))

    def test_bad_separator(self):
        with pytest.raises(FastqFormatError):
            list(parse_fastq(["@r1", "ACGT", "x", "IIII"]))

    def test_length_mismatch(self):
        with pytest.raises(FastqFormatError):
            list(parse_fastq(["@r1", "ACGT", "+", "II"]))

    def test_blank_lines_tolerated(self):
        records = list(parse_fastq(["@r1", "ACGT", "+", "IIII", "", ""]))
        assert len(records) == 1


class TestFasta:
    def test_roundtrip(self, reads, tmp_path):
        path = tmp_path / "x.fasta"
        assert write_fasta(reads, path, line_width=5) == 3
        back = read_fasta(path)
        assert back.names() == ["r0", "r1", "r2"]
        assert back[2].sequence == "T" * 16

    def test_data_before_header(self, tmp_path):
        path = tmp_path / "bad.fasta"
        path.write_text("ACGT\n>r\nACGT\n")
        with pytest.raises(FastaFormatError):
            read_fasta(path)

    def test_invalid_line_width(self, reads, tmp_path):
        with pytest.raises(ValueError):
            write_fasta(reads, tmp_path / "x.fasta", line_width=0)


class TestPartition:
    def _readset(self, lengths):
        return ReadSet([Read(name=f"r{i}", sequence="A" * n) for i, n in enumerate(lengths)])

    def test_covers_all_rids_exactly_once(self):
        rs = self._readset([10, 20, 30, 40, 50, 60])
        parts = partition_reads(rs, 3)
        flat = sorted(rid for part in parts for rid in part)
        assert flat == list(range(6))

    def test_by_size_is_contiguous(self):
        rs = self._readset([10] * 12)
        parts = partition_reads(rs, 4)
        for part in parts:
            assert part == list(range(part[0], part[0] + len(part)))

    def test_by_size_balances_bytes(self):
        rs = self._readset([100] * 16)
        parts = partition_reads(rs, 4)
        assert partition_imbalance(parts, rs) == pytest.approx(1.0)

    def test_uneven_lengths_still_reasonable(self):
        rs = self._readset([1000, 10, 10, 10, 1000, 10, 10, 10])
        parts = partition_reads(rs, 4)
        assert partition_imbalance(parts, rs) < 2.5

    def test_more_ranks_than_reads(self):
        rs = self._readset([10, 10])
        parts = partition_reads(rs, 5)
        flat = sorted(rid for part in parts for rid in part)
        assert flat == [0, 1]

    def test_empty_readset(self):
        parts = partition_reads(ReadSet(), 3)
        assert parts == [[], [], []]

    def test_invalid_inputs(self):
        rs = self._readset([10])
        with pytest.raises(ValueError):
            partition_reads(rs, 0)
