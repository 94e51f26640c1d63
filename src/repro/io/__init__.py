"""File I/O: FASTA/FASTQ parsing and writing, and block partitioning of reads.

diBELLA's input is a file of long reads; the first thing the pipeline does
is distribute the reads "roughly uniformly over the processors using
parallel I/O" (§6).  This subpackage provides the sequential readers/writers
— :func:`read_reads` takes FASTA or FASTQ, plain or gzipped, as the CLI
does — plus the block partitioner that reproduces that distribution (by
cumulative read size in memory, as in §9: "partitions them as uniformly as
possible ... by the read size in memory").
"""

from __future__ import annotations

from pathlib import Path

from repro.io.fasta import read_fasta, write_fasta
from repro.io.fastq import open_text, read_fastq, write_fastq
from repro.io.partition import partition_reads
from repro.seq.records import ReadSet


def read_reads(path: str | Path) -> ReadSet:
    """Read a FASTA or FASTQ file (``.gz`` ok), picked by its first record's marker.

    A first record starting with ``>`` is FASTA, one starting with ``@`` is
    FASTQ; an empty file is an empty read set.  Anything else raises
    :class:`ValueError`.
    """
    with open_text(path) as fh:
        first = next((line for line in fh if line.strip()), "")
    if first.startswith(">"):
        return read_fasta(path)
    if first.startswith("@") or not first:
        return read_fastq(path)
    raise ValueError(f"{path}: expected a FASTA '>' or FASTQ '@' header, "
                     f"got {first.rstrip()[:20]!r}")


__all__ = [
    "read_reads",
    "read_fasta",
    "write_fasta",
    "read_fastq",
    "write_fastq",
    "partition_reads",
]
