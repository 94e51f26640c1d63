"""FASTQ reading and writing.

The parser is deliberately strict about record structure (4 lines per record,
``@`` header, ``+`` separator, matching sequence/quality lengths) because
malformed records silently corrupt downstream RID bookkeeping.  Sequences are
sanitised to the ACGT alphabet on ingest (ambiguous bases replaced), matching
the behaviour of diBELLA's k-mer parser which operates on the 4-letter
alphabet only.
"""

from __future__ import annotations

import gzip
import io
from pathlib import Path
from typing import Iterable, Iterator, TextIO

from repro.seq.alphabet import sanitize
from repro.seq.records import Read, ReadSet


class FastqFormatError(ValueError):
    """Raised when a FASTQ file violates the 4-line record structure."""


def open_text(path: str | Path) -> TextIO:
    """Open a possibly gzip-compressed text file for reading."""
    path = Path(path)
    if path.suffix == ".gz":
        return io.TextIOWrapper(gzip.open(path, "rb"), encoding="ascii")
    return open(path, "r", encoding="ascii")


def iter_fastq(path: str | Path) -> Iterator[Read]:
    """Yield :class:`Read` records from a FASTQ (optionally ``.gz``) file."""
    with open_text(path) as fh:
        yield from parse_fastq(fh)


def parse_fastq(handle: Iterable[str]) -> Iterator[Read]:
    """Parse FASTQ records from an iterable of lines."""
    lines = iter(handle)
    lineno = 0
    while True:
        try:
            header = next(lines)
        except StopIteration:
            return
        lineno += 1
        header = header.rstrip("\n")
        if not header:
            continue  # tolerate trailing blank lines
        if not header.startswith("@"):
            raise FastqFormatError(f"line {lineno}: expected '@' header, got {header[:20]!r}")
        try:
            seq = next(lines).rstrip("\n")
            plus = next(lines).rstrip("\n")
            qual = next(lines).rstrip("\n")
        except StopIteration:
            raise FastqFormatError(f"truncated FASTQ record starting at line {lineno}") from None
        lineno += 3
        if not plus.startswith("+"):
            raise FastqFormatError(f"line {lineno - 1}: expected '+' separator, got {plus[:20]!r}")
        if len(seq) != len(qual):
            raise FastqFormatError(
                f"record {header[1:]!r}: sequence length {len(seq)} != quality length {len(qual)}"
            )
        name = header[1:].split()[0] if len(header) > 1 else f"read{lineno}"
        yield Read(name=name, sequence=sanitize(seq), quality=qual)


def read_fastq(path: str | Path) -> ReadSet:
    """Read an entire FASTQ file into a :class:`ReadSet`."""
    return ReadSet(iter_fastq(path))


def write_fastq(reads: Iterable[Read], path: str | Path) -> int:
    """Write reads to a FASTQ file; returns the number of records written.

    Reads without quality strings get a constant placeholder quality (``I``),
    which is how the synthetic data generator materialises data sets to disk.
    """
    path = Path(path)
    count = 0
    opener = gzip.open if path.suffix == ".gz" else open
    with opener(path, "wt", encoding="ascii") as fh:
        for read in reads:
            qual = read.quality if read.quality is not None else "I" * len(read.sequence)
            fh.write(f"@{read.name}\n{read.sequence}\n+\n{qual}\n")
            count += 1
    return count
