"""FASTA reading and writing (reference genomes and overlap output)."""

from __future__ import annotations

import gzip
from pathlib import Path
from typing import Iterable, Iterator

from repro.io.fastq import open_text
from repro.seq.alphabet import sanitize
from repro.seq.records import Read, ReadSet


class FastaFormatError(ValueError):
    """Raised when a FASTA file is structurally invalid."""


def iter_fasta(path: str | Path) -> Iterator[Read]:
    """Yield :class:`Read` records (no quality) from a FASTA (``.gz`` ok) file."""
    name: str | None = None
    chunks: list[str] = []
    with open_text(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith(">"):
                if name is not None:
                    yield Read(name=name, sequence=sanitize("".join(chunks)))
                name = line[1:].split()[0]
                chunks = []
            else:
                if name is None:
                    raise FastaFormatError("sequence data before first '>' header")
                chunks.append(line)
        if name is not None:
            yield Read(name=name, sequence=sanitize("".join(chunks)))


def read_fasta(path: str | Path) -> ReadSet:
    """Read an entire FASTA file into a :class:`ReadSet`."""
    return ReadSet(iter_fasta(path))


def write_fasta(reads: Iterable[Read], path: str | Path, line_width: int = 80) -> int:
    """Write reads to a FASTA file wrapped at *line_width* columns."""
    if line_width <= 0:
        raise ValueError("line_width must be positive")
    path = Path(path)
    opener = gzip.open if path.suffix == ".gz" else open
    count = 0
    with opener(path, "wt", encoding="ascii") as fh:
        for read in reads:
            fh.write(f">{read.name}\n")
            seq = read.sequence
            for i in range(0, len(seq), line_width):
                fh.write(seq[i : i + line_width] + "\n")
            count += 1
    return count
