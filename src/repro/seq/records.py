"""Read and read-set containers.

A :class:`Read` is a named long-read sequence (optionally with per-base
quality and with ground-truth provenance when it came from the synthetic
read simulator).  A :class:`ReadSet` is an ordered collection of reads with
stable integer read identifiers (RIDs) — the identifiers that flow through
the distributed hash table and the overlap stage in place of the sequences
themselves (§4 of the paper: "reads (represented by identifiers) as
vertices").
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np


@dataclass
class Read:
    """A single (long) read.

    Attributes
    ----------
    name:
        Read name, unique within a data set (FASTQ header without ``@``).
    sequence:
        The base string (upper-case ACGT after sanitising).
    quality:
        Optional FASTQ quality string, same length as ``sequence``.
    true_start / true_end / true_strand:
        Ground-truth mapping of the read onto the reference genome it was
        simulated from (half-open interval); ``None`` for real data.  These
        fields power the overlap oracle used by correctness tests and the
        recall statistics in the experiment harness.
    """

    name: str
    sequence: str
    quality: str | None = None
    true_start: int | None = None
    true_end: int | None = None
    true_strand: int = 1

    def __post_init__(self) -> None:
        if self.quality is not None and len(self.quality) != len(self.sequence):
            raise ValueError(
                f"quality length {len(self.quality)} != sequence length {len(self.sequence)}"
            )

    def __len__(self) -> int:
        return len(self.sequence)

    @property
    def nbytes(self) -> int:
        """In-memory size of the sequence payload (1 byte per base)."""
        return len(self.sequence)

    def has_truth(self) -> bool:
        """True if the read carries ground-truth genome coordinates."""
        return self.true_start is not None and self.true_end is not None


class ReadSet:
    """An ordered collection of reads addressed by integer read id (RID).

    RIDs are assigned in insertion order starting at 0 and are stable for the
    lifetime of the set.  The set also exposes the aggregate statistics the
    pipeline and the cost model need (total bases, average read length).
    """

    def __init__(self, reads: Iterable[Read] = ()) -> None:
        self._reads: list[Read] = list(reads)
        names = [r.name for r in self._reads]
        if len(set(names)) != len(names):
            raise ValueError("read names must be unique within a ReadSet")

    # -- container protocol -------------------------------------------------

    def __len__(self) -> int:
        return len(self._reads)

    def __iter__(self) -> Iterator[Read]:
        return iter(self._reads)

    def __getitem__(self, rid: int) -> Read:
        return self._reads[rid]

    def add(self, read: Read) -> int:
        """Append a read and return its RID."""
        self._reads.append(read)
        return len(self._reads) - 1

    # -- aggregate statistics ------------------------------------------------

    @property
    def total_bases(self) -> int:
        """Total number of bases across all reads (N = G * d in the paper)."""
        return sum(len(r) for r in self._reads)

    @property
    def mean_read_length(self) -> float:
        """Average read length L; 0.0 for an empty set."""
        if not self._reads:
            return 0.0
        return self.total_bases / len(self._reads)

    def read_lengths(self) -> np.ndarray:
        """Array of read lengths in RID order."""
        return np.array([len(r) for r in self._reads], dtype=np.int64)

    def total_kmers(self, k: int) -> int:
        """Total number of k-mers parsed from the set (sum of L_i - k + 1)."""
        lengths = self.read_lengths()
        return int(np.maximum(lengths - k + 1, 0).sum())

    def subset(self, rids: Sequence[int]) -> "ReadSet":
        """Return a new ReadSet containing the given RIDs (re-numbered)."""
        return ReadSet(self._reads[r] for r in rids)

    def names(self) -> list[str]:
        """Read names in RID order."""
        return [r.name for r in self._reads]

    def fingerprint(self) -> str:
        """Content digest of the set: names and sequences in RID order.

        The read-set part of the resident-index generation tag
        (:meth:`~repro.core.pipeline.DibellaPipeline.build_index`): a rank
        reuses its resident index, index reads and read cache only when the
        index read sets hash identically, so a rank reused for a different
        data set can never serve a stale index or sequence.  blake2b streams
        at memory bandwidth, so this costs far less than one pipeline stage.
        """
        digest = hashlib.blake2b(digest_size=16)
        digest.update(str(len(self._reads)).encode("ascii"))
        for read in self._reads:
            digest.update(read.name.encode("utf-8", "surrogateescape"))
            digest.update(b"\x00")
            digest.update(read.sequence.encode("ascii"))
            digest.update(b"\x01")
        return digest.hexdigest()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ReadSet(n_reads={len(self)}, total_bases={self.total_bases}, "
            f"mean_length={self.mean_read_length:.1f})"
        )
