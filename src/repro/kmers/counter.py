"""Plain k-mer counting: a batch counter and a streaming counter.

These utilities sit outside the distributed pipeline: they provide the exact
counts behind the frequency-spectrum statistics in ``repro.stats`` and serve
tests as an oracle for the Bloom-filter + hash-table composition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.seq.kmer import KmerSpec, extract_kmer_codes, extract_kmers_batch
from repro.seq.records import ReadSet


def count_kmers(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact counts of a batch of k-mer codes.

    Returns ``(unique_codes, counts)`` with codes sorted ascending.
    """
    codes = np.asarray(codes, dtype=np.uint64)
    if codes.size == 0:
        return np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.int64)
    unique, counts = np.unique(codes, return_counts=True)
    return unique, counts.astype(np.int64)


@dataclass
class KmerCounter:
    """Streaming exact k-mer counter over multiple batches.

    Batches are buffered as arrays and merged on demand, so adding is O(1)
    per batch and memory stays proportional to the total number of k-mer
    instances seen (the same trade-off diBELLA's streaming passes make, §4).
    """

    spec: KmerSpec

    def __post_init__(self) -> None:
        self._batches: list[np.ndarray] = []
        self._merged: tuple[np.ndarray, np.ndarray] | None = None

    def add_codes(self, codes: np.ndarray) -> None:
        """Add a batch of pre-extracted k-mer codes."""
        codes = np.asarray(codes, dtype=np.uint64)
        if codes.size:
            self._batches.append(codes.copy())
            self._merged = None

    def add_read(self, sequence: str) -> None:
        """Extract and add all k-mers of one read."""
        self.add_codes(extract_kmer_codes(sequence, self.spec))

    def add_reads(self, reads: ReadSet) -> None:
        """Extract and add all k-mers of every read in the set."""
        self.add_codes(extract_kmers_batch(*reads.span(0, len(reads)), self.spec)[0])

    def _merge(self) -> tuple[np.ndarray, np.ndarray]:
        if self._merged is None:
            if not self._batches:
                self._merged = (np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.int64))
            else:
                self._merged = count_kmers(np.concatenate(self._batches))
        return self._merged

    @property
    def total_kmers(self) -> int:
        """Total k-mer instances added (the k-mer "bag" size)."""
        return int(sum(b.size for b in self._batches))

    @property
    def distinct_kmers(self) -> int:
        """Number of distinct k-mers seen (the k-mer "set" size)."""
        return int(self._merge()[0].size)

    def counts(self) -> tuple[np.ndarray, np.ndarray]:
        """(codes, counts) of every distinct k-mer, codes ascending."""
        return self._merge()

    def singleton_fraction(self) -> float:
        """Fraction of distinct k-mers that occur exactly once."""
        _, counts = self._merge()
        if counts.size == 0:
            return 0.0
        return float(np.count_nonzero(counts == 1) / counts.size)
