"""Distribution summaries: k-mer spectra.

Used to validate that the synthetic data sets have the characteristics the
paper's analysis relies on (singleton-dominated k-mer spectra, §6).
"""

from __future__ import annotations

import numpy as np

from repro.kmers.counter import KmerCounter
from repro.seq.kmer import KmerSpec
from repro.seq.records import ReadSet


def kmer_spectrum(reads: ReadSet, k: int = 17, max_multiplicity: int = 64) -> dict[str, object]:
    """k-mer frequency spectrum of a read set.

    Returns the multiplicity histogram plus the headline numbers the paper
    quotes: total k-mer instances, distinct k-mers, and the singleton
    fraction of the distinct set.
    """
    counter = KmerCounter(KmerSpec(k=k))
    counter.add_reads(reads)
    codes, counts = counter.counts()
    clamped = np.minimum(counts, max_multiplicity) if counts.size else counts
    hist = np.bincount(clamped, minlength=max_multiplicity + 1) if counts.size else np.zeros(
        max_multiplicity + 1, dtype=np.int64
    )
    return {
        "total_kmers": counter.total_kmers,
        "distinct_kmers": counter.distinct_kmers,
        "singleton_fraction": counter.singleton_fraction(),
        "histogram": hist,
        "max_multiplicity": int(counts.max(initial=0)),
    }
