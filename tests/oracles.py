"""Slow scalar oracles for the vectorised paths of ``repro``.

Each function here is a straightforward one-read or one-pair version of a
batched production path, kept only so the tests can compare the two:

* :func:`kmer_string_to_code` / :func:`kmer_code_to_string` /
  :func:`iter_kmers` — the string k-mer codec, against the vectorised
  extraction of :mod:`repro.seq.kmer`;
* :func:`sketch_kmers_with_strand` — the one-read minimizer sketch, against
  the batch sketch of the pipeline's k-mer funnel;
* :func:`select_seeds` — the per-pair greedy seed scan, against
  :func:`repro.overlap.seeds.select_seeds_batched`;
* :func:`partition_reads` — the one-read-at-a-time greedy block partition,
  against the closed form of :func:`repro.io.partition.partition_reads`.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.kmers.minimizer import minimizer_mask, sketch_hash
from repro.overlap.seeds import SeedStrategy
from repro.seq.alphabet import DNA_ALPHABET
from repro.seq.encoding import encode_sequence
from repro.seq.kmer import (
    MAX_K,
    KmerSpec,
    extract_kmer_codes,
    extract_kmers_with_strand,
    reverse_complement_code,
)


def kmer_string_to_code(kmer: str) -> int:
    """Convert a k-mer string (length <= 31) to its integer code."""
    if not (1 <= len(kmer) <= MAX_K):
        raise ValueError(f"k-mer length must be in [1, {MAX_K}], got {len(kmer)}")
    codes = encode_sequence(kmer)
    value = 0
    for c in codes:
        value = (value << 2) | int(c)
    return value


def kmer_code_to_string(code: int, k: int) -> str:
    """Convert an integer k-mer code back to its string form."""
    if not (1 <= k <= MAX_K):
        raise ValueError(f"k must be in [1, {MAX_K}], got {k}")
    chars = []
    for shift in range(2 * (k - 1), -2, -2):
        chars.append(DNA_ALPHABET[(code >> shift) & 3])
    return "".join(chars)


def iter_kmers(seq: str, k: int, canonical: bool = False) -> Iterator[str]:
    """Yield k-mer strings of *seq* in order (reference implementation)."""
    spec = KmerSpec(k=k, canonical=False)
    codes = extract_kmer_codes(seq, spec)
    for code in codes:
        s = kmer_code_to_string(int(code), k)
        if canonical:
            c = min(int(code), reverse_complement_code(int(code), k))
            s = kmer_code_to_string(c, k)
        yield s


def sketch_kmers_with_strand(
    seq: str, spec: KmerSpec, window: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Scalar (one-read) sketch: ``(canonical codes, positions, is_forward)``.

    The sketching mirror of
    :func:`repro.seq.kmer.extract_kmers_with_strand`.
    """
    codes, positions, is_forward = extract_kmers_with_strand(seq, spec)
    keep = minimizer_mask(
        sketch_hash(codes), np.zeros(codes.size, dtype=np.int64), window
    )
    return codes[keep], positions[keep], is_forward[keep]


def select_seeds(
    pos_a: np.ndarray,
    pos_b: np.ndarray,
    strategy: SeedStrategy,
) -> np.ndarray:
    """Select which shared k-mer seeds of one read pair to align.

    Parameters
    ----------
    pos_a, pos_b:
        Positions of every shared retained k-mer in read A and read B
        (parallel arrays, unordered).
    strategy:
        The selection policy.

    Returns
    -------
    numpy.ndarray
        Indices (into ``pos_a``/``pos_b``) of the selected seeds, ordered by
        position on read A.
    """
    pos_a = np.asarray(pos_a, dtype=np.int64)
    pos_b = np.asarray(pos_b, dtype=np.int64)
    if pos_a.shape != pos_b.shape:
        raise ValueError("pos_a and pos_b must have the same shape")
    n = pos_a.size
    if n == 0:
        return np.empty(0, dtype=np.int64)

    order = np.argsort(pos_a, kind="stable")

    if strategy.mode == "one":
        # Use the first seed by position on read A — deterministic and what
        # the "exactly one seed per pair" configuration computes.
        return order[:1]

    # min_separation: greedy left-to-right scan keeping any seed at least
    # min_separation bases after the previously kept one.
    selected: list[int] = []
    last_pos = -np.iinfo(np.int64).max
    for idx in order:
        p = int(pos_a[idx])
        if p - last_pos >= strategy.min_separation:
            selected.append(int(idx))
            last_pos = p
            if strategy.max_seeds is not None and len(selected) >= strategy.max_seeds:
                break
    return np.array(selected, dtype=np.int64)


def partition_reads(readset, n_ranks: int) -> list[list[int]]:
    """The greedy one-read-at-a-time block partition, against the closed
    form of :func:`repro.io.partition.partition_reads`."""
    if n_ranks <= 0:
        raise ValueError("n_ranks must be positive")
    lengths = readset.read_lengths()
    n_reads = len(readset)
    if n_reads == 0:
        return [[] for _ in range(n_ranks)]
    total = int(lengths.sum())
    target = total / n_ranks
    assignments: list[list[int]] = [[] for _ in range(n_ranks)]
    rank = 0
    acc = 0
    for rid in range(n_reads):
        # Move to the next rank once this one has its share, but never leave
        # trailing ranks starved while earlier ranks hold surplus reads.
        if rank < n_ranks - 1 and acc >= target * (rank + 1):
            rank += 1
        assignments[rank].append(rid)
        acc += int(lengths[rid])
    return assignments
