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
  against the closed form of :func:`repro.io.partition.partition_reads`;
* :func:`xdrop_align_tasks` over a :class:`LookupCache` — stage 4's
  per-task slicing loop over memoised forward and reverse-complement code
  arrays, against the code arena and descriptors of
  :func:`repro.align.batch.batched_xdrop_align`;
* :func:`canonical_occurrences` — a 4-key ``lexsort`` of occurrence
  columns, against the sorted occurrence keys of
  :class:`repro.kmers.hashtable.KmerIndex`.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.align.batched_xdrop import BatchedExtensionConfig, batched_extend
from repro.align.scoring import ScoringScheme
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


class LookupCache:
    """Per-read memo of forward and reverse-complement code arrays, with one
    counted lookup per call: a miss the first time an array is built.

    The reverse complement is derived from the forward codes, which then
    count as present without a lookup of their own.
    """

    def __init__(self, sequences: dict[int, str]) -> None:
        self._sequences = sequences
        self._forward: dict[int, np.ndarray] = {}
        self._reverse: dict[int, np.ndarray] = {}
        self.hits = 0
        self.misses = 0

    def _codes(self, rid: int) -> np.ndarray:
        if rid not in self._forward:
            self._forward[rid] = encode_sequence(self._sequences[rid])
        return self._forward[rid]

    def encoded(self, rid: int) -> np.ndarray:
        self.misses += rid not in self._forward
        self.hits += rid in self._forward
        return self._codes(rid)

    def encoded_rc(self, rid: int) -> np.ndarray:
        if rid in self._reverse:
            self.hits += 1
        else:
            self.misses += 1
            self._reverse[rid] = (3 - self._codes(rid))[::-1].astype(np.uint8)
        return self._reverse[rid]


def xdrop_align_tasks(
    tasks,
    cache: LookupCache,
    k: int,
    scoring: ScoringScheme,
    xdrop: int,
    band: int,
) -> np.ndarray:
    """Align a :class:`repro.align.batch.TaskBatch` one task at a time:
    slice (and reverse) each extension out of the cache's arrays, then
    extend the two batches.  Returns ``(n, 6)`` int64 rows of score,
    start_a, end_a, start_b, end_b and cells."""
    seeds: list[tuple[int, int]] = []
    fwd_a: list[np.ndarray] = []
    fwd_b: list[np.ndarray] = []
    back_a: list[np.ndarray] = []
    back_b: list[np.ndarray] = []
    columns = zip(tasks.rid_a.tolist(), tasks.rid_b.tolist(), tasks.seed_pos_a.tolist(),
                  tasks.seed_pos_b.tolist(), tasks.same_strand.tolist())
    for rid_a, rid_b, pos_a, pos_b, same_strand in columns:
        codes_a = cache.encoded(rid_a)
        if same_strand:
            codes_b = cache.encoded(rid_b)
        else:
            codes_b = cache.encoded_rc(rid_b)
            pos_b = codes_b.size - k - pos_b
        sa = min(max(0, pos_a), max(0, codes_a.size - k))
        sb = min(max(0, pos_b), max(0, codes_b.size - k))
        seeds.append((sa, sb))
        fwd_a.append(codes_a[sa + k:])
        fwd_b.append(codes_b[sb + k:])
        back_a.append(codes_a[:sa][::-1])
        back_b.append(codes_b[:sb][::-1])

    seed_a, seed_b = np.array(seeds, dtype=np.int64).reshape(-1, 2).T
    config = BatchedExtensionConfig(xdrop=xdrop, band=band)
    fwd = batched_extend(fwd_a, fwd_b, scoring, config)
    back = batched_extend(back_a, back_b, scoring, config)
    return np.stack([scoring.match * k + fwd[:, 0] + back[:, 0],
                     seed_a - back[:, 1], seed_a + k + fwd[:, 1],
                     seed_b - back[:, 2], seed_b + k + fwd[:, 2],
                     fwd[:, 3] + back[:, 3]], axis=1)


def canonical_occurrences(codes: np.ndarray, rids: np.ndarray, positions: np.ndarray,
                          strands: np.ndarray) -> tuple[np.ndarray, ...]:
    """Occurrence columns in canonical ``(code, rid, position, strand)``
    order: one 4-key ``lexsort`` of the columns."""
    order = np.lexsort((strands, positions, rids, codes))
    return tuple(np.asarray(column)[order] for column in (codes, rids, positions, strands))
