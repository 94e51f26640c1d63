"""Windowed minimizer sketching of the k-mer stream.

diBELLA's stages 1-3 exhaustively extract, exchange and table *every*
canonical k-mer, so their communication volume and retained-table size scale
with total input bases.  Minimap2 and miniasm showed that seeding from
**windowed minimizers** — keeping, for every window of ``w`` consecutive
k-mers, only the one with the smallest hash — preserves overlap sensitivity
while shrinking the seed set to an expected density of ``2/(w+1)`` of the
full k-mer stream.  This module is that front-end: a purely vectorised
selection mask over the batch extraction of :mod:`repro.seq.kmer`, so only
window minima ever reach the Bloom filter, the hash-table exchange, or the
overlap pair generation (``PipelineConfig.seed_mode = "minimizer"``).

Selection is *content-based*: the hash is a seeded invertible mix of the
canonical k-mer code, so every read containing the same (error-free) window
of genome selects the same minimizer — which is what keeps the occurrence
counts of selected k-mers in the reliable range and overlap recall high.

Invariants (pinned by the property tests in ``tests/test_minimizer.py``):

* **coverage** — every window of ``w`` consecutive k-mers of a read contains
  at least one selected position; a read with fewer than ``w`` k-mers keeps
  its single minimum-hash k-mer, so no read drops out of the sketch;
* **subset** — the sketch is a subset of the full canonical k-mer stream
  (same codes, positions and strand flags, just fewer of them);
* **determinism** — the mask is a pure function of (sequence, k, w): batch
  and scalar extraction agree, and so do all ranks and backends;
* ``w = 1`` selects everything (the sketch degenerates to the full stream).

Ties inside a window (only possible for equal canonical codes) break to the
leftmost position, so the selection is deterministic without a tie-breaking
secondary hash.
"""

from __future__ import annotations

import numpy as np

from repro.kmers.hashing import hash_with_seed
from repro.seq.kmer import KmerSpec, extract_kmers_batch, extract_kmers_with_strand

#: Fixed seed of the sketch hash.  Deliberately distinct from the (unseeded)
#: owner-rank hash ``mix64`` so "is a window minimum" and "which rank owns
#: this k-mer" stay statistically independent decisions.
SKETCH_HASH_SEED: int = 0x5EED_AB1E_D1BE_11A5

#: Default window length (k-mers per window).  11 keeps an expected
#: ``2/(w+1) = 1/6`` of the stream — the sweet spot of the window sweep in
#: ``docs/seed-sketch.md``.
DEFAULT_MINIMIZER_WINDOW: int = 11


def sketch_hash(codes: np.ndarray | int) -> np.ndarray | int:
    """The minimizer ordering: a seeded invertible 64-bit mix of each code.

    An invertible mixer gives a uniform pseudo-random total order over
    canonical codes without collisions, so "the window minimum" is a
    well-defined single k-mer per window (up to equal codes).
    """
    return hash_with_seed(codes, SKETCH_HASH_SEED)


def expected_density(window: int) -> float:
    """Expected sketch density ``2/(w+1)`` of random sequence (minimap2 §2)."""
    if window < 1:
        raise ValueError("window must be >= 1")
    return min(1.0, 2.0 / (window + 1))


def minimizer_mask(hashes: np.ndarray, read_index: np.ndarray,
                   window: int) -> np.ndarray:
    """Boolean mask selecting the windowed minimizers of a flat k-mer stream.

    Parameters
    ----------
    hashes:
        ``uint64`` sketch hashes of the k-mers, one per extracted k-mer, in
        extraction order (ascending position within each read).
    read_index:
        Per-k-mer read identifier, non-decreasing (the layout
        :func:`repro.seq.kmer.extract_kmers_batch` produces: each read's
        k-mers form one contiguous run).  Windows never span two reads.
    window:
        Window length ``w >= 1`` in k-mers: every run of ``w`` consecutive
        same-read k-mers contributes its minimum-hash position.

    Returns
    -------
    numpy.ndarray
        Boolean mask over the stream; ``mask[i]`` is True when k-mer ``i`` is
        the minimum of at least one window (or the global minimum of a read
        shorter than one window).

    Notes
    -----
    The sliding-window minimum is computed with a strided window view and a
    single vectorised ``argmin`` over the window axis — no Python-level loop
    over positions and no monotonic deque.  ``argmin`` returns the first
    minimum, so ties break to the leftmost position.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    hashes = np.asarray(hashes, dtype=np.uint64)
    read_index = np.asarray(read_index, dtype=np.int64)
    if hashes.shape != read_index.shape:
        raise ValueError("hashes and read_index must have the same shape")
    n = hashes.size
    mask = np.zeros(n, dtype=bool)
    if n == 0:
        return mask
    if window == 1:
        mask[:] = True
        return mask

    w = window
    if n >= w:
        # One argmin per window start; windows crossing a read boundary are
        # dropped (a window is intra-read iff its first and last k-mer come
        # from the same read — read runs are contiguous).
        windows = np.lib.stride_tricks.sliding_window_view(hashes, w)
        arg = windows.argmin(axis=1).astype(np.int64)
        starts = np.arange(n - w + 1, dtype=np.int64)
        intra_read = read_index[starts] == read_index[starts + w - 1]
        mask[(starts + arg)[intra_read]] = True

    # Reads with fewer than w k-mers have no full window; keep each such
    # read's global minimum so every read stays represented in the sketch.
    run_first = np.concatenate(([True], read_index[1:] != read_index[:-1]))
    run_starts = np.flatnonzero(run_first)
    run_lengths = np.diff(np.append(run_starts, n))
    short = run_lengths < w
    if short.any():
        # Per-read (min hash, leftmost) via one lexsort: primary key read,
        # secondary hash, tertiary stream position.  The first entry of each
        # read's run in sorted order is its minimum; runs come out in the
        # same ascending-read order as run_starts.
        order = np.lexsort((np.arange(n, dtype=np.int64), hashes, read_index))
        sorted_reads = read_index[order]
        first_of_run = np.concatenate(([True], sorted_reads[1:] != sorted_reads[:-1]))
        run_min = order[first_of_run]
        mask[run_min[short]] = True
    return mask


def sketch_kmers_batch(
    seqs, spec: KmerSpec, window: int, with_strand: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Extract the windowed-minimizer sketch of a batch of reads.

    The batch counterpart of :func:`sketch_kmers_with_strand` and the
    sketching mirror of :func:`repro.seq.kmer.extract_kmers_batch`: same
    signature plus ``window``, same return layout ``(codes, read_index,
    positions, is_forward)``, but only the window minima survive — so
    downstream consumers (owner hashing, metadata packing,
    :class:`~repro.overlap.pairs.PairBatch` construction) are unchanged.

    The ordering hash is computed over the codes as returned by the full
    extraction — canonical codes in both pipeline uses (``with_strand=True``
    or a canonical *spec*) — so two reads sharing an error-free window select
    the same minimizer regardless of strand.
    """
    codes, read_index, positions, is_forward = extract_kmers_batch(
        seqs, spec, with_strand=with_strand
    )
    keep = minimizer_mask(sketch_hash(codes), read_index, window)
    return (
        codes[keep],
        read_index[keep],
        positions[keep],
        is_forward[keep] if is_forward.size else is_forward,
    )


def sketch_kmers_with_strand(
    seq: str, spec: KmerSpec, window: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Scalar (one-read) sketch: ``(canonical codes, positions, is_forward)``.

    The sketching mirror of
    :func:`repro.seq.kmer.extract_kmers_with_strand`; used by the property
    tests as the oracle for batch-vs-scalar equivalence.
    """
    codes, positions, is_forward = extract_kmers_with_strand(seq, spec)
    keep = minimizer_mask(
        sketch_hash(codes), np.zeros(codes.size, dtype=np.int64), window
    )
    return codes[keep], positions[keep], is_forward[keep]
