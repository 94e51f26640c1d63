"""k-mer extraction, canonicalisation and hashing.

A k-mer of length ``k <= 31`` is represented as a single ``uint64`` *code*:
the concatenation of the 2-bit codes of its bases, most significant base
first.  This mirrors diBELLA's compact k-mer representation (§3) and lets the
whole pipeline move k-mers around as flat numpy integer arrays — the
communication-friendly layout the distributed stages rely on.

Reads come from either strand of the genome, so two overlapping reads may
share a k-mer only up to reverse complement.  As in BELLA/diBELLA, k-mers are
*canonicalised*: a k-mer and its reverse complement are mapped to the same
representative (the numerically smaller code), so strand does not affect
matching.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import native
from repro.seq.encoding import encode_sequence

#: Largest k representable in a single uint64 code.
MAX_K: int = 31

#: Default k-mer length for long-read data (the paper's typical value, §2).
DEFAULT_K: int = 17


@dataclass(frozen=True)
class KmerSpec:
    """Parameters of the k-mer analysis.

    Attributes
    ----------
    k:
        k-mer length.  Must be in ``[1, MAX_K]``.  17 is typical for long
        reads (§2 of the paper).
    canonical:
        Whether to canonicalise k-mers across strands.  diBELLA always does;
        the flag exists so tests can exercise the raw forward extraction.
    """

    k: int = DEFAULT_K
    canonical: bool = True

    def __post_init__(self) -> None:
        if not (1 <= self.k <= MAX_K):
            raise ValueError(f"k must be in [1, {MAX_K}], got {self.k}")


def reverse_complement_code(codes: np.ndarray | int, k: int) -> np.ndarray | int:
    """Reverse-complement k-mer code(s) arithmetically.

    With the ``A=0, C=1, G=2, T=3`` encoding the complement of a base code is
    ``3 - code``, so complementing a whole k-mer is a subtraction from the
    all-ones pattern; the reversal is done by reassembling the 2-bit fields in
    opposite order.
    """
    scalar = np.isscalar(codes)
    arr = np.atleast_1d(np.asarray(codes, dtype=np.uint64))
    mask = np.uint64((1 << (2 * k)) - 1)
    comp = (~arr) & mask  # complement every base (3 - code per 2-bit field)
    out = np.zeros_like(arr)
    for i in range(k):
        base = (comp >> np.uint64(2 * i)) & np.uint64(3)
        out |= base << np.uint64(2 * (k - 1 - i))
    if scalar:
        return int(out[0])
    return out


def canonicalize_codes(codes: np.ndarray, k: int) -> np.ndarray:
    """Vectorised canonicalisation: elementwise min(code, revcomp(code))."""
    codes = np.asarray(codes, dtype=np.uint64)
    rc = reverse_complement_code(codes, k)
    return np.minimum(codes, rc)


def extract_kmer_codes(seq: str, spec: KmerSpec) -> np.ndarray:
    """Extract all k-mer codes of a read as a ``uint64`` array.

    The extraction is the vectorised rolling construction: the code of the
    k-mer starting at position ``i+1`` is the code at ``i`` shifted left by
    two bits, masked, plus the next base.  Implemented with a cumulative
    polynomial evaluation so there is no Python-level loop over positions.
    """
    codes2bit = encode_sequence(seq).astype(np.uint64)
    n = codes2bit.size
    k = spec.k
    if n < k:
        return np.empty(0, dtype=np.uint64)
    # Sliding windows over the 2-bit codes: shape (n-k+1, k) view, then a
    # dot product with the per-position place values collapses each window
    # into a single integer.  uint64 arithmetic wraps safely because
    # 2*k <= 62 bits.
    windows = np.lib.stride_tricks.sliding_window_view(codes2bit, k)
    weights = (np.uint64(1) << (np.uint64(2) * np.arange(k - 1, -1, -1, dtype=np.uint64)))
    kmers = (windows * weights).sum(axis=1, dtype=np.uint64)
    if spec.canonical:
        kmers = canonicalize_codes(kmers, k)
    return kmers


def extract_kmers_with_strand(seq: str, spec: KmerSpec
                              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Extract (canonical codes, positions, is_forward) for every k-mer.

    ``is_forward[i]`` is True when the canonical representative equals the
    k-mer as it literally appears in the read, False when the canonical form
    is its reverse complement.  The pipeline ships this orientation bit with
    every occurrence so the alignment stage can put cross-strand read pairs
    into a consistent orientation before extending the seed (reads are
    sequenced from either strand of the genome).
    """
    raw = extract_kmer_codes(seq, KmerSpec(k=spec.k, canonical=False))
    positions = np.arange(raw.size, dtype=np.int64)
    if raw.size == 0:
        return raw, positions, np.empty(0, dtype=bool)
    rc = reverse_complement_code(raw, spec.k)
    canonical = np.minimum(raw, rc)
    is_forward = canonical == raw
    return canonical, positions, is_forward


def _window_codes(bases: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Forward and reverse-complement codes of every length-*k* window of *bases*.

    Built by doubling rather than by rolling one base at a time: two
    adjacent length-``p`` windows join into a length-``2p`` one as
    ``fwd[t] << 2p | fwd[t + p]`` and ``rc[t + p] << 2p | rc[t]``, and the
    power-of-two pieces named by the set bits of *k* join the same way into
    the length-*k* codes — ``log2(k) + popcount(k)`` passes over the array
    instead of *k*, with no per-k-mer bit reversal afterwards.
    """
    fwd_p, rc_p, p = bases, bases ^ np.uint64(3), 1
    fwd = rc = bases[:0]
    length = 0  # bases covered by fwd / rc so far
    while True:
        if k & p:
            n = fwd_p.size - length  # windows of length (length + p)
            if length == 0:
                fwd, rc = fwd_p, rc_p
            else:
                fwd = (fwd[:n] << np.uint64(2 * p)) | fwd_p[length:length + n]
                rc = (rc_p[length:length + n] << np.uint64(2 * length)) | rc[:n]
            length += p
        if 2 * p > k:
            return fwd, rc
        m = fwd_p.size - p  # windows of length 2p
        shift = np.uint64(2 * p)
        fwd_p, rc_p = ((fwd_p[:m] << shift) | fwd_p[p:p + m],
                       (rc_p[p:p + m] << shift) | rc_p[:m])
        p *= 2


def extract_kmers_batch(
    codes: np.ndarray, lengths: np.ndarray, spec: KmerSpec, with_strand: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Extract the k-mers of a whole batch of reads.

    *codes* holds the reads' 2-bit base codes back to back (a read set's
    arena slice, :meth:`~repro.seq.records.ReadSet.span`) and *lengths*
    their base counts.  Returns ``(codes, read_index, positions,
    is_forward)`` where ``read_index[i]`` is the batch index of the read
    containing k-mer ``i`` and ``positions[i]`` its 0-based offset in that
    read.  With ``with_strand=True`` the codes are canonicalised and
    ``is_forward`` reports, per k-mer, whether the canonical representative
    is the literal forward orientation (matching
    :func:`extract_kmers_with_strand`); otherwise canonicalisation follows
    ``spec.canonical`` and ``is_forward`` is empty.  A base code above 3
    raises :class:`ValueError`.

    Runs the compiled ``extract_kmers`` (:mod:`repro.native`: one rolling
    forward / reverse-complement loop per read, reading the codes through
    an identity lookup table) when it is available, :func:`_extract_numpy`
    otherwise; both return the same columns.  This is the batch counterpart
    of :func:`extract_kmer_codes` and what the pipeline's streaming
    supersteps call.
    """
    codes = np.ascontiguousarray(codes, dtype=np.uint8)
    lengths = np.ascontiguousarray(lengths, dtype=np.int64)
    if lengths.min(initial=0) < 0 or int(lengths.sum()) != codes.size:
        raise ValueError(f"read lengths must be >= 0 and sum to the batch's "
                         f"{codes.size} codes")
    compiled = native.library()
    if compiled is None:
        return _extract_numpy(codes, lengths, spec, with_strand)
    k = spec.k
    n_kmers = int(np.maximum(lengths - (k - 1), 0).sum())
    kmers = np.empty(n_kmers, dtype=np.uint64)
    read_index = np.empty(n_kmers, dtype=np.int64)
    positions = np.empty(n_kmers, dtype=np.int64)
    is_forward = np.empty(n_kmers if with_strand else 0, dtype=bool)
    bad = compiled.extract_kmers(
        codes.ctypes.data, lengths.ctypes.data, lengths.size,
        _IDENTITY_CODES.ctypes.data, k, spec.canonical or with_strand, with_strand,
        kmers.ctypes.data, read_index.ctypes.data, positions.ctypes.data,
        is_forward.ctypes.data)
    if bad >= 0:
        raise _invalid_code(codes, bad)
    return kmers, read_index, positions, is_forward


#: The lookup table the compiled extraction reads base codes through: codes
#: 0-3 map to themselves, anything else is outside the alphabet.
_IDENTITY_CODES = np.full(256, 255, dtype=np.uint8)
_IDENTITY_CODES[:4] = np.arange(4)


def _invalid_code(codes: np.ndarray, at: int) -> ValueError:
    return ValueError(f"invalid base code {int(codes[at])} at position {at} of the batch")


def _extract_numpy(
    codes: np.ndarray, lengths: np.ndarray, spec: KmerSpec, with_strand: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The NumPy body of :func:`extract_kmers_batch` (reference and fallback).

    Every window's forward and reverse-complement code is built over the
    batch's whole code array by doubling (:func:`_window_codes`, no
    per-read Python loop); windows spanning a read boundary are masked out
    afterwards.
    """
    k = spec.k
    empty_u64 = np.empty(0, dtype=np.uint64)
    empty_i64 = np.empty(0, dtype=np.int64)
    empty_bool = np.empty(0, dtype=bool)
    codes = np.asarray(codes, dtype=np.uint8)
    lengths = np.asarray(lengths, dtype=np.int64)
    if codes.max(initial=0) > 3:
        raise _invalid_code(codes, int(np.argmax(codes > 3)))
    concat = codes.astype(np.uint64)
    n = concat.size
    if n < k:
        return empty_u64, empty_i64, empty_i64, empty_bool
    raw, rc = _window_codes(concat, k)

    # A window starting at base t belongs to the read containing base t and
    # is valid only if it does not cross that read's end.
    n_windows = n - k + 1
    starts = np.concatenate(([0], np.cumsum(lengths)))[:-1]
    read_of_base = np.repeat(np.arange(lengths.size, dtype=np.int64), lengths)
    read_index = read_of_base[:n_windows]
    positions = np.arange(n_windows, dtype=np.int64) - starts[read_index]
    valid = positions <= lengths[read_index] - k

    raw = raw[valid]
    read_index = read_index[valid]
    positions = positions[valid]

    if with_strand:
        canonical = np.minimum(raw, rc[valid])
        return canonical, read_index, positions, canonical == raw
    if spec.canonical:
        raw = np.minimum(raw, rc[valid])
    return raw, read_index, positions, empty_bool

