"""Vectorised 2-bit encoding of DNA sequences.

The paper (§3) notes that each base of the {A,C,G,T} alphabet is representable
in 2 bits and that diBELLA chooses a compile-time k-mer width rounded up to a
power of two (typically 32 or 64 bits).  Here sequences are encoded to
``uint8`` code arrays (one code per base) for general manipulation, and packed
into ``uint64`` words (32 bases per word) when a compact representation is
needed (e.g. for hashing whole reads or for memory accounting).

:func:`pack_2bit` / :func:`unpack_2bit` use the word-oriented layout
(most-significant lanes first within each ``uint64``); the *wire* codec in
:mod:`repro.seq.packing` packs byte-oriented instead (4 bases/byte,
least-significant lanes first) so read payloads can be sliced at byte
granularity.  The two layouts are not interchangeable — always unpack with
the function matching the packer.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.seq.alphabet import CODE_TO_BASE, ascii_to_code_table
from repro.seq.records import Read

#: Number of bases packed into one 64-bit word.
BASES_PER_WORD: int = 32


def encode_sequence(seq: str) -> np.ndarray:
    """Encode a DNA string into a ``uint8`` array of 2-bit codes.

    Raises :class:`ValueError` if the sequence contains characters outside
    ``ACGTacgt`` — callers are expected to have sanitised reads on ingest
    (see :func:`repro.seq.alphabet.sanitize`).
    """
    if not seq:
        return np.empty(0, dtype=np.uint8)
    raw = np.frombuffer(seq.encode("ascii"), dtype=np.uint8)
    codes = ascii_to_code_table()[raw]
    if np.any(codes == 255):
        bad = seq[int(np.argmax(codes == 255))]
        raise ValueError(f"invalid DNA character {bad!r} in sequence")
    return codes


def check_reads(reads: Iterable[Read]) -> None:
    """Raise :class:`ValueError` naming the first read with a non-ACGT base.

    The launch-time form of :func:`encode_sequence`'s alphabet check, so a
    read set that would fail inside a rank is rejected before any rank
    starts.  The accepted bytes come from the same lookup table; each read
    is scanned in one C-level pass (``bytes.translate`` deleting them).
    """
    table = ascii_to_code_table()
    valid = np.flatnonzero(table != 255).astype(np.uint8).tobytes()
    for read in reads:
        # "replace" keeps one byte per character, so positions line up.
        raw = read.sequence.encode("ascii", "replace")
        if raw.translate(None, valid):
            position = int(np.argmax(table[np.frombuffer(raw, dtype=np.uint8)] == 255))
            raise ValueError(
                f"read {read.name!r} has an invalid DNA character "
                f"{read.sequence[position]!r} at position {position}")


def decode_sequence(codes: np.ndarray) -> str:
    """Decode a ``uint8`` array of 2-bit codes back into a DNA string."""
    codes = np.asarray(codes, dtype=np.uint8)
    if codes.size == 0:
        return ""
    if codes.max(initial=0) > 3:
        raise ValueError("codes must be in [0, 3]")
    lut = np.frombuffer("".join(CODE_TO_BASE[i] for i in range(4)).encode("ascii"), dtype=np.uint8)
    return lut[codes].tobytes().decode("ascii")


def pack_2bit(codes: np.ndarray) -> tuple[np.ndarray, int]:
    """Pack an array of 2-bit base codes into ``uint64`` words.

    Returns ``(words, n_bases)`` where ``words`` is a ``uint64`` array with
    :data:`BASES_PER_WORD` bases per word (most significant bits first within
    a word) and ``n_bases`` is the original length, needed to undo the
    padding on unpack.
    """
    codes = np.asarray(codes, dtype=np.uint64)
    n = int(codes.size)
    n_words = (n + BASES_PER_WORD - 1) // BASES_PER_WORD
    padded = np.zeros(n_words * BASES_PER_WORD, dtype=np.uint64)
    padded[:n] = codes
    padded = padded.reshape(n_words, BASES_PER_WORD)
    shifts = np.arange(BASES_PER_WORD - 1, -1, -1, dtype=np.uint64) * np.uint64(2)
    words = np.bitwise_or.reduce(padded << shifts, axis=1)
    return words, n


def unpack_2bit(words: np.ndarray, n_bases: int) -> np.ndarray:
    """Unpack ``uint64`` words produced by :func:`pack_2bit` back into codes."""
    words = np.asarray(words, dtype=np.uint64)
    shifts = np.arange(BASES_PER_WORD - 1, -1, -1, dtype=np.uint64) * np.uint64(2)
    expanded = (words[:, None] >> shifts) & np.uint64(3)
    codes = expanded.reshape(-1)[:n_bases]
    return codes.astype(np.uint8)


def packed_nbytes(n_bases: int) -> int:
    """Number of bytes needed to store *n_bases* bases in 2-bit packing."""
    n_words = (n_bases + BASES_PER_WORD - 1) // BASES_PER_WORD
    return n_words * 8
