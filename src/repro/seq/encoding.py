"""Vectorised 2-bit encoding of DNA sequences.

The paper (§3) notes that each base of the {A,C,G,T} alphabet is representable
in 2 bits and that diBELLA chooses a compile-time k-mer width rounded up to a
power of two (typically 32 or 64 bits).  Here sequences are encoded to
``uint8`` code arrays (one code per base) for general manipulation; the
packed form, four codes to a byte, is the wire codec in
:mod:`repro.seq.packing`.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.seq.alphabet import CODE_TO_BASE, ascii_to_code_table
from repro.seq.records import Read

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
