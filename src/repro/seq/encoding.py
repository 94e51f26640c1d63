"""Vectorised 2-bit encoding of DNA sequences.

The paper (§3) notes that each base of the {A,C,G,T} alphabet is representable
in 2 bits and that diBELLA chooses a compile-time k-mer width rounded up to a
power of two (typically 32 or 64 bits).  Here sequences are encoded to
``uint8`` code arrays (one code per base) for general manipulation; the
packed form, four codes to a byte, is the wire codec in
:mod:`repro.seq.packing`.
"""

from __future__ import annotations

import numpy as np

from repro.seq.alphabet import CODE_TO_BASE, ascii_to_code_table

#: ``bytes.translate`` table from a code byte to its upper-case base.
_CODE_TO_ASCII = bytes.maketrans(bytes(range(4)),
                                 "".join(CODE_TO_BASE[i] for i in range(4)).encode("ascii"))


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


def decode_sequence(codes: np.ndarray) -> str:
    """Decode a ``uint8`` array of 2-bit codes back into a DNA string."""
    codes = np.asarray(codes, dtype=np.uint8)
    if codes.size == 0:
        return ""
    if codes.max(initial=0) > 3:
        raise ValueError("codes must be in [0, 3]")
    return codes.tobytes().translate(_CODE_TO_ASCII).decode("ascii")
