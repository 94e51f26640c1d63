"""2-bit packed wire codec for read-sequence blocks.

The alignment stage ships every fetched read across the network; with the
ASCII representation each base costs one byte.  The paper's cost model makes
that phase's exchange volume a first-order term at scale, and §3 notes that
"each k-mer character from the four letter alphabet {A,C,T,G} can be
represented with 2 bits" — the same observation minimap2 exploits for its
hot paths.  This module packs base codes four-to-a-byte so a read block
crosses the wire (and the shared-memory segments of the process backend) at
~1/4 of its ASCII size.  It has two parts:

* :class:`PackedReadBlock` / :func:`pack_read_block` — the alignment-stage
  *wire format*: many reads packed into one contiguous buffer, each read
  starting on a byte boundary, with RIDs and per-read base lengths carried
  in typed side arrays (the headers of the framing described in
  ``docs/wire-format.md``).  Each read is a ``uint8`` 2-bit code array
  (``A=0, C=1, G=2, T=3``, see :mod:`repro.seq.alphabet`); base ``j`` of a
  read occupies bits ``2*(j % 4) .. 2*(j % 4) + 1`` of the read's byte
  ``j // 4`` (little-endian within the byte), and the read's final byte's
  unused high bits are zero.
* :func:`unpack_codes` — turns one read's packed bytes back into its code
  array.

Ambiguous bases (``N``) never reach this codec: readers sanitise on ingest
(:func:`repro.seq.alphabet.sanitize`), and any code outside ``[0, 3]``
raises ``ValueError`` here rather than silently corrupting a neighbour's
bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "unpack_codes",
    "packed_length",
    "PackedReadBlock",
    "pack_read_block",
]

#: Bases per packed byte.
BASES_PER_BYTE: int = 4

#: Bit shift of base ``j % 4`` within its byte.
_SHIFTS = np.arange(BASES_PER_BYTE, dtype=np.uint8) * np.uint8(2)


def packed_length(n_bases: int) -> int:
    """Bytes needed to store *n_bases* bases at four bases per byte.

    Parameters
    ----------
    n_bases:
        Number of bases (``>= 0``).

    Returns
    -------
    int
        ``ceil(n_bases / 4)``.
    """
    if n_bases < 0:
        raise ValueError(f"n_bases must be >= 0, got {n_bases}")
    return (n_bases + BASES_PER_BYTE - 1) // BASES_PER_BYTE


def unpack_codes(packed: np.ndarray, n_bases: int) -> np.ndarray:
    """Unpack one read's 2-bit packed bytes into its base codes.

    Parameters
    ----------
    packed:
        ``uint8`` buffer holding one read's packed bases (a slice of a
        :class:`PackedReadBlock` payload).
    n_bases:
        Original base count; trailing pad bits of the final byte are
        discarded.

    Returns
    -------
    numpy.ndarray
        ``uint8`` array of *n_bases* codes in ``[0, 3]``.
    """
    packed = np.ascontiguousarray(packed, dtype=np.uint8)
    if n_bases < 0:
        raise ValueError(f"n_bases must be >= 0, got {n_bases}")
    if packed.size < packed_length(n_bases):
        raise ValueError(
            f"packed buffer of {packed.size} bytes is too short for "
            f"{n_bases} bases ({packed_length(n_bases)} bytes needed)"
        )
    if n_bases == 0:
        return np.empty(0, dtype=np.uint8)
    expanded = (packed[: packed_length(n_bases), None] >> _SHIFTS) & np.uint8(3)
    return expanded.reshape(-1)[:n_bases]


@dataclass(frozen=True)
class PackedReadBlock:
    """A block of reads in the 2-bit packed wire format.

    This is the payload type the alignment stage's read exchange ships.  It
    crosses the typed collectives protocol natively (tag ``R``, see
    :mod:`repro.mpisim.serialization` and ``docs/wire-format.md``); the
    thread backend passes the (immutable) object by reference.

    Attributes
    ----------
    rids:
        ``(n_reads,) int64`` — read identifier of each read in the block.
    lengths:
        ``(n_reads,) int64`` — base count of each read; together with the
        byte-boundary rule this fully determines each read's slice of
        ``packed``.
    packed:
        ``(total_bytes,) uint8`` — the concatenated per-read 2-bit payloads.
        Read ``i`` occupies ``packed[byte_offsets[i] : byte_offsets[i+1]]``
        and every read starts on a byte boundary (``ceil(length / 4)`` bytes
        per read).
    """

    rids: np.ndarray
    lengths: np.ndarray
    packed: np.ndarray

    def __post_init__(self) -> None:
        if self.rids.size != self.lengths.size:
            raise ValueError("rids and lengths must have the same length")
        expected = int(np.sum((self.lengths + 3) // 4)) if self.lengths.size else 0
        if int(self.packed.size) != expected:
            raise ValueError(
                f"packed buffer has {self.packed.size} bytes, lengths imply {expected}"
            )

    @property
    def n_reads(self) -> int:
        """Number of reads in the block."""
        return int(self.rids.size)

    @cached_property
    def byte_offsets(self) -> np.ndarray:
        """``(n_reads + 1,) int64`` byte offset of each read within ``packed``."""
        per_read = (np.asarray(self.lengths, dtype=np.int64) + 3) // 4
        return np.concatenate(([0], np.cumsum(per_read))).astype(np.int64)

    @property
    def raw_nbytes(self) -> int:
        """ASCII-equivalent payload size: one byte per base."""
        return int(self.lengths.sum()) if self.lengths.size else 0

    @property
    def wire_nbytes(self) -> int:
        """Wire footprint of the block (headers + packed payload)."""
        return int(self.rids.nbytes + self.lengths.nbytes + self.packed.nbytes + 16)

    def codes(self, index: int) -> np.ndarray:
        """Unpack read *index* into a ``uint8`` 2-bit code array."""
        return unpack_codes(self.packed_slice(index), int(self.lengths[index]))

    def packed_slice(self, index: int) -> np.ndarray:
        """Read *index*'s packed bytes (a view; no unpacking performed)."""
        lo, hi = int(self.byte_offsets[index]), int(self.byte_offsets[index + 1])
        return self.packed[lo:hi]

    @classmethod
    def empty(cls) -> "PackedReadBlock":
        """A block with no reads (the padding payload of an exchange)."""
        z = np.empty(0, dtype=np.int64)
        return cls(rids=z, lengths=z.copy(), packed=np.empty(0, dtype=np.uint8))


def pack_read_block(rids: np.ndarray, code_arrays: list[np.ndarray]) -> PackedReadBlock:
    """Pack per-read 2-bit code arrays into one :class:`PackedReadBlock`.

    Parameters
    ----------
    rids:
        Read identifier of each entry of *code_arrays* (same order).
    code_arrays:
        One ``uint8`` code array per read (e.g. views of a read set's code
        arena, :meth:`repro.seq.records.ReadSet.codes`); every array is
        packed independently so each read starts on a byte boundary.

    Returns
    -------
    PackedReadBlock
        The block ready to cross the wire.
    """
    rids = np.asarray(rids, dtype=np.int64)
    if rids.size != len(code_arrays):
        raise ValueError(
            f"{rids.size} rids for {len(code_arrays)} code arrays"
        )
    if rids.size == 0:
        return PackedReadBlock.empty()
    lengths = np.fromiter((arr.size for arr in code_arrays), dtype=np.int64,
                          count=len(code_arrays))
    codes_all = (np.concatenate(code_arrays) if int(lengths.sum())
                 else np.empty(0, dtype=np.uint8))
    if codes_all.size and (codes_all.min() < 0 or codes_all.max() > 3):
        raise ValueError("base codes must be in [0, 3]; sanitise reads on ingest")
    # Scatter every read's codes into one zero-padded lane buffer where each
    # read starts on a 4-base (1-byte) boundary, then fold the four lanes of
    # each byte in one shot — the whole block packs without a per-read loop.
    per_read_bytes = (lengths + 3) // 4
    padded = np.zeros(int(per_read_bytes.sum()) * BASES_PER_BYTE, dtype=np.uint8)
    base_starts = np.concatenate(([0], np.cumsum(lengths)))[:-1]
    padded_starts = np.concatenate(([0], np.cumsum(per_read_bytes * BASES_PER_BYTE)))[:-1]
    within = np.arange(int(lengths.sum()), dtype=np.int64) - np.repeat(base_starts, lengths)
    padded[np.repeat(padded_starts, lengths) + within] = codes_all
    lanes = padded.reshape(-1, BASES_PER_BYTE) << _SHIFTS
    packed = np.bitwise_or.reduce(lanes, axis=1).astype(np.uint8)
    return PackedReadBlock(rids=rids, lengths=lengths, packed=packed)
