"""Sequence substrate: DNA alphabet, 2-bit encoding, k-mers, and read containers.

This subpackage provides the low-level building blocks that the rest of the
diBELLA pipeline is built on:

* :mod:`repro.seq.alphabet` — the DNA alphabet, validation, complement and
  reverse-complement operations.
* :mod:`repro.seq.encoding` — vectorised 2-bit encoding of DNA into numpy
  code arrays (the representation used for k-mer codes, see §3 of the
  paper: "Each k-mer character from the four letter alphabet {A,C,T,G} can be
  represented with 2 bits").
* :mod:`repro.seq.packing` — the 2-bit packed wire codec (4 bases/byte) and
  the :class:`PackedReadBlock` format the alignment-stage read exchange
  ships (see ``docs/wire-format.md``).
* :mod:`repro.seq.kmer` — k-mer extraction, canonicalisation and 64-bit k-mer
  codes, including the vectorised batch extraction used by the pipeline
  (forward and reverse-complement codes built together by doubling).
* :mod:`repro.seq.records` — :class:`Read` and :class:`ReadSet` containers.
"""

from repro.seq.alphabet import (
    DNA_ALPHABET,
    BASE_TO_CODE,
    CODE_TO_BASE,
    complement,
    reverse_complement,
    is_valid_dna,
    sanitize,
)
from repro.seq.encoding import (
    encode_sequence,
    decode_sequence,
)
from repro.seq.packing import (
    PackedReadBlock,
    pack_read_block,
    packed_length,
    unpack_codes,
)
from repro.seq.kmer import (
    KmerSpec,
    extract_kmer_codes,
    extract_kmers_with_strand,
    canonicalize_codes,
    reverse_complement_code,
)
from repro.seq.records import Read, ReadSet

__all__ = [
    "DNA_ALPHABET",
    "BASE_TO_CODE",
    "CODE_TO_BASE",
    "complement",
    "reverse_complement",
    "is_valid_dna",
    "sanitize",
    "encode_sequence",
    "decode_sequence",
    "PackedReadBlock",
    "unpack_codes",
    "packed_length",
    "pack_read_block",
    "KmerSpec",
    "extract_kmer_codes",
    "extract_kmers_with_strand",
    "canonicalize_codes",
    "reverse_complement_code",
    "Read",
    "ReadSet",
]
