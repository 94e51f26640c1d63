"""Read and read-set containers.

A :class:`Read` is a named long-read sequence (optionally with per-base
quality and with ground-truth provenance when it came from the synthetic
read simulator).  A :class:`ReadSet` is an ordered collection of reads with
stable integer read identifiers (RIDs) — the identifiers that flow through
the distributed hash table and the overlap stage in place of the sequences
themselves (§4 of the paper: "reads (represented by identifiers) as
vertices").

A read set holds its bases once, as 2-bit codes (§3: ``A=0, C=1, G=2,
T=3``, one code per byte) in one read-only arena, checked when the set is
built; every pipeline stage reads that arena.  :class:`Read` objects are
decoded from it on access.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.seq.alphabet import ascii_to_code_table
from repro.seq.encoding import decode_sequence


@dataclass
class Read:
    """A single (long) read.

    Attributes
    ----------
    name:
        Read name, unique within a data set (FASTQ header without ``@``).
    sequence:
        The base string (upper-case ACGT after sanitising).
    quality:
        Optional FASTQ quality string, same length as ``sequence``.
    true_start / true_end / true_strand:
        Ground-truth mapping of the read onto the reference genome it was
        simulated from (half-open interval); ``None`` for real data.  These
        fields power the overlap oracle used by correctness tests and the
        recall statistics in the experiment harness.
    """

    name: str
    sequence: str
    quality: str | None = None
    true_start: int | None = None
    true_end: int | None = None
    true_strand: int = 1

    def __post_init__(self) -> None:
        if self.quality is not None and len(self.quality) != len(self.sequence):
            raise ValueError(
                f"quality length {len(self.quality)} != sequence length {len(self.sequence)}"
            )

    def __len__(self) -> int:
        return len(self.sequence)

    @property
    def nbytes(self) -> int:
        """In-memory size of the sequence payload (1 byte per base)."""
        return len(self.sequence)

    def has_truth(self) -> bool:
        """True if the read carries ground-truth genome coordinates."""
        return self.true_start is not None and self.true_end is not None


#: Reads encoded per text join when a set is built.
_ENCODE_CHUNK = 64


class ReadSet:
    """An immutable, ordered collection of reads addressed by integer RID.

    RIDs are assigned in order starting at 0.  The set holds the read names,
    one read-only ``uint8`` arena of base codes with ``int64`` offsets (read
    ``rid`` is ``arena[offsets[rid]:offsets[rid + 1]]``), and the quality and
    ground-truth columns.  Construction checks the alphabet (``ACGTacgt``;
    lower case reads back upper case) and name uniqueness, so every read set
    that exists is valid.  ``readset[rid]`` and iteration yield :class:`Read`
    objects decoded from the arena.
    """

    def __init__(self, reads: Iterable[Read] = ()) -> None:
        reads = list(reads)
        sequences = [read.sequence for read in reads]
        lengths = np.fromiter(map(len, sequences), dtype=np.int64, count=len(reads))
        offsets = np.zeros(len(reads) + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        arena = np.empty(int(offsets[-1]), dtype=np.uint8)
        table = ascii_to_code_table().tobytes()
        for lo in range(0, len(reads), _ENCODE_CHUNK):
            # A chunk at a time, so no whole-set text copy is ever held;
            # "replace" keeps one byte per character, so positions line up.
            hi = min(lo + _ENCODE_CHUNK, len(reads))
            raw = "".join(sequences[lo:hi]).encode("ascii", "replace").translate(table)
            arena[offsets[lo]:offsets[hi]] = np.frombuffer(raw, dtype=np.uint8)
        if arena.max(initial=0) > 3:
            at = int(np.argmax(arena > 3))
            rid = int(np.searchsorted(offsets, at, side="right")) - 1
            position = at - int(offsets[rid])
            raise ValueError(
                f"read {reads[rid].name!r} has an invalid DNA character "
                f"{sequences[rid][position]!r} at position {position}")
        self._set_columns([read.name for read in reads], arena, offsets,
                          [read.quality for read in reads],
                          [(read.true_start, read.true_end, read.true_strand)
                           for read in reads])

    def _set_columns(self, names: list[str], arena: np.ndarray, offsets: np.ndarray,
                     quality: list[str | None],
                     truth: list[tuple[int | None, int | None, int]]) -> None:
        if len(set(names)) != len(names):
            raise ValueError("read names must be unique within a ReadSet")
        arena.flags.writeable = False
        offsets.flags.writeable = False
        self._names, self._arena, self._offsets = names, arena, offsets
        self._quality, self._truth = quality, truth
        self._fingerprint: str | None = None

    @classmethod
    def _from_columns(cls, *columns) -> "ReadSet":
        readset = cls.__new__(cls)
        readset._set_columns(*columns)
        return readset

    def __reduce__(self):
        # Pickles as its columns, restored read-only without a re-check.
        return (ReadSet._from_columns, (self._names, self._arena, self._offsets,
                                        self._quality, self._truth))

    @classmethod
    def concat(cls, sets: Sequence["ReadSet"]) -> "ReadSet":
        """The reads of *sets* in order, renumbered from 0 (names must stay
        unique across the sets)."""
        starts = np.cumsum([0] + [s._offsets[-1] for s in sets[:-1]])
        offsets = np.concatenate([np.zeros(1, dtype=np.int64)]
                                 + [s._offsets[1:] + start for s, start in zip(sets, starts)])
        return cls._from_columns(
            [name for s in sets for name in s._names],
            np.concatenate([np.empty(0, dtype=np.uint8)] + [s._arena for s in sets]),
            offsets,
            [q for s in sets for q in s._quality],
            [t for s in sets for t in s._truth])

    def renamed(self, prefix: str) -> "ReadSet":
        """The same reads with *prefix* before every name (the arena is shared)."""
        return ReadSet._from_columns([prefix + name for name in self._names], self._arena,
                                     self._offsets, self._quality, self._truth)

    # -- container protocol -------------------------------------------------

    def __len__(self) -> int:
        return len(self._names)

    def __iter__(self) -> Iterator[Read]:
        return map(self.__getitem__, range(len(self)))

    def __getitem__(self, rid: int) -> Read:
        rid = range(len(self))[rid]
        return Read(self._names[rid], decode_sequence(self.codes(rid)), self._quality[rid],
                    *self._truth[rid])

    # -- the code arena ------------------------------------------------------

    def codes(self, rid: int) -> np.ndarray:
        """Read *rid*'s base codes (a read-only view of the arena)."""
        return self._arena[self._offsets[rid]:self._offsets[rid + 1]]

    def span(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """The codes of reads ``lo .. hi - 1`` (one arena view) and their lengths."""
        return (self._arena[self._offsets[lo]:self._offsets[hi]],
                np.diff(self._offsets[lo:hi + 1]))

    # -- aggregate statistics ------------------------------------------------

    @property
    def total_bases(self) -> int:
        """Total number of bases across all reads (N = G * d in the paper)."""
        return int(self._offsets[-1])

    @property
    def mean_read_length(self) -> float:
        """Average read length L; 0.0 for an empty set."""
        if not len(self):
            return 0.0
        return self.total_bases / len(self)

    def read_lengths(self) -> np.ndarray:
        """Array of read lengths in RID order."""
        return np.diff(self._offsets)

    def total_kmers(self, k: int) -> int:
        """Total number of k-mers parsed from the set (sum of L_i - k + 1)."""
        lengths = self.read_lengths()
        return int(np.maximum(lengths - k + 1, 0).sum())

    def subset(self, rids: Sequence[int]) -> "ReadSet":
        """Return a new ReadSet containing the given RIDs (re-numbered)."""
        return ReadSet(self[r] for r in rids)

    def names(self) -> list[str]:
        """Read names in RID order."""
        return list(self._names)

    def fingerprint(self) -> str:
        """Content digest of the set: names, offsets and codes in RID order.

        The read-set part of the resident-index generation tag
        (:meth:`~repro.core.pipeline.DibellaPipeline.build_index`): a rank
        reuses its resident index, index reads and read cache only when the
        index read sets hash identically, so a rank reused for a different
        data set can never serve a stale index or sequence.  One blake2b
        over the columns, memoised (the set is immutable).
        """
        if self._fingerprint is None:
            names = [name.encode("utf-8", "surrogateescape") for name in self._names]
            digest = hashlib.blake2b(digest_size=16)
            digest.update(np.fromiter(map(len, names), dtype=np.int64,
                                      count=len(names)).tobytes())
            digest.update(b"".join(names))
            digest.update(self._offsets.tobytes())
            digest.update(self._arena)
            self._fingerprint = digest.hexdigest()
        return self._fingerprint

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ReadSet(n_reads={len(self)}, total_bases={self.total_bases}, "
            f"mean_length={self.mean_read_length:.1f})"
        )
