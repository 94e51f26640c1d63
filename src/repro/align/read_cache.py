"""Per-rank cache of read sequences and their 2-bit encodings.

The alignment stage fetches every non-local read its tasks touch and then
encodes each read before extension.  Tasks share reads heavily (a read that
overlaps many others appears in many tasks), so both the fetched sequence
and its encoded buffer are worth caching per rank:

* ``put`` holds local sequences keyed by RID, and :meth:`missing` filters
  cached RIDs out of a fetch, so a RID already cached is never re-requested
  from its owner rank;
* ``put_packed`` inserts a read straight off the 2-bit packed wire format
  (see :mod:`repro.seq.packing`) **without** materialising its ASCII string —
  the packed buffer is unpacked into a code array on first use, and nothing
  decodes it back to text;
* each read's forward uint8 code array is memoised, so repeated tasks and
  calls against the same read reuse one buffer instead of re-encoding;
  :meth:`code_arena` gathers a call's reads into one flat arena the x-drop
  kernel reads in place.  A cross-strand task reads the reverse complement
  straight off the forward codes (backwards, complemented), so no
  reverse-complement buffer is ever built.

Hit/miss counters cover the per-task lookups, one per task side: the first
use of a (RID, orientation) in the cache's life is a miss, every later one a
hit.  A forward lookup of a read whose codes were already present (derived
by a reverse lookup earlier in task order, or while serving the read to a
peer) is a hit too.  ``fetch_hits`` counts remote fetches avoided because
the sequence was already present.  The pipeline surfaces all three in the
run's counters.

The cache has no byte bound.  A one-shot run's cache lives for that run; a
serve rank's cache lives beside its resident index and holds at most the
index reads plus one query batch, because each batch evicts the previous
batch's query RIDs on entry (:meth:`evict_rids_at_or_above`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.seq.encoding import encode_sequence
from repro.seq.packing import unpack_codes

__all__ = ["ReadCache"]


@dataclass
class _Entry:
    """One cached read: at least one of ``sequence``/``codes``/``packed`` set.

    ``sequence`` is ``None`` for reads that arrived 2-bit packed (unless a
    matching :meth:`ReadCache.put` later supplied it); ``packed`` holds the
    undecoded wire bytes until the first encoded-buffer access unpacks (and
    then drops) them.
    """

    sequence: str | None = None
    codes: np.ndarray | None = None
    packed: np.ndarray | None = None
    length: int = -1
    #: A reverse-orientation lookup has counted this read's miss.
    reverse_seen: bool = False

    def n_bases(self) -> int:
        if self.sequence is not None:
            return len(self.sequence)
        if self.codes is not None:
            return int(self.codes.size)
        return self.length


@dataclass
class ReadCache:
    """RID-keyed cache of sequences and encoded buffers with hit accounting.

    Attributes
    ----------
    hits / misses:
        Per-task code lookups (one per task side) served from the cache, or
        first uses of a (RID, orientation) — see :meth:`code_arena`.
    fetch_hits:
        Remote fetches avoided because :meth:`missing` found the sequence
        already cached (nonzero from the second query batch over a resident
        index on).
    """

    _entries: dict[int, _Entry] = field(default_factory=dict)
    hits: int = 0
    misses: int = 0
    fetch_hits: int = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, rid: int) -> bool:
        return rid in self._entries

    # -- sequence level ------------------------------------------------------

    def put(self, rid: int, sequence: str) -> None:
        """Insert (or refresh) the sequence of *rid*.

        A changed sequence drops the stale entry (and its encodings); a
        matching one is a no-op, so repeated puts keep the memoised buffers.
        An entry that arrived packed and matches *sequence* simply gains the
        memoised string.
        """
        entry = self._entries.get(rid)
        if entry is None:
            self._entries[int(rid)] = _Entry(sequence=sequence)
            return
        if entry.sequence is None:
            # Packed entry: compare in code space (cheaper than decoding and
            # avoids materialising a throwaway string on mismatch).
            if (entry.n_bases() == len(sequence)
                    and np.array_equal(self._codes_of(entry), encode_sequence(sequence))):
                entry.sequence = sequence
            else:
                self._entries[int(rid)] = _Entry(sequence=sequence)
        elif entry.sequence != sequence:
            self._entries[int(rid)] = _Entry(sequence=sequence)

    def put_packed(self, rid: int, packed: np.ndarray, length: int) -> None:
        """Insert *rid* straight off the 2-bit packed wire format.

        Parameters
        ----------
        packed:
            The read's packed bytes (a :meth:`PackedReadBlock.packed_slice`).
            Kept as-is; unpacked lazily on the first encoded-buffer access.
        length:
            The read's base count (trailing pad bits are not data).

        An already-cached RID is left untouched — read sequences are
        immutable within a data-set generation, so the existing entry (and
        its memoised encodings) wins.
        """
        if rid in self._entries:
            return
        self._entries[int(rid)] = _Entry(packed=np.asarray(packed, dtype=np.uint8),
                                         length=int(length))

    def missing(self, rids: np.ndarray) -> np.ndarray:
        """The subset of *rids* not yet cached (the reads still to fetch).

        RIDs filtered out here count as ``fetch_hits`` — remote fetches the
        cache made unnecessary.
        """
        rids = np.asarray(rids, dtype=np.int64)
        if rids.size == 0 or not self._entries:
            return rids
        cached = np.fromiter(self._entries.keys(), dtype=np.int64, count=len(self._entries))
        present = np.isin(rids, cached)
        self.fetch_hits += int(present.sum())
        return rids[~present]

    def bases_cached(self, rids: np.ndarray) -> int:
        """Total bases of the given cached RIDs (absent RIDs contribute 0).

        Computed without decoding packed entries; used by the pipeline's
        memory accounting to measure exactly the reads a task set touches,
        independent of whatever else (served reads, previous pooled runs)
        the cache happens to hold.
        """
        return sum(entry.n_bases()
                   for rid in np.asarray(rids, dtype=np.int64).tolist()
                   if (entry := self._entries.get(rid)) is not None)

    def evict_rids_at_or_above(self, min_rid: int) -> int:
        """Drop every entry with RID ``>= min_rid``; returns the count dropped.

        The serve phase's correctness eviction: query RIDs are reused by
        every batch (``n_index + position``), and :meth:`put_packed` keeps
        existing entries, so yesterday's query read must leave the resident
        cache before today's batch reuses its RID.
        """
        stale = [rid for rid in self._entries if rid >= min_rid]
        for rid in stale:
            del self._entries[rid]
        return len(stale)

    # -- encoded level -------------------------------------------------------

    def _codes_of(self, entry: _Entry) -> np.ndarray:
        """The entry's forward code array, unpacking/encoding it on first use."""
        if entry.codes is None:
            if entry.packed is not None:
                entry.codes = unpack_codes(entry.packed, entry.length)
                entry.packed = None  # the codes supersede the wire bytes
            else:
                entry.codes = encode_sequence(entry.sequence)
        return entry.codes

    def code_arena(
        self, lookups: np.ndarray, forward: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Gather the forward codes of every read *lookups* names into one arena.

        Parameters
        ----------
        lookups:
            The RID of each task-side lookup, in task order.
        forward:
            Per lookup, True for the read's forward orientation and False
            for its reverse complement.

        Returns ``(rids, arena, offsets)``: the sorted unique RIDs, their
        codes concatenated into one flat uint8 array, and ``len(rids) + 1``
        offsets into it.  Each read is encoded (or unpacked) at most once in
        the cache's life.  The lookups are counted as one lookup each: the
        first use of a (RID, orientation) is a miss, except a forward one
        whose codes were already present when it came — derived by an
        earlier reverse lookup, by serving the read or by a previous call.
        """
        rids, inverse = np.unique(lookups, return_inverse=True)
        entries = [self._entries[rid] for rid in rids.tolist()]
        fresh = np.fromiter((entry.codes is None for entry in entries),
                            dtype=bool, count=len(entries))
        reverse_seen = np.fromiter((entry.reverse_seen for entry in entries),
                                   dtype=bool, count=len(entries))
        codes = [self._codes_of(entry) for entry in entries]

        def first_use(mask: np.ndarray) -> np.ndarray:
            """Per RID, the position of its first lookup under *mask* (or
            ``lookups.size`` when it has none)."""
            position = np.flatnonzero(mask)
            first = np.full(rids.size, lookups.size)
            used, at = np.unique(inverse[position], return_index=True)
            first[used] = position[at]
            return first

        first_forward, first_reverse = first_use(forward), first_use(~forward)
        reverse_used = first_reverse < lookups.size
        misses = int((reverse_used & ~reverse_seen).sum()
                     + (fresh & (first_forward < first_reverse)).sum())
        self.misses += misses
        self.hits += int(lookups.size) - misses
        for index in np.flatnonzero(reverse_used).tolist():
            entries[index].reverse_seen = True

        offsets = np.zeros(rids.size + 1, dtype=np.int64)
        np.cumsum([c.size for c in codes], out=offsets[1:])
        return rids, np.concatenate(codes), offsets

    def encoded_peek(self, rid: int) -> np.ndarray:
        """Forward encoding without touching the hit/miss counters."""
        return self._codes_of(self._entries[rid])

    # -- reporting -----------------------------------------------------------

    def counters(self) -> dict[str, int]:
        """Counter snapshot in the pipeline's counter-dict convention."""
        return {
            "read_cache_hits": self.hits,
            "read_cache_misses": self.misses,
            "read_cache_fetch_hits": self.fetch_hits,
        }
