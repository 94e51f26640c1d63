"""Per-rank cache of the reads the alignment stage touches, as code arrays.

The alignment stage fetches every non-local read its tasks touch.  Tasks
share reads heavily (a read that overlaps many others appears in many
tasks), so the reads are worth caching per rank.  Every entry is the read's
forward ``uint8`` 2-bit code array:

* a local read is a view of the rank's read-set arena (:meth:`put`);
* a fetched read is unpacked from its :class:`~repro.seq.packing.PackedReadBlock`
  on arrival (:meth:`put` again);
* :meth:`missing` filters cached RIDs out of a fetch, so a RID already
  cached is never re-requested from its owner rank;
* :meth:`code_arena` gathers a call's reads into one flat arena the x-drop
  kernel reads in place.  A cross-strand task reads the reverse complement
  straight off the forward codes (backwards, complemented), so no
  reverse-complement buffer is ever built.

Hit/miss counters cover the per-task lookups, one per task side: the first
use of a (RID, orientation) in the cache's life is a miss, every later one a
hit.  A forward lookup of a read already used (looked up in reverse earlier
in task order, served to a peer through :meth:`serve`, or looked up by a
previous call) is a hit too.  ``fetch_hits`` counts remote fetches avoided
because the read was already present.  The pipeline surfaces all three in
the run's counters.

The cache has no byte bound.  A one-shot run's cache lives for that run; a
serve rank's cache lives beside its resident index and holds at most the
index reads plus one query batch, because each batch evicts the previous
batch's query RIDs on entry (:meth:`evict_rids_at_or_above`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["ReadCache"]


@dataclass
class _Entry:
    """One cached read: its forward codes and how it has been used."""

    codes: np.ndarray
    #: Looked up by a task or served to a peer.
    used: bool = False
    #: A reverse-orientation lookup has counted this read's miss.
    reverse_seen: bool = False


@dataclass
class ReadCache:
    """RID-keyed cache of read code arrays with hit accounting.

    Attributes
    ----------
    hits / misses:
        Per-task code lookups (one per task side) served from the cache, or
        first uses of a (RID, orientation) — see :meth:`code_arena`.
    fetch_hits:
        Remote fetches avoided because :meth:`missing` found the read
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

    def put(self, rid: int, codes: np.ndarray) -> None:
        """Cache *rid*'s forward codes unless *rid* is cached already.

        Read sequences are immutable within a data-set generation (a serve
        rank evicts the reused query RIDs first), so an existing entry wins.
        """
        if rid not in self._entries:
            self._entries[int(rid)] = _Entry(codes)

    def serve(self, rid: int, codes: np.ndarray) -> np.ndarray:
        """:meth:`put` local read *rid* and return its cached codes for a
        peer; a served read counts as used, so its first forward lookup hits."""
        self.put(rid, codes)
        entry = self._entries[rid]
        entry.used = True
        return entry.codes

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

    def evict_rids_at_or_above(self, min_rid: int) -> int:
        """Drop every entry with RID ``>= min_rid``; returns the count dropped.

        The serve phase's correctness eviction: query RIDs are reused by
        every batch (``n_index + position``), and :meth:`put` keeps existing
        entries, so yesterday's query read must leave the resident
        cache before today's batch reuses its RID.
        """
        stale = [rid for rid in self._entries if rid >= min_rid]
        for rid in stale:
            del self._entries[rid]
        return len(stale)

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
        offsets into it.  The lookups are counted as one lookup each: the
        first use of a (RID, orientation) is a miss, except a forward one of
        a read already used when it came — by an earlier reverse lookup, by
        serving the read or by a previous call.
        """
        rids, inverse = np.unique(lookups, return_inverse=True)
        entries = [self._entries[rid] for rid in rids.tolist()]
        fresh = np.fromiter((not entry.used for entry in entries),
                            dtype=bool, count=len(entries))
        reverse_seen = np.fromiter((entry.reverse_seen for entry in entries),
                                   dtype=bool, count=len(entries))

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
        for entry, reverse in zip(entries, reverse_used.tolist()):
            entry.used = True
            entry.reverse_seen |= reverse

        codes = [entry.codes for entry in entries]
        offsets = np.zeros(rids.size + 1, dtype=np.int64)
        np.cumsum([c.size for c in codes], out=offsets[1:])
        return rids, np.concatenate(codes), offsets

    # -- reporting -----------------------------------------------------------

    def counters(self) -> dict[str, int]:
        """Counter snapshot in the pipeline's counter-dict convention."""
        return {
            "read_cache_hits": self.hits,
            "read_cache_misses": self.misses,
            "read_cache_fetch_hits": self.fetch_hits,
        }
