"""Per-rank partition of the distributed k-mer occurrence hash table.

Stage 2 of diBELLA builds, on every rank, a hash table mapping each owned
k-mer to "the lists of all read ID (RID) and locations at which they
appeared" (§7).  The partition is populated in two passes that mirror the
pipeline exactly:

1. During the Bloom-filter stage, k-mers that the filter reports as already
   seen are registered as *candidate keys* (``add_candidate_keys``).
2. During the hash-table stage, every (k-mer, RID, position) occurrence whose
   k-mer is a registered key is appended (``add_occurrences``); everything
   else — the singletons correctly rejected by the Bloom filter — is dropped
   without being stored.
3. ``finalize`` removes false-positive singletons and k-mers above the
   high-frequency threshold m, leaving the *retained* k-mers and their
   occurrence lists, grouped and ready for the overlap stage.

The implementation is array-based rather than a Python dict: occurrences are
buffered as flat numpy arrays and grouped once at finalisation with a single
sort, which keeps the per-k-mer Python overhead out of the hot path.  The
serve phase's :class:`ShardedKmerIndex` is built the same way, once: one
sort of packed 64-bit occurrence keys (a 4-key ``lexsort`` when the fields
do not fit a word), with the code-range shards cut from the sorted array.

Finalisation comes in two flavours: :meth:`KmerHashTablePartition.finalize`
groups the whole partition at once, and
:meth:`KmerHashTablePartition.finalize_shards` streams the partition one
**k-mer code range** at a time (boundaries from
:func:`shard_code_boundaries`), releasing each shard's buffers as it goes —
so peak table memory is bounded by the largest shard rather than the whole
partition, and the overlap stage can generate and exchange a shard's pairs
while later shards are still unbuilt.  Because shards are contiguous,
ascending code ranges and grouping is independent per code, concatenating
the shard results reproduces the monolithic finalise bit for bit.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterator

import numpy as np

#: Bytes one stored occurrence occupies: uint64 code, int64 RID, int64
#: position and a bool strand.
OCCURRENCE_NBYTES = 8 + 8 + 8 + 1


def shard_code_boundaries(k: int, n_shards: int) -> np.ndarray:
    """Interior split points dividing the k-mer code space into *n_shards* ranges.

    Parameters
    ----------
    k:
        k-mer length; codes live in ``[0, 4**k)``.
    n_shards:
        Number of contiguous code ranges wanted (``>= 1``).

    Returns
    -------
    numpy.ndarray
        ``(n_shards - 1,)`` ascending ``uint64`` boundaries; shard ``s``
        covers ``[boundary[s-1], boundary[s])`` (with the implicit outer
        bounds 0 and ``4**k``).  Shard membership of a code array is
        ``np.searchsorted(boundaries, codes, side="right")``.

    Notes
    -----
    The boundaries are a pure function of ``(k, n_shards)`` — every rank
    (and every backend) derives identical shards without communicating.
    """
    if n_shards < 1:
        raise ValueError("n_shards must be >= 1")
    code_space = 4 ** k
    return np.array([(s * code_space) // n_shards for s in range(1, n_shards)],
                    dtype=np.uint64)


@dataclass(frozen=True)
class RetainedKmers:
    """The finalised contents of one hash-table partition.

    Occurrences are stored structure-of-arrays style, sorted by k-mer code,
    with ``offsets`` delimiting each k-mer's group:
    ``rids[offsets[i]:offsets[i+1]]`` are the reads containing ``codes[i]``.
    """

    codes: np.ndarray      # (n_retained,) uint64, ascending
    offsets: np.ndarray    # (n_retained + 1,) int64
    rids: np.ndarray       # (n_occurrences,) int64
    positions: np.ndarray  # (n_occurrences,) int64
    strands: np.ndarray    # (n_occurrences,) bool — True if the occurrence is
                           # the canonical orientation (forward) in its read

    @property
    def n_kmers(self) -> int:
        """Number of retained k-mers in this partition."""
        return int(self.codes.size)

    @property
    def n_occurrences(self) -> int:
        """Total occurrences across all retained k-mers."""
        return int(self.rids.size)

    @property
    def nbytes(self) -> int:
        """Memory footprint of the partition's arrays in bytes."""
        return int(self.codes.nbytes + self.offsets.nbytes + self.rids.nbytes
                   + self.positions.nbytes + self.strands.nbytes)

    def group(self, index: int) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
        """(code, rids, positions, strands) of the *index*-th retained k-mer."""
        lo, hi = int(self.offsets[index]), int(self.offsets[index + 1])
        return (int(self.codes[index]), self.rids[lo:hi], self.positions[lo:hi],
                self.strands[lo:hi])

    def counts(self) -> np.ndarray:
        """Occurrence count of each retained k-mer."""
        return np.diff(self.offsets)

    @classmethod
    def empty(cls) -> "RetainedKmers":
        """An empty partition (rank owns no retained k-mers)."""
        return cls(
            codes=np.empty(0, dtype=np.uint64),
            offsets=np.zeros(1, dtype=np.int64),
            rids=np.empty(0, dtype=np.int64),
            positions=np.empty(0, dtype=np.int64),
            strands=np.empty(0, dtype=bool),
        )


def _validate_count_filters(min_count: int, max_count: int | None) -> None:
    if min_count < 1:
        raise ValueError("min_count must be >= 1")
    if max_count is not None and max_count < min_count:
        raise ValueError("max_count must be >= min_count")


def _count_filter(counts: np.ndarray, min_count: int,
                  max_count: int | None) -> np.ndarray:
    """Mask of the groups whose occurrence count is in ``[min_count, max_count]``."""
    keep = counts >= min_count
    if max_count is not None:
        keep &= counts <= max_count
    return keep


def _group_take(starts: np.ndarray,
                counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Compact the groups ``[starts[i], starts[i] + counts[i])`` back to back.

    Returns the compacted groups' offsets and the source index of every
    occurrence they keep: a segment-wise arange built from repeat/cumsum,
    no per-group loop.
    """
    offsets = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
    if counts.size:
        take = (np.repeat(starts - offsets[:-1], counts)
                + np.arange(int(offsets[-1]), dtype=np.int64))
    else:
        take = np.empty(0, dtype=np.int64)
    return offsets, take


def _take_groups(table: RetainedKmers, groups: np.ndarray) -> RetainedKmers:
    """The groups of *table* at the ascending indices *groups*, compacted."""
    starts = table.offsets[groups]
    offsets, take = _group_take(starts, table.offsets[groups + 1] - starts)
    return RetainedKmers(
        codes=table.codes[groups],
        offsets=offsets,
        rids=table.rids[take],
        positions=table.positions[take],
        strands=table.strands[take],
    )


def _group_starts(sorted_codes: np.ndarray) -> np.ndarray:
    """Where each run of equal codes starts in an ascending code array."""
    return np.flatnonzero(np.concatenate(
        ([sorted_codes.size > 0], sorted_codes[1:] != sorted_codes[:-1])))


def _kept_groups(codes: np.ndarray, rids: np.ndarray, positions: np.ndarray,
                 strands: np.ndarray, order: np.ndarray, keep) -> RetainedKmers:
    """Group occurrences taken in *order* (ascending code) and keep some groups.

    ``keep(counts, order)`` returns the mask of groups to keep, given every
    group's occurrence count.  Only the kept rows are gathered, with no
    per-group Python loop.
    """
    sorted_codes = codes[order]
    starts = _group_starts(sorted_codes)
    counts = np.diff(np.append(starts, sorted_codes.size))
    kept = keep(counts, order)
    offsets, take = _group_take(starts[kept], counts[kept])
    rows = order[take]
    return RetainedKmers(
        codes=sorted_codes[starts[kept]],
        offsets=offsets,
        rids=rids[rows],
        positions=positions[rows],
        strands=strands[rows],
    )


def _finalize_arrays(codes: np.ndarray, rids: np.ndarray, positions: np.ndarray,
                     strands: np.ndarray, min_count: int,
                     max_count: int | None) -> RetainedKmers:
    """Group flat occurrence arrays by k-mer and apply the frequency filters.

    The shared core of :meth:`KmerHashTablePartition.finalize` (whole
    partition) and :meth:`KmerHashTablePartition.finalize_shards` (one code
    range at a time): one stable sort, so each group keeps insertion order.
    """
    return _kept_groups(codes, rids, positions, strands,
                        np.argsort(codes, kind="stable"),
                        lambda counts, _order: _count_filter(counts, min_count, max_count))


class KmerHashTablePartition:
    """One rank's partition of the distributed k-mer occurrence table.

    Attributes
    ----------
    retained_peak_nbytes:
        Size of the largest finalised shard built by the most recent
        :meth:`finalize_shards` sweep (the streamed build's peak
        retained-table memory; 0 before any sweep).
    """

    def __init__(self) -> None:
        self._candidate_batches: list[np.ndarray] = []
        self._keys: np.ndarray | None = None
        self._accept_all: bool = False
        self._occ_codes: list[np.ndarray] = []
        self._occ_rids: list[np.ndarray] = []
        self._occ_positions: list[np.ndarray] = []
        self._occ_strands: list[np.ndarray] = []
        self.retained_peak_nbytes: int = 0

    def accept_all_keys(self) -> None:
        """Treat every k-mer as a registered key (store all occurrences).

        The serve-mode index build uses this instead of the Bloom candidate
        pass: a resident query index must keep singleton occurrences too,
        because an index-side singleton becomes retained the moment a query
        batch contributes the occurrences that lift its union count into the
        reliable range.  The count filters still apply at finalisation /
        query time; only the *storage* gate is lifted.
        """
        self._accept_all = True
        if self._keys is None:
            self._keys = np.empty(0, dtype=np.uint64)

    # -- pass 1: candidate keys from the Bloom filter ---------------------------------

    def add_candidate_keys(self, codes: np.ndarray) -> None:
        """Register k-mers the Bloom filter saw at least twice as table keys."""
        codes = np.asarray(codes, dtype=np.uint64)
        if codes.size:
            self._candidate_batches.append(codes.copy())
            self._keys = None

    def finalize_keys(self) -> int:
        """Deduplicate candidate keys; returns the number of distinct keys."""
        if self._candidate_batches:
            self._keys = np.unique(np.concatenate(self._candidate_batches))
        else:
            self._keys = np.empty(0, dtype=np.uint64)
        self._candidate_batches = []
        return int(self._keys.size)

    @property
    def n_keys(self) -> int:
        """Number of distinct candidate keys (after :meth:`finalize_keys`)."""
        if self._keys is None:
            raise RuntimeError("finalize_keys() has not been called")
        return int(self._keys.size)

    def has_keys(self, codes: np.ndarray) -> np.ndarray:
        """Boolean mask: which of *codes* are registered keys."""
        if self._keys is None:
            raise RuntimeError("finalize_keys() has not been called")
        codes = np.asarray(codes, dtype=np.uint64)
        if self._accept_all:
            return np.ones(codes.size, dtype=bool)
        if self._keys.size == 0:
            return np.zeros(codes.size, dtype=bool)
        idx = np.minimum(np.searchsorted(self._keys, codes), self._keys.size - 1)
        return self._keys[idx] == codes

    # -- pass 2: occurrence insertion ---------------------------------------------------

    def add_occurrences(self, codes: np.ndarray, rids: np.ndarray,
                        positions: np.ndarray,
                        strands: np.ndarray | None = None) -> int:
        """Insert occurrences whose k-mer is a registered key.

        ``strands`` records, per occurrence, whether the canonical k-mer is
        the forward orientation in that read (defaults to all-forward for
        callers that do not track strand).  Returns the number of occurrences
        actually stored (non-key k-mers — singletons filtered by the Bloom
        filter — are dropped).  Under :meth:`accept_all_keys` the arrays are
        buffered without a copy, so the caller must not modify them later.
        """
        codes = np.asarray(codes, dtype=np.uint64)
        rids = np.asarray(rids, dtype=np.int64)
        positions = np.asarray(positions, dtype=np.int64)
        if strands is None:
            strands = np.ones(codes.size, dtype=bool)
        strands = np.asarray(strands, dtype=bool)
        if not (codes.size == rids.size == positions.size == strands.size):
            raise ValueError("codes, rids, positions and strands must have equal length")
        if codes.size == 0:
            return 0
        if not self._accept_all:  # else keep every row, without a copy
            mask = self.has_keys(codes)
            codes, rids, positions, strands = (
                codes[mask], rids[mask], positions[mask], strands[mask])
        if codes.size:
            self._occ_codes.append(codes)
            self._occ_rids.append(rids)
            self._occ_positions.append(positions)
            self._occ_strands.append(strands)
        return int(codes.size)

    # -- finalisation ---------------------------------------------------------------------

    def finalize(self, min_count: int = 2, max_count: int | None = None) -> RetainedKmers:
        """Group occurrences by k-mer and apply the frequency filters.

        ``min_count`` removes false-positive singletons (k-mers the Bloom
        filter wrongly promoted); ``max_count`` is the high-frequency
        threshold m of §2.  A k-mer's *count* here is its number of stored
        occurrences — identical to the count the original implementation
        accumulates in the table.
        """
        _validate_count_filters(min_count, max_count)
        if not self._occ_codes:
            return RetainedKmers.empty()
        return _finalize_arrays(
            *map(np.concatenate, (self._occ_codes, self._occ_rids,
                                  self._occ_positions, self._occ_strands)),
            min_count, max_count)

    def finalize_shards(self, boundaries: np.ndarray, min_count: int = 2,
                        max_count: int | None = None) -> Iterator[RetainedKmers]:
        """Finalise the partition one k-mer code range at a time.

        Parameters
        ----------
        boundaries:
            Ascending interior split points (from
            :func:`shard_code_boundaries`); ``len(boundaries) + 1`` shards
            are yielded, in ascending code order.
        min_count / max_count:
            The reliable-range filters, exactly as in :meth:`finalize`.

        Yields
        ------
        RetainedKmers
            Shard ``s``'s retained k-mers — empty when the rank owns no
            retained k-mer in that range.  Concatenating every shard equals
            the monolithic :meth:`finalize` result bit for bit.

        Notes
        -----
        This generator **consumes** the partition: the buffered occurrence
        batches are re-bucketed per shard up front (releasing the
        originals), and each shard's raw buffers are dropped as soon as its
        ``RetainedKmers`` is built.  Only one shard's sorted/grouped copy is
        therefore ever live, which is the memory bound the streaming
        hash-table stage relies on; :attr:`retained_peak_nbytes` records the
        largest shard built.
        """
        _validate_count_filters(min_count, max_count)
        boundaries = np.asarray(boundaries, dtype=np.uint64)
        n_shards = int(boundaries.size) + 1
        shard_batches: list[list[tuple[np.ndarray, ...]]] = [[] for _ in range(n_shards)]
        while self._occ_codes:
            batch = (self._occ_codes.pop(0), self._occ_rids.pop(0),
                     self._occ_positions.pop(0), self._occ_strands.pop(0))
            shard_of = np.searchsorted(boundaries, batch[0], side="right")
            for shard in np.unique(shard_of):
                mask = shard_of == shard
                shard_batches[shard].append(tuple(column[mask] for column in batch))
        self.retained_peak_nbytes = 0
        for shard in range(n_shards):
            batches = shard_batches[shard]
            shard_batches[shard] = []  # release the raw buffers of this shard
            retained = (_finalize_arrays(*map(np.concatenate, zip(*batches)),
                                         min_count, max_count)
                        if batches else RetainedKmers.empty())
            self.retained_peak_nbytes = max(self.retained_peak_nbytes, retained.nbytes)
            yield retained
            # Drop the generator frame's own reference before the next
            # iteration builds shard s+1 — otherwise shard s would stay
            # reachable through this frame even after the caller released
            # it, and the one-live-shard memory bound would silently be two.
            del retained

    def drain_occurrences(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Concatenate and release the buffered occurrences, in insertion order.

        Used by the serve-mode index build to hand the stage-2 exchange's
        output to a :class:`ShardedKmerIndex` without copying it twice: the
        partition's buffers are cleared, so the raw batches are not retained
        alongside the index.
        """
        columns = tuple(
            np.concatenate(batches) if batches else np.empty(0, dtype=dtype)
            for batches, dtype in ((self._occ_codes, np.uint64), (self._occ_rids, np.int64),
                                   (self._occ_positions, np.int64),
                                   (self._occ_strands, bool)))
        self._occ_codes, self._occ_rids, self._occ_positions, self._occ_strands = (
            [], [], [], [])
        return columns

    # -- introspection ----------------------------------------------------------------------

    @property
    def n_occurrences_buffered(self) -> int:
        """Occurrences currently buffered (before finalisation)."""
        return int(sum(a.size for a in self._occ_codes))

    def memory_nbytes(self) -> int:
        """Approximate memory footprint of the partition's buffers."""
        total = 0
        if self._keys is not None:
            total += self._keys.nbytes
        for batch in self._candidate_batches:
            total += batch.nbytes
        for arrays in (self._occ_codes, self._occ_rids, self._occ_positions,
                       self._occ_strands):
            total += sum(a.nbytes for a in arrays)
        return total


def _packed_field_bits(codes: np.ndarray, rids: np.ndarray,
                       positions: np.ndarray) -> tuple[int, int] | None:
    """``(rid bits, position bits)`` of the packed occurrence key, or None.

    The key packs ``code | rid | position | strand`` from the most
    significant bit down, each field as wide as its largest value; it
    exists only when every field is non-negative and ``bits(max code) +
    bits(max rid) + bits(max position) + 1 <= 64`` (``k = 31`` with
    thousands of reads does not fit).
    """
    code_bits = max(int(codes.max()).bit_length(), 1)
    rid_bits = int(rids.max()).bit_length()
    position_bits = int(positions.max()).bit_length()
    if (code_bits + rid_bits + position_bits + 1 > 64
            or int(rids.min()) < 0 or int(positions.min()) < 0):
        return None
    return rid_bits, position_bits


def _canonical_sort(codes: np.ndarray, rids: np.ndarray, positions: np.ndarray,
                    strands: np.ndarray) -> tuple[np.ndarray, ...]:
    """Sort occurrences into canonical ``(code, rid, position, strand)`` order.

    When the fields fit one word (:func:`_packed_field_bits`), each
    occurrence becomes one ``uint64`` key, the keys get one ``np.sort`` and
    the columns are decoded back from them — the packed hit array minimap
    sorts.  Otherwise a 4-key ``np.lexsort`` gives the same order.  Rows
    equal on every field are indistinguishable, so the result does not
    depend on the input order.
    """
    bits = _packed_field_bits(codes, rids, positions) if codes.size else None
    if bits is None:
        order = np.lexsort((strands, positions, rids, codes))
        return codes[order], rids[order], positions[order], strands[order]

    rid_bits, position_bits = bits
    one = np.uint64(1)
    rid_shift = np.uint64(position_bits + 1)
    code_shift = np.uint64(position_bits + 1 + rid_bits)
    key = codes << code_shift
    for column, shift in ((rids, rid_shift), (positions, one)):
        field = column.astype(np.uint64)
        field <<= shift
        key |= field
    del field
    key |= strands
    key.sort()

    def decode(shift: np.uint64, n_bits: int) -> np.ndarray:
        column = key >> shift
        column &= np.uint64((1 << n_bits) - 1)
        return column.view(np.int64)

    return (key >> code_shift, decode(rid_shift, rid_bits),
            decode(one, position_bits), (key & one).astype(bool))


def _group_table(codes: np.ndarray, rids: np.ndarray, positions: np.ndarray,
                 strands: np.ndarray) -> RetainedKmers:
    """The unfiltered :class:`RetainedKmers` of occurrences sorted by code."""
    starts = _group_starts(codes)
    return RetainedKmers(codes=codes[starts], offsets=np.append(starts, codes.size),
                         rids=rids, positions=positions, strands=strands)


class ShardedKmerIndex:
    """A resident, build-once sharded k-mer occurrence index.

    This is the *serve-phase* counterpart of :class:`KmerHashTablePartition`:
    where the batch pipeline buffers occurrences for one run and consumes
    them shard by shard, this index keeps one rank's occurrences resident —
    split by the same contiguous code ranges (:func:`shard_code_boundaries`)
    — so repeated query batches can probe it without rebuilding anything.

    Invariants:

    * **Canonical storage** — each shard is held as one
      :class:`RetainedKmers` (unfiltered: every stored occurrence) whose
      occurrences are sorted by ``(code, rid, position, strand)``.  Its
      ``codes`` / ``offsets`` are the shard's group table (unique codes,
      group starts, group counts as ``np.diff(offsets)``); no other copy of
      the shard stays resident.  The constructor sorts the whole occurrence
      stream once — one ``np.sort`` of packed 64-bit keys when the fields
      fit a word, a 4-key ``lexsort`` when they do not
      (:func:`_canonical_sort`) — and, shards being code ranges, cuts every
      shard from the one sorted array with a ``searchsorted`` of the
      boundaries.  The index is built once: nothing is inserted later.
      Every view — :meth:`retained`, :meth:`retained_counts`,
      :meth:`merged_shard`, :meth:`digest` — reads the canonical storage, so
      none depends on how the occurrence stream was ordered.
    * **All occurrences kept** — the Bloom candidate gate is not applied
      (see :meth:`KmerHashTablePartition.accept_all_keys`): an index-side
      singleton must stay queryable because a query batch can lift its union
      count into the reliable range.  The ``[min_count, max_count]`` filters
      are applied by the views, never by storage.
    """

    def __init__(self, boundaries: np.ndarray, codes: np.ndarray, rids: np.ndarray,
                 positions: np.ndarray, strands: np.ndarray) -> None:
        self.boundaries = np.asarray(boundaries, dtype=np.uint64)
        self.n_shards = int(self.boundaries.size) + 1
        codes = np.asarray(codes, dtype=np.uint64)
        rids = np.asarray(rids, dtype=np.int64)
        positions = np.asarray(positions, dtype=np.int64)
        strands = np.asarray(strands, dtype=bool)
        if not (codes.size == rids.size == positions.size == strands.size):
            raise ValueError("codes, rids, positions and strands must have equal length")
        self.n_occurrences = int(codes.size)
        columns = _canonical_sort(codes, rids, positions, strands)
        cuts = [0, *np.searchsorted(columns[0], self.boundaries).tolist(),
                self.n_occurrences]
        self._shards = [_group_table(*(column[lo:hi] for column in columns))
                        for lo, hi in zip(cuts[:-1], cuts[1:])]

    @classmethod
    def from_partition(cls, partition: KmerHashTablePartition,
                       boundaries: np.ndarray) -> "ShardedKmerIndex":
        """Build an index by draining a partition's buffered occurrences.

        The partition's raw buffers are consumed (released), so the caller
        holds exactly one copy of the occurrence stream afterwards.
        """
        return cls(boundaries, *partition.drain_occurrences())

    # -- retained views ------------------------------------------------------

    def retained_counts(self, min_count: int = 2,
                        max_count: int | None = None) -> tuple[int, int]:
        """``(k-mers, occurrences)`` retained under the count filters.

        Read from the shards' group counts; nothing is gathered or sorted.
        """
        _validate_count_filters(min_count, max_count)
        n_kmers = n_occurrences = 0
        for stored in self._shards:
            counts = stored.counts()
            kept = counts[_count_filter(counts, min_count, max_count)]
            n_kmers += int(kept.size)
            n_occurrences += int(kept.sum())
        return n_kmers, n_occurrences

    def retained(self, min_count: int = 2,
                 max_count: int | None = None) -> RetainedKmers:
        """The whole index's retained k-mers (all shards, ascending codes).

        The groups and codes are exactly those of a one-shot
        :meth:`KmerHashTablePartition.finalize` over the same occurrences;
        within a group the occurrences are in canonical
        ``(rid, position, strand)`` order rather than insertion order.
        """
        _validate_count_filters(min_count, max_count)
        shards = self._shards
        counts = np.concatenate([stored.counts() for stored in shards])
        whole = RetainedKmers(
            codes=np.concatenate([stored.codes for stored in shards]),
            offsets=np.concatenate(([0], np.cumsum(counts))).astype(np.int64),
            rids=np.concatenate([stored.rids for stored in shards]),
            positions=np.concatenate([stored.positions for stored in shards]),
            strands=np.concatenate([stored.strands for stored in shards]),
        )
        return _take_groups(
            whole, np.flatnonzero(_count_filter(counts, min_count, max_count)))

    def merged_shard(
        self,
        shard: int,
        q_codes: np.ndarray,
        q_rids: np.ndarray,
        q_positions: np.ndarray,
        q_strands: np.ndarray,
        order_key: np.ndarray,
        n_index_reads: int,
        min_count: int = 2,
        max_count: int | None = None,
    ) -> tuple[RetainedKmers, int]:
        """One shard of the (index ∪ query batch) retained table.

        The serve phase's core primitive: merge shard *shard*'s resident
        occurrences with a query batch's occurrences routed to this rank,
        apply the count filters to the **union** counts, and keep only k-mers
        with at least one occurrence on *each* side — the groups whose pair
        expansion can produce a query-vs-index pair (single-sided groups
        would only produce pairs the cross filter drops anyway).

        Only the index groups whose code the query batch hits are gathered
        (a ``searchsorted`` of the batch's unique codes into the shard's
        group table), so a small batch touches a small part of the index.
        The result is the same as merging the whole shard: a group survives
        only with occurrences on both sides, and every hit group brings all
        of its index occurrences, so the union counts are unchanged.

        Within each group the merged occurrences are ordered by
        ``(order_key[rid], position)``, where *order_key* is the per-read
        arrival ordinal of the emulated one-shot run over (index ∪ query)
        reads — this reproduces the hash-table stage's arrival order
        (superstep, source rank, in-batch extraction order), which is what
        makes the downstream pair generation (and its ``swapped`` owner
        annotation) bit-identical to that run.  ``(order_key[rid],
        position)`` is unique within a code group, so the order does not
        depend on how the inputs were ordered.

        Parameters
        ----------
        q_codes / q_rids / q_positions / q_strands:
            The query batch's occurrences owned by this rank, restricted to
            this shard's code range (RIDs are global: ``n_index_reads +
            query position``).
        order_key:
            RID → arrival ordinal of the emulated union run (covers index
            and query RIDs).
        n_index_reads:
            RIDs below this bound are index reads, at or above it query reads.

        Returns
        -------
        tuple[RetainedKmers, int]
            The merged shard, and the number of index occurrences gathered
            into the merge.
        """
        _validate_count_filters(min_count, max_count)
        stored = self._shards[shard]
        q_codes = np.asarray(q_codes, dtype=np.uint64)
        hit = np.unique(q_codes)
        slot = np.searchsorted(stored.codes, hit)
        in_range = slot < stored.n_kmers
        slot = slot[in_range]
        hits = _take_groups(stored, slot[stored.codes[slot] == hit[in_range]])

        codes = np.concatenate([np.repeat(hits.codes, hits.counts()), q_codes])
        if codes.size == 0:
            return RetainedKmers.empty(), 0
        rids = np.concatenate([hits.rids, np.asarray(q_rids, dtype=np.int64)])
        positions = np.concatenate(
            [hits.positions, np.asarray(q_positions, dtype=np.int64)])
        strands = np.concatenate([hits.strands, np.asarray(q_strands, dtype=bool)])

        def keep(counts: np.ndarray, order: np.ndarray) -> np.ndarray:
            group_of = np.repeat(np.arange(counts.size, dtype=np.int64), counts)
            index_counts = np.bincount(group_of[rids[order] < n_index_reads],
                                       minlength=counts.size)
            return (_count_filter(counts, min_count, max_count)
                    & (index_counts >= 1) & (index_counts < counts))

        merged = _kept_groups(codes, rids, positions, strands,
                              np.lexsort((positions, order_key[rids], codes)), keep)
        return merged, hits.n_occurrences

    # -- introspection -------------------------------------------------------

    @property
    def nbytes(self) -> int:
        """Resident memory of the shards (occurrences and group tables) in bytes."""
        return sum(stored.nbytes for stored in self._shards)

    def digest(self) -> int:
        """A 63-bit content digest of the index, independent of insertion order.

        Hashes each shard's canonical storage, so two indexes holding the
        same occurrence *set* — however it was batched or which backend
        built it — digest identically.  Surfaced as a per-rank counter so the
        cross-backend index-parity tests can compare resident indexes they
        cannot reach directly (process-backend workers own theirs).
        """
        h = hashlib.blake2b(digest_size=8)
        for shard in range(self.n_shards):
            stored = self._shards[shard]
            h.update(np.repeat(stored.codes, stored.counts()).tobytes())
            h.update(stored.rids.tobytes())
            h.update(stored.positions.tobytes())
            h.update(stored.strands.tobytes())
        return int.from_bytes(h.digest(), "big") >> 1
