"""Per-rank partition of the distributed k-mer occurrence hash table.

Stage 2 of diBELLA builds, on every rank, a hash table mapping each owned
k-mer to "the lists of all read ID (RID) and locations at which they
appeared" (§7).  Every launch builds that partition as one
:class:`KmerIndex`, in steps that mirror the pipeline:

1. During the Bloom-filter stage, k-mers that the filter reports as already
   seen become *candidate keys* (sorted and deduplicated once).
2. During the hash-table stage, every (k-mer, RID, position) occurrence whose
   k-mer is a candidate key is kept (:func:`key_mask`); everything else —
   the singletons correctly rejected by the Bloom filter — is dropped
   without being stored.  The serve phase's index build passes no keys and
   keeps every occurrence.
3. The index sorts the kept occurrences once — one sort of packed 64-bit
   occurrence keys (a 4-key ``lexsort`` when the fields do not fit a word)
   — into one canonical table.
4. Views apply the frequency filters, which remove false-positive
   singletons and k-mers above the high-frequency threshold m:
   :meth:`KmerIndex.retained` gives the one-shot run's retained table,
   :meth:`KmerIndex.merged` merges a query batch into the resident table.

The implementation is array-based rather than a Python dict: occurrences
are flat numpy arrays grouped by one sort, which keeps the per-k-mer Python
overhead out of the hot path.  The overlap stage bounds its pair buffers by
cutting the retained table into chunks of k-mer groups
(``exchange_chunk_mb``), not by cutting the table itself.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro import native

#: Bytes one stored occurrence occupies: uint64 code, int64 RID, int64
#: position and a bool strand.
OCCURRENCE_NBYTES = 8 + 8 + 8 + 1


#: ``digest`` hashes the sorted occurrences in this many code-range slices,
#: one after another.  The slices change nothing in the index; they exist
#: only because the pinned ``IndexSparse.PINNED_DIGESTS`` of ``perfbench``
#: were computed over an index stored in four code-range shards, and a
#: digest over one slice would differ (ROADMAP 8(h)).
_DIGEST_SLICES = 4


def _digest_boundaries(k: int) -> np.ndarray:
    """The ``_DIGEST_SLICES - 1`` ascending ``uint64`` cuts of the k-mer code
    space ``[0, 4**k)`` into equal ranges that :meth:`KmerIndex.digest`
    hashes in turn."""
    code_space = 4 ** k
    return np.array([(s * code_space) // _DIGEST_SLICES
                     for s in range(1, _DIGEST_SLICES)], dtype=np.uint64)


@dataclass(frozen=True)
class RetainedKmers:
    """Grouped k-mer occurrences: a hash-table partition or a view of one.

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


def _group_offsets(sorted_codes: np.ndarray) -> np.ndarray:
    """Where each run of equal codes starts in an ascending code array, then
    the array's size: the group table's ``offsets``.

    One boolean mask and one index array, with no concatenated copy: the
    index build's peak memory holds the whole occurrence table, and on a
    sparse input almost every occurrence starts a group.
    """
    n = sorted_codes.size
    boundary = np.empty(n + 1, dtype=bool)
    boundary[0] = n > 0
    np.not_equal(sorted_codes[1:], sorted_codes[:-1], out=boundary[1:n])
    boundary[n] = True
    return np.flatnonzero(boundary)


def _arrival_grouped(codes: np.ndarray, rids: np.ndarray, positions: np.ndarray,
                     strands: np.ndarray, order_key: np.ndarray, keep) -> RetainedKmers:
    """Group occurrences by code in arrival order, and keep some groups.

    Groups are ascending by code; within a group the occurrences are ordered
    by ``(order_key[rid], position)``, where *order_key* maps a RID to its
    arrival ordinal in the one-shot run (``stages._arrival_order_key``).
    That is the order the stage-2 exchange delivers a k-mer's occurrences
    to its owner, and the order pair generation (and its ``swapped`` owner
    annotation) depends on.  Real reads hold one k-mer per position, so
    ``(order_key[rid], position)`` is unique within a group and the result
    does not depend on the input order.

    ``keep(counts, order)`` returns the mask of groups to keep, given every
    group's occurrence count and the sort order of the rows.  Only the kept
    rows are gathered, with no per-group Python loop.
    """
    order = _arrival_order(codes, order_key[rids], positions)
    sorted_codes = codes[order]
    bounds = _group_offsets(sorted_codes)
    starts, counts = bounds[:-1], np.diff(bounds)
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


def _arrival_order(codes: np.ndarray, arrival: np.ndarray,
                   positions: np.ndarray) -> np.ndarray:
    """The order of ``np.lexsort((positions, arrival, codes))``.

    When ``code | arrival | position`` fit one word (every field
    non-negative, each as wide as its largest value), the order is one
    stable ``argsort`` of that packed key: the same order, ties included,
    several times faster than the lexsort.  Otherwise the lexsort runs.
    """
    if codes.size and int(arrival.min()) >= 0 and int(positions.min()) >= 0:
        arrival_bits = int(arrival.max()).bit_length()
        position_bits = int(positions.max()).bit_length()
        if max(int(codes.max()).bit_length(), 1) + arrival_bits + position_bits <= 64:
            key = codes << np.uint64(arrival_bits + position_bits)
            key |= np.asarray(arrival, dtype=np.int64).view(np.uint64) << np.uint64(
                position_bits)
            key |= np.asarray(positions, dtype=np.int64).view(np.uint64)
            return np.argsort(key, kind="stable")
    return np.lexsort((positions, arrival, codes))


def key_mask(keys: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Boolean mask: which of *codes* are in *keys* (ascending, unique).

    The candidate-key gate of stage 2: occurrences of k-mers the Bloom
    filter saw only once are not stored.  Runs the compiled ``key_gate``
    (:mod:`repro.native`: a hash set of the keys, probed by every code,
    reading a strided column such as ``rows[:, 0]`` in place) when it is
    available, :func:`_key_mask_numpy` otherwise; both return the same mask.
    """
    if keys.size == 0:
        return np.zeros(codes.size, dtype=bool)
    compiled = native.library()
    # The compiled gate reads uint64 keys and one uint64 column of any
    # whole-word stride, which is what stage 2 passes.
    if (compiled is None or keys.dtype != np.uint64 or codes.dtype != np.uint64
            or codes.ndim != 1 or codes.strides[0] % codes.itemsize):
        return _key_mask_numpy(keys, codes)
    keys = np.ascontiguousarray(keys)
    keep = np.empty(codes.size, dtype=bool)
    # The key set: at most half full, so probes stay short.
    table = np.zeros(2 * keys.size, dtype=np.uint64)
    compiled.key_gate(keys.ctypes.data, keys.size, table.ctypes.data, table.size,
                      codes.ctypes.data, codes.size, codes.strides[0] // codes.itemsize,
                      keep.ctypes.data)
    return keep


def _key_mask_numpy(keys: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """The NumPy body of :func:`key_mask` (reference and fallback): one
    binary search of every code into the keys."""
    slot = np.minimum(np.searchsorted(keys, codes), keys.size - 1)
    return keys[slot] == codes


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
    # One scratch column holds each shifted field in turn and ends up as
    # the decoded positions, and the codes are decoded in the key's own
    # buffer: beside its input the sort holds three word columns at most,
    # which bounds the index build's memory peak.
    field = np.empty_like(key)
    for column, shift in ((rids, rid_shift), (positions, one)):
        np.left_shift(column.view(np.uint64), shift, out=field)
        key |= field
    key |= strands
    key.sort()

    sorted_strands = np.bitwise_and(key, one, out=field).astype(bool)
    sorted_positions = np.right_shift(key, one, out=field)
    sorted_positions &= np.uint64((1 << position_bits) - 1)
    sorted_rids = key >> rid_shift
    sorted_rids &= np.uint64((1 << rid_bits) - 1)
    key >>= code_shift
    return key, sorted_rids.view(np.int64), sorted_positions.view(np.int64), sorted_strands


def _group_table(codes: np.ndarray, rids: np.ndarray, positions: np.ndarray,
                 strands: np.ndarray) -> RetainedKmers:
    """The unfiltered :class:`RetainedKmers` of occurrences sorted by code."""
    offsets = _group_offsets(codes)
    return RetainedKmers(codes=codes[offsets[:-1]], offsets=offsets,
                         rids=rids, positions=positions, strands=strands)


class KmerIndex:
    """One rank's k-mer occurrence table, sorted once into one canonical table.

    Every launch builds one: the one-shot run reads its retained table
    through :meth:`retained`, and the serve phase keeps the index resident
    so repeated query batches can merge into it (:meth:`merged`) without
    rebuilding anything.

    Invariants:

    * **Canonical storage** — the index is held as one
      :class:`RetainedKmers` (unfiltered: every stored occurrence) whose
      occurrences are sorted by ``(code, rid, position, strand)``.  Its
      ``codes`` / ``offsets`` are the group table (unique codes, group
      starts, group counts as ``np.diff(offsets)``); no other copy stays
      resident.  The constructor sorts the whole occurrence stream once —
      one ``np.sort`` of packed 64-bit keys when the fields fit a word, a
      4-key ``lexsort`` when they do not (:func:`_canonical_sort`).  The
      index is built once: nothing is inserted later.  Every view —
      :meth:`retained_counts`, :meth:`retained`, :meth:`merged`,
      :meth:`digest` — reads the canonical storage, so none depends on how
      the occurrence stream was ordered.
    * **Unfiltered storage** — the index stores every occurrence it is
      given.  The one-shot run gives it only candidate-key occurrences
      (:func:`key_mask`); the serve build gives it all of them, because an
      index-side singleton must stay queryable when a query batch can lift
      its union count into the reliable range.  The ``[min_count,
      max_count]`` filters are applied by the views, never by storage.
    """

    def __init__(self, k: int, codes: np.ndarray, rids: np.ndarray,
                 positions: np.ndarray, strands: np.ndarray) -> None:
        self.k = k
        self._sort([codes, rids, positions, strands])

    @classmethod
    def from_columns(cls, k: int, columns: list[np.ndarray]) -> "KmerIndex":
        """The index of ``columns = [codes, rids, positions, strands]``,
        emptying the list.

        Stage 2's constructor: the list holds the last references to the
        exchanged columns, so they are freed once sorted, and the group
        table is built beside the sorted columns alone — the index build's
        memory peak.
        """
        index = cls.__new__(cls)
        index.k = k
        index._sort(columns)
        return index

    def _sort(self, columns: list[np.ndarray]) -> None:
        codes, rids, positions, strands = (
            np.asarray(column, dtype=dtype)
            for column, dtype in zip(columns, (np.uint64, np.int64, np.int64, bool)))
        columns.clear()
        if not (codes.size == rids.size == positions.size == strands.size):
            raise ValueError("codes, rids, positions and strands must have equal length")
        self.n_occurrences = int(codes.size)
        sorted_columns = _canonical_sort(codes, rids, positions, strands)
        del codes, rids, positions, strands
        self._table = _group_table(*sorted_columns)

    # -- retained views ------------------------------------------------------

    def retained_counts(self, min_count: int = 2,
                        max_count: int | None = None) -> tuple[int, int]:
        """``(k-mers, occurrences)`` retained under the count filters.

        Read from the group counts; nothing is gathered or sorted.
        """
        _validate_count_filters(min_count, max_count)
        counts = self._table.counts()
        kept = counts[_count_filter(counts, min_count, max_count)]
        return int(kept.size), int(kept.sum())

    def retained(self, order_key: np.ndarray, min_count: int = 2,
                 max_count: int | None = None) -> RetainedKmers:
        """The retained k-mers, each group in arrival order.

        The one-shot run's view of its table: the count filters are applied
        to the groups, and each kept group's occurrences are ordered by
        ``(order_key[rid], position)`` (see :func:`_arrival_grouped`) — the
        order stage 2 delivered them in.  This equals grouping the
        arrival-ordered occurrence stream by code with one stable sort.
        """
        _validate_count_filters(min_count, max_count)
        stored = self._table
        return _arrival_grouped(
            np.repeat(stored.codes, stored.counts()), stored.rids, stored.positions,
            stored.strands, order_key,
            lambda counts, _order: _count_filter(counts, min_count, max_count))

    def merged(
        self,
        q_codes: np.ndarray,
        q_rids: np.ndarray,
        q_positions: np.ndarray,
        q_strands: np.ndarray,
        order_key: np.ndarray,
        n_index_reads: int,
        min_count: int = 2,
        max_count: int | None = None,
    ) -> tuple[RetainedKmers, int]:
        """The (index ∪ query batch) retained table.

        The serve phase's core primitive: merge the resident occurrences
        with a query batch's occurrences routed to this rank, apply the
        count filters to the **union** counts, and keep only k-mers with at
        least one occurrence on *each* side — the groups whose pair
        expansion can produce a query-vs-index pair (single-sided groups
        would only produce pairs the cross filter drops anyway).

        Only the index groups whose code the query batch hits are gathered
        (a ``searchsorted`` of the batch's unique codes into the group
        table), so a small batch touches a small part of the index.  The
        result is the same as merging the whole index: a group survives
        only with occurrences on both sides, and every hit group brings all
        of its index occurrences, so the union counts are unchanged.

        Within each group the merged occurrences are in arrival order,
        ``(order_key[rid], position)`` with *order_key* taken from the
        emulated one-shot run over (index ∪ query) reads
        (:func:`_arrival_grouped`), which makes the downstream pair
        generation bit-identical to that run.

        Parameters
        ----------
        q_codes / q_rids / q_positions / q_strands:
            The query batch's occurrences owned by this rank (RIDs are
            global: ``n_index_reads + query position``).
        order_key:
            RID → arrival ordinal of the emulated union run (covers index
            and query RIDs).
        n_index_reads:
            RIDs below this bound are index reads, at or above it query reads.

        Returns
        -------
        tuple[RetainedKmers, int]
            The merged table, and the number of index occurrences gathered
            into the merge.
        """
        _validate_count_filters(min_count, max_count)
        stored = self._table
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

        merged = _arrival_grouped(codes, rids, positions, strands, order_key, keep)
        return merged, hits.n_occurrences

    # -- introspection -------------------------------------------------------

    @property
    def nbytes(self) -> int:
        """Resident memory of the index (occurrences and group table) in bytes."""
        return self._table.nbytes

    def digest(self) -> int:
        """A 63-bit content digest of the index, independent of insertion order.

        Hashes the canonical storage, so two indexes holding the same
        occurrence *set* — however it was batched or which backend built
        it — digest identically.  Surfaced as a per-rank counter so the
        cross-backend index-parity tests can compare resident indexes they
        cannot reach directly (process-backend workers own theirs).  The
        columns are hashed one code-range slice at a time
        (:data:`_DIGEST_SLICES`), each slice's groups cut from the group
        table with a ``searchsorted``, and each column is hashed through its
        buffer, with no ``bytes`` copy.
        """
        stored = self._table
        h = hashlib.blake2b(digest_size=8)
        cuts = [0, *np.searchsorted(stored.codes, _digest_boundaries(self.k)).tolist(),
                stored.n_kmers]
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            first, last = int(stored.offsets[lo]), int(stored.offsets[hi])
            h.update(np.repeat(stored.codes[lo:hi], np.diff(stored.offsets[lo:hi + 1])))
            h.update(stored.rids[first:last])
            h.update(stored.positions[first:last])
            h.update(stored.strands[first:last])
        return int.from_bytes(h.digest(), "big") >> 1
