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
3. The index sorts the kept occurrences once into one canonical table.
   When ``code | rid | position | strand`` fits one 64-bit word
   (:func:`occurrence_key_bits`), the receiving side packs each block of
   wire rows into those words as it arrives (:func:`pack_occurrence_keys`)
   and the index sorts the words once and decodes them once
   (:meth:`KmerIndex.from_keys`); otherwise it keeps the decoded columns
   and sorts them with a 4-key ``lexsort``.
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

#: Bytes per (k-mer, RID, position, strand) occurrence in the paper's
#: memory model: a 64-bit code, RID and position and a one-byte strand.
#: The stage reports (``stage_bytes``) and the performance model use it; it
#: is not the storage size, which :attr:`KmerIndex.nbytes` measures.
OCCURRENCE_NBYTES = 8 + 8 + 8 + 1

#: The largest RID and position the wire meta word and the ``uint32``
#: storage columns hold (the meta word keeps 32 bits of RID and 31 of
#: position, see :func:`repro.core.stages.route_occurrences`).
_RID_BITS_MAX, _POSITION_BITS_MAX = 32, 31


#: ``digest`` hashes the sorted occurrences in this many code-range slices,
#: one after another.  The slices change nothing in the index; they exist
#: only because the pinned ``IndexSparse.PINNED_DIGESTS`` of ``perfbench``
#: were computed over an index stored in four code-range shards, and a
#: digest over one slice would differ (ROADMAP 8(h)).
_DIGEST_SLICES = 4


#: Occurrences :meth:`KmerIndex.digest` widens to ``int64`` per hash update.
_DIGEST_CHUNK = 1 << 20


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

    The views the overlap stage reads (:meth:`KmerIndex.retained`,
    :meth:`KmerIndex.merged`) hold ``int64`` offsets, RIDs and positions.
    The index's own storage is narrower: ``uint32`` RIDs and positions, and
    ``int32`` offsets while the table holds fewer than 2**31 occurrences
    (``int64`` beyond).
    """

    codes: np.ndarray      # (n_retained,) uint64, ascending
    offsets: np.ndarray    # (n_retained + 1,) int64 (int32/int64 in storage)
    rids: np.ndarray       # (n_occurrences,) int64 (uint32 in storage)
    positions: np.ndarray  # (n_occurrences,) int64 (uint32 in storage)
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
    """The groups of *table* at the ascending indices *groups*, compacted,
    with ``int64`` offsets, RIDs and positions whatever *table* stores."""
    starts = table.offsets[groups].astype(np.int64)
    offsets, take = _group_take(starts, table.offsets[groups + 1] - starts)
    return RetainedKmers(
        codes=table.codes[groups],
        offsets=offsets,
        rids=table.rids[take].astype(np.int64),
        positions=table.positions[take].astype(np.int64),
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
    rows are gathered, with no per-group Python loop, and their RIDs and
    positions are widened to ``int64``.
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
        rids=rids[rows].astype(np.int64, copy=False),
        positions=positions[rows].astype(np.int64, copy=False),
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


def occurrence_key_bits(k: int, n_reads: int,
                        max_read_length: int) -> tuple[int, int] | None:
    """``(rid bits, position bits)`` of the packed occurrence key for a read
    set, or None when the key does not fit one word.

    The key packs ``code | rid | position | strand`` from the most
    significant bit down: ``2k`` bits of code, ``bits(n_reads - 1)`` of RID,
    ``bits(max_read_length - k)`` of position and one strand bit.  It exists
    when those add up to at most 64 (``k = 31`` with many reads does not
    fit).  Every rank knows the read set before stage 2, so every rank
    takes the same path.
    """
    rid_bits = max(n_reads - 1, 0).bit_length()
    position_bits = max(max_read_length - k, 0).bit_length()
    if (rid_bits > _RID_BITS_MAX or position_bits > _POSITION_BITS_MAX
            or 2 * k + rid_bits + position_bits + 1 > 64):
        return None
    return rid_bits, position_bits


def _check_key_bits(rid_bits: int, position_bits: int) -> int:
    """The code shift of a key with these field widths; raises ValueError
    for widths no wire row fills or that leave no room for a code."""
    if not (0 <= rid_bits <= _RID_BITS_MAX and 0 <= position_bits <= _POSITION_BITS_MAX
            and rid_bits + position_bits + 1 < 64):
        raise ValueError(f"key field widths out of range: rid_bits={rid_bits}, "
                         f"position_bits={position_bits}")
    return rid_bits + position_bits + 1


def _key_overflow(rid_bits: int, position_bits: int) -> ValueError:
    return ValueError(f"an occurrence field does not fit the {63 - rid_bits - position_bits}"
                      f"-bit code, {rid_bits}-bit RID or {position_bits}-bit position "
                      "of the key")


def pack_occurrence_keys(rows: np.ndarray, rid_bits: int,
                         position_bits: int) -> np.ndarray:
    """The packed ``uint64`` occurrence key of every stage-2 wire row.

    A row is ``(code, rid << 32 | strand << 31 | position)``
    (:func:`repro.core.stages.route_occurrences`); its key is ``code <<
    (rid_bits + position_bits + 1) | rid << (position_bits + 1) | position
    << 1 | strand`` — the word :meth:`KmerIndex.from_keys` sorts, whose
    order is the canonical ``(code, rid, position, strand)`` order (the
    packed hit array minimap sorts).  Runs the compiled
    ``pack_occurrence_keys`` (:mod:`repro.native`) when it is available,
    :func:`_pack_occurrence_keys_numpy` otherwise; both raise ``ValueError``
    when a field does not fit its width.
    """
    _check_key_bits(rid_bits, position_bits)
    rows = np.asarray(rows, dtype=np.uint64)
    if rows.ndim != 2 or rows.shape[1] != 2:
        raise ValueError("occurrence rows must have shape (n, 2)")
    compiled = native.library()
    if compiled is None:
        return _pack_occurrence_keys_numpy(rows, rid_bits, position_bits)
    rows = np.ascontiguousarray(rows)
    keys = np.empty(rows.shape[0], dtype=np.uint64)
    if compiled.pack_occurrence_keys(rows.ctypes.data, rows.shape[0], rid_bits,
                                     position_bits, keys.ctypes.data) < 0:
        raise _key_overflow(rid_bits, position_bits)
    return keys


def _pack_occurrence_keys_numpy(rows: np.ndarray, rid_bits: int,
                                position_bits: int) -> np.ndarray:
    """The NumPy body of :func:`pack_occurrence_keys` (reference and
    fallback): the fields cut from the meta word, checked and shifted into
    place."""
    code_shift = np.uint64(_check_key_bits(rid_bits, position_bits))
    codes, meta = rows[:, 0], rows[:, 1]
    rids = meta >> np.uint64(32)
    positions = meta & np.uint64((1 << _POSITION_BITS_MAX) - 1)
    if ((codes >> (np.uint64(64) - code_shift)).any()
            or (rids >> np.uint64(rid_bits)).any()
            or (positions >> np.uint64(position_bits)).any()):
        raise _key_overflow(rid_bits, position_bits)
    keys = codes << code_shift
    keys |= rids << np.uint64(position_bits + 1)
    keys |= positions << np.uint64(1)
    keys |= (meta >> np.uint64(_POSITION_BITS_MAX)) & np.uint64(1)
    return keys


def _narrow_offsets(offsets: np.ndarray) -> np.ndarray:
    """Group offsets as ``int32`` when the table fits, ``int64`` beyond."""
    return offsets.astype(np.int32) if offsets[-1] <= np.iinfo(np.int32).max else offsets


def _table_from_keys(keys: np.ndarray, rid_bits: int,
                     position_bits: int) -> RetainedKmers:
    """The stored table of sorted packed keys, decoded once into narrow
    columns; the codes are decoded in the keys' own buffer."""
    strands = keys.astype(np.uint8)
    strands &= np.uint8(1)
    positions = keys.astype(np.uint32)
    positions >>= np.uint32(1)
    positions &= np.uint32((1 << position_bits) - 1)
    keys >>= np.uint64(position_bits + 1)
    rids = keys.astype(np.uint32)
    rids &= np.uint32((1 << rid_bits) - 1)
    keys >>= np.uint64(rid_bits)
    return _group_table(keys, rids, positions, strands.view(bool))


def _canonical_sort(codes: np.ndarray, rids: np.ndarray, positions: np.ndarray,
                    strands: np.ndarray) -> tuple[np.ndarray, ...]:
    """Sort occurrence columns into canonical ``(code, rid, position,
    strand)`` order with a 4-key ``np.lexsort``: the order the packed keys
    of :meth:`KmerIndex.from_keys` sort into, for fields too wide to pack.
    Rows equal on every field are indistinguishable, so the result does not
    depend on the input order.
    """
    order = np.lexsort((strands, positions, rids, codes))
    return codes[order], rids[order], positions[order], strands[order]


def _group_table(codes: np.ndarray, rids: np.ndarray, positions: np.ndarray,
                 strands: np.ndarray) -> RetainedKmers:
    """The unfiltered :class:`RetainedKmers` of occurrences sorted by code,
    with narrow offsets (the caller passes narrow columns)."""
    offsets = _group_offsets(codes)
    return RetainedKmers(codes=codes[offsets[:-1]], offsets=_narrow_offsets(offsets),
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
      resident.  Storage is narrow: ``uint32`` RIDs and positions, a bool
      strand and ``int32`` offsets while they fit — 9 bytes per
      occurrence and 12 per distinct k-mer.  The whole occurrence stream
      is sorted once: :meth:`from_keys` sorts packed 64-bit keys with one
      ``np.sort`` and decodes them once (stage 2 when the fields fit a
      word, :func:`occurrence_key_bits`); the column constructor and
      :meth:`from_columns` use a 4-key ``lexsort``
      (:func:`_canonical_sort`).  Both give the same storage.  The index
      is built once: nothing is inserted later.  Every view —
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

        Stage 2's constructor when the packed key does not fit: the list
        holds the last references to the exchanged columns, so they are
        freed once sorted.
        """
        index = cls.__new__(cls)
        index.k = k
        index._sort(columns)
        return index

    @classmethod
    def from_keys(cls, k: int, chunks: list[np.ndarray], rid_bits: int,
                  position_bits: int) -> "KmerIndex":
        """The index of the packed occurrence keys in *chunks*
        (:func:`pack_occurrence_keys` with these field widths), emptying
        the list.

        Stage 2's constructor: each chunk is copied into one key array and
        released, so the chunks and the joined keys are never all alive at
        once; the keys get one ``np.sort`` and are decoded once into the
        narrow storage columns, the codes in the keys' own buffer.
        """
        _check_key_bits(rid_bits, position_bits)
        keys = np.empty(sum(int(chunk.size) for chunk in chunks), dtype=np.uint64)
        at = 0
        for i in range(len(chunks)):
            keys[at : at + chunks[i].size] = chunks[i]
            at += chunks[i].size
            chunks[i] = None
        chunks.clear()
        keys.sort()
        index = cls.__new__(cls)
        index.k = k
        index.n_occurrences = int(keys.size)
        index._table = _table_from_keys(keys, rid_bits, position_bits)
        return index

    def _sort(self, columns: list[np.ndarray]) -> None:
        codes, rids, positions, strands = (
            np.asarray(column, dtype=dtype)
            for column, dtype in zip(columns, (np.uint64, np.int64, np.int64, bool)))
        columns.clear()
        if not (codes.size == rids.size == positions.size == strands.size):
            raise ValueError("codes, rids, positions and strands must have equal length")
        for name, column in (("rids", rids), ("positions", positions)):
            if column.size and (int(column.min()) < 0 or int(column.max()) >= 2**32):
                raise ValueError(f"{name} must lie in [0, 2**32) to be stored")
        self.n_occurrences = int(codes.size)
        codes, rids, positions, strands = _canonical_sort(codes, rids, positions, strands)
        self._table = _group_table(codes, rids.astype(np.uint32),
                                   positions.astype(np.uint32), strands)

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
        table with a ``searchsorted``, in their canonical 64-bit form:
        ``uint64`` codes, ``int64`` RIDs and positions, bool strands.  The
        narrow stored RIDs and positions are widened
        :data:`_DIGEST_CHUNK` occurrences at a time and hashed through the
        buffer, so the digest holds no widened copy of a whole column.
        """
        stored = self._table
        h = hashlib.blake2b(digest_size=8)
        cuts = [0, *np.searchsorted(stored.codes, _digest_boundaries(self.k)).tolist(),
                stored.n_kmers]
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            first, last = int(stored.offsets[lo]), int(stored.offsets[hi])
            h.update(np.repeat(stored.codes[lo:hi], np.diff(stored.offsets[lo:hi + 1])))
            for column in (stored.rids, stored.positions):
                for start in range(first, last, _DIGEST_CHUNK):
                    h.update(column[start : min(start + _DIGEST_CHUNK, last)]
                             .astype(np.int64))
            h.update(stored.strands[first:last])
        return int.from_bytes(h.digest(), "big") >> 1
