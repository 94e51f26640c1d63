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
3. The index sorts the kept occurrences once and keeps them as they
   travelled: each occurrence is one 64-bit key, ``code | rid | position
   | strand`` (:func:`occurrence_key_bits`, :func:`pack_occurrences`),
   packed by the sender, kept by the receiver and sorted once by the index
   (:meth:`KmerIndex.from_keys`); when the fields do not fit a word it is
   a two-word ``(code, payload)`` row with the same order.
4. Views apply the frequency filters, which remove false-positive
   singletons and k-mers above the high-frequency threshold m, decoding
   only the keys they take: :meth:`KmerIndex.retained` gives the one-shot
   run's retained table, :meth:`KmerIndex.merged` merges a query batch
   into the resident table.

The implementation is array-based rather than a Python dict: occurrences
are one flat key array grouped by one sort, which keeps the per-k-mer
Python overhead out of the hot path.  The overlap stage bounds its pair
buffers by cutting the retained table into chunks of k-mer groups
(``exchange_chunk_mb``), not by cutting the table itself.
"""

from __future__ import annotations

import hashlib
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro import native

#: Bytes per (k-mer, RID, position, strand) occurrence in the paper's
#: memory model: a 64-bit code, RID and position and a one-byte strand.
#: The stage reports (``stage_bytes``) and the performance model use it; it
#: is not the storage size, which :attr:`KmerIndex.nbytes` measures.
OCCURRENCE_NBYTES = 8 + 8 + 8 + 1

#: ``digest`` hashes the sorted occurrences in this many code-range slices,
#: one after another.  The slices change nothing in the index; they exist
#: only because the pinned ``IndexSparse.PINNED_DIGESTS`` of ``perfbench``
#: were computed over an index stored in four code-range shards, and a
#: digest over one slice would differ (ROADMAP 8(h)).
_DIGEST_SLICES = 4


#: Keys a view decodes or compares per pass: :meth:`KmerIndex.digest`
#: decodes one field of this many occurrences per hash update.
_CHUNK = 1 << 20


def _digest_boundaries(k: int) -> np.ndarray:
    """The ``_DIGEST_SLICES - 1`` ascending ``uint64`` cuts of the k-mer code
    space ``[0, 4**k)`` into equal ranges that :meth:`KmerIndex.digest`
    hashes in turn."""
    code_space = 4 ** k
    return np.array([(s * code_space) // _DIGEST_SLICES
                     for s in range(1, _DIGEST_SLICES)], dtype=np.uint64)


@dataclass(frozen=True)
class RetainedKmers:
    """Grouped k-mer occurrences: a view of a hash-table partition.

    Occurrences are held structure-of-arrays style, sorted by k-mer code,
    with ``offsets`` delimiting each k-mer's group:
    ``rids[offsets[i]:offsets[i+1]]`` are the reads containing ``codes[i]``.

    The views the overlap stage reads (:meth:`KmerIndex.retained`,
    :meth:`KmerIndex.merged`) are decoded from the index's sorted keys.
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


def _group_offsets(sorted_codes: np.ndarray) -> np.ndarray:
    """Where each run of equal codes starts in an ascending code array, then
    the array's size: a grouped table's ``offsets``.

    One boolean mask and one index array, with no concatenated copy: on a
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


def key_mask(keys: np.ndarray, codes: np.ndarray, shift: int = 0) -> np.ndarray:
    """Boolean mask: which of ``codes >> shift`` are in *keys* (ascending,
    unique).

    The candidate-key gate of stage 2: occurrences of k-mers the Bloom
    filter saw only once are not stored.  *codes* may be occurrence keys,
    whose code is ``key >> shift``, or the code column of two-word rows
    (``rows[:, 0]``, shift 0).  Runs the compiled ``key_gate``
    (:mod:`repro.native`: a hash set of the keys, probed by every code,
    reading a strided column in place and shifting each word as it reads
    it) when it is available, :func:`_key_mask_numpy` otherwise; both return
    the same mask.
    """
    if keys.size == 0:
        return np.zeros(codes.size, dtype=bool)
    compiled = native.library()
    # The compiled gate reads uint64 keys and one uint64 column of any
    # whole-word stride, which is what stage 2 passes.
    if (compiled is None or keys.dtype != np.uint64 or codes.dtype != np.uint64
            or codes.ndim != 1 or codes.strides[0] % codes.itemsize):
        return _key_mask_numpy(keys, codes >> np.uint64(shift) if shift else codes)
    keys = np.ascontiguousarray(keys)
    keep = np.empty(codes.size, dtype=bool)
    # The key set: at most half full, so probes stay short.
    table = np.zeros(2 * keys.size, dtype=np.uint64)
    compiled.key_gate(keys.ctypes.data, keys.size, table.ctypes.data, table.size,
                      codes.ctypes.data, codes.size, codes.strides[0] // codes.itemsize,
                      shift, keep.ctypes.data)
    return keep


def _key_mask_numpy(keys: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """The NumPy body of :func:`key_mask` (reference and fallback): one
    binary search of every (shifted) code into the keys."""
    slot = np.minimum(np.searchsorted(keys, codes), keys.size - 1)
    return keys[slot] == codes


#: ``(rid bits, position bits)`` of the two-word occurrence row ``(code,
#: payload)`` a read set ships when its one-word key does not fit: the
#: payload is the one-word key's low 63 bits at these widths, so one field
#: decoder serves both forms, and ``rid_bits + position_bits + 1 = 64``
#: leaves no code bits, which is how the layout says it is two words.
WIDE_KEY_BITS = (32, 31)


def occurrence_key_bits(k: int, n_reads: int, max_read_length: int) -> tuple[int, int]:
    """``(rid bits, position bits)`` of a read set's occurrence keys.

    The key packs ``code | rid | position | strand`` from the most
    significant bit down: ``2k`` bits of code, ``bits(n_reads - 1)`` of RID,
    ``bits(max_read_length - k)`` of position and one strand bit.  When
    those add up to more than 64 (``k = 31`` with many reads), or a field
    is wider than the two-word row's, the read set ships two-word rows:
    :data:`WIDE_KEY_BITS`.  Every rank knows the read set before stage 2,
    so every rank computes the same widths.
    """
    rid_bits = max(n_reads - 1, 0).bit_length()
    position_bits = max(max_read_length - k, 0).bit_length()
    if (rid_bits > WIDE_KEY_BITS[0] or position_bits > WIDE_KEY_BITS[1]
            or 2 * k + rid_bits + position_bits + 1 > 64):
        return WIDE_KEY_BITS
    return rid_bits, position_bits


def _check_key_bits(rid_bits: int, position_bits: int) -> int:
    """The code shift of a key with these field widths (64: the two-word
    row); raises ValueError for widths no key layout has."""
    if not (0 <= rid_bits <= WIDE_KEY_BITS[0] and 0 <= position_bits <= WIDE_KEY_BITS[1]):
        raise ValueError(f"key field widths out of range: rid_bits={rid_bits}, "
                         f"position_bits={position_bits}")
    return rid_bits + position_bits + 1


def key_fields(rid_bits: int, position_bits: int) -> tuple[tuple[str, int], ...]:
    """``(name, width)`` of the code, RID and position fields of a layout,
    in the order the senders check them; a two-word row's code is 64 bits."""
    code_shift = _check_key_bits(rid_bits, position_bits)
    return (("code", 64 - code_shift if code_shift < 64 else 64), ("RID", rid_bits),
            ("position", position_bits))


def field_overflow(name: str, bits: int) -> ValueError:
    """The error of an occurrence field that does not fit its width."""
    return ValueError(f"an occurrence {name} does not fit its {bits}-bit key field")


def pack_occurrences(codes: np.ndarray, rids: np.ndarray, positions: np.ndarray,
                     strands: np.ndarray, rid_bits: int, position_bits: int) -> np.ndarray:
    """The occurrence keys of these columns under the layout *rid_bits*,
    *position_bits* (:func:`occurrence_key_bits`).

    One ``uint64`` per occurrence, ``code << (rid_bits + position_bits + 1)
    | rid << (position_bits + 1) | position << 1 | strand``, whose unsigned
    order is the canonical ``(code, rid, position, strand)`` order; or, in
    the :data:`WIDE_KEY_BITS` layout, ``(n, 2)`` rows ``(code, rid << 32 |
    position << 1 | strand)``, whose row order is the same.  The NumPy body
    of :func:`repro.core.stages.route_occurrences`' packing, and the column
    constructor's.  Raises ``ValueError`` naming the first of code, RID and
    position that does not fit its width (a negative one never does).
    """
    fields = key_fields(rid_bits, position_bits)
    codes = np.asarray(codes, dtype=np.uint64)
    rids, positions = (np.asarray(column, dtype=np.int64).view(np.uint64)
                       for column in (rids, positions))
    for (name, bits), column in zip(fields, (codes, rids, positions)):
        if bits < 64 and (column >> np.uint64(bits)).any():
            raise field_overflow(name, bits)
    keys = rids << np.uint64(position_bits + 1)
    keys |= positions << np.uint64(1)
    keys |= np.asarray(strands, dtype=bool)
    if fields[0][1] == 64:
        return np.stack([codes, keys], axis=1)
    keys |= codes << np.uint64(rid_bits + position_bits + 1)
    return keys


def join_keys(chunks: list[np.ndarray], rid_bits: int, position_bits: int) -> np.ndarray:
    """The occurrence keys (or two-word rows) of *chunks* in one array,
    emptying the list: each chunk is copied in and released, so the chunks
    and the joined keys are never all alive at once."""
    wide = _check_key_bits(rid_bits, position_bits) == 64
    n = sum(len(chunk) for chunk in chunks)
    keys = np.empty((n, 2) if wide else n, dtype=np.uint64)
    at = 0
    for i in range(len(chunks)):
        keys[at : at + len(chunks[i])] = chunks[i]
        at += len(chunks[i])
        chunks[i] = None
    chunks.clear()
    return keys


def decode_occurrences(keys: np.ndarray, rid_bits: int,
                       position_bits: int) -> tuple[np.ndarray, ...]:
    """``(codes, rids, positions, strands)`` of occurrence keys (or two-word
    rows) in the layout *rid_bits*, *position_bits*: the inverse of
    :func:`pack_occurrences`, RIDs and positions as ``int64``."""
    code_shift = _check_key_bits(rid_bits, position_bits)
    if code_shift == 64:
        return (keys[:, 0], *_payload_fields(keys[:, 1], rid_bits, position_bits))
    return (keys >> np.uint64(code_shift), *_payload_fields(keys, rid_bits, position_bits))


def _payload_fields(payload: np.ndarray, rid_bits: int,
                    position_bits: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(rids, positions, strands)`` of keys or two-word payloads."""
    return tuple(decode(payload) for decode in _field_decoders(rid_bits, position_bits))


def _field_decoders(rid_bits: int, position_bits: int) -> tuple[Callable, Callable, Callable]:
    """The decoders of the RID, the position (both ``int64``) and the strand
    of keys or two-word payloads; the code bits above the RID are masked
    off."""

    def field(shift: int, bits: int) -> Callable[[np.ndarray], np.ndarray]:
        def decode(payload: np.ndarray) -> np.ndarray:
            values = payload >> np.uint64(shift)
            values &= np.uint64((1 << bits) - 1)
            return values.view(np.int64)
        return decode

    def strands(payload: np.ndarray) -> np.ndarray:
        flags = payload.astype(np.uint8)
        flags &= np.uint8(1)
        return flags.view(bool)

    return field(position_bits + 1, rid_bits), field(1, position_bits), strands


class KmerIndex:
    """One rank's k-mer occurrence table: its occurrence keys, sorted once.

    Every launch builds one: the one-shot run reads its retained table
    through :meth:`retained`, and the serve phase keeps the index resident
    so repeated query batches can merge into it (:meth:`merged`) without
    rebuilding anything.

    Invariants:

    * **The sorted keys are the index** — it holds the occurrence keys
      stage 2 shipped (:func:`occurrence_key_bits`,
      :func:`pack_occurrences`), sorted with one ``np.sort``: 8 bytes per
      occurrence, in canonical ``(code, rid, position, strand)`` order, a
      k-mer's occurrences one run of keys sharing the bits above
      ``code_shift``.  In the :data:`WIDE_KEY_BITS` layout it holds the
      codes and the payload words as two columns instead (16 bytes per
      occurrence), sorted by ``(code, payload)`` — the same order.  No
      group table or decoded column stays resident: every view —
      :meth:`retained_counts`, :meth:`retained`, :meth:`merged`,
      :meth:`digest` — decodes only what it takes, so none depends on how
      the occurrence stream was ordered.  The index is built once: nothing
      is inserted later.
    * **Unfiltered storage** — the index stores every occurrence it is
      given.  The one-shot run gives it only candidate-key occurrences
      (:func:`key_mask`); the serve build gives it all of them, because an
      index-side singleton must stay queryable when a query batch can lift
      its union count into the reliable range.  The ``[min_count,
      max_count]`` filters are applied by the views, never by storage.
    """

    def __init__(self, k: int, codes: np.ndarray, rids: np.ndarray,
                 positions: np.ndarray, strands: np.ndarray) -> None:
        """The index of occurrence columns: packed in the layout their
        largest RID and position need, then sorted as stage 2's keys are."""
        rids, positions = np.asarray(rids), np.asarray(positions)
        if not (np.size(codes) == rids.size == positions.size == np.size(strands)):
            raise ValueError("codes, rids, positions and strands must have equal length")
        bits = occurrence_key_bits(k, int(rids.max(initial=0)) + 1,
                                   int(positions.max(initial=0)) + k)
        self._sort(k, [pack_occurrences(codes, rids, positions, strands, *bits)], bits)

    @classmethod
    def from_keys(cls, k: int, chunks: list[np.ndarray], rid_bits: int,
                  position_bits: int) -> "KmerIndex":
        """The index of the occurrence keys (or two-word rows) in *chunks*,
        in the layout *rid_bits*, *position_bits*, emptying the list.

        Stage 2's constructor: the chunks are joined into one key array
        (:func:`join_keys`), which gets one sort.
        """
        index = cls.__new__(cls)
        index._sort(k, chunks, (rid_bits, position_bits))
        return index

    def _sort(self, k: int, chunks: list[np.ndarray], bits: tuple[int, int]) -> None:
        keys = join_keys(chunks, *bits)
        self.k = k
        self.n_occurrences = len(keys)
        self._rid_bits, self._position_bits = bits
        code_shift = _check_key_bits(*bits)
        if code_shift == 64:
            order = np.lexsort((keys[:, 1], keys[:, 0]))
            self._keys, self._payload, self._code_shift = keys[order, 0], keys[order, 1], 0
        else:
            keys.sort()
            self._keys, self._payload, self._code_shift = keys, None, code_shift

    def _codes(self, rows: slice | np.ndarray) -> np.ndarray:
        """The codes of the keys at *rows*."""
        keys = self._keys[rows]
        return keys >> np.uint64(self._code_shift) if self._code_shift else keys

    def _field_columns(self) -> tuple[Callable, ...]:
        """For the RID, position and strand, the function that decodes that
        field of the keys at some rows."""
        payload = self._keys if self._payload is None else self._payload
        return tuple(lambda rows, decode=decode: decode(payload[rows])
                     for decode in _field_decoders(self._rid_bits, self._position_bits))

    def _fields(self, rows: slice | np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(rids, positions, strands)`` of the keys at *rows*."""
        return tuple(column(rows) for column in self._field_columns())

    def _code_bounds(self, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Where each of the (uint64) *codes*' runs of keys starts and ends.

        The bounds are ``code << s`` and ``code << s | (2**s - 1)`` with
        ``side="right"`` — not ``(code + 1) << s``, which wraps to 0 at the
        top code when ``2k + s = 64``.
        """
        shift = np.uint64(self._code_shift)
        low = codes << shift
        starts = np.searchsorted(self._keys, low)
        ends = np.searchsorted(self._keys, low | np.uint64((1 << self._code_shift) - 1),
                               side="right")
        return starts, ends

    def _long_groups(self) -> tuple[int, np.ndarray]:
        """The number of k-mers, and the occurrence count of every k-mer
        with more than one occurrence.

        One XOR-compare pass over adjacent keys (``key[i] ^ key[i + 1]``
        below ``2**s``: the same code), :data:`_CHUNK` keys at a time;
        only the runs of equal codes are materialised, and on a sparse
        index almost every k-mer is a singleton.
        """
        keys = self._keys
        same = np.empty(max(keys.size - 1, 0), dtype=bool)
        below = np.uint64(1 << self._code_shift)
        for lo in range(0, same.size, _CHUNK):
            hi = min(lo + _CHUNK, same.size)
            np.less(np.bitwise_xor(keys[lo + 1 : hi + 1], keys[lo:hi]), below,
                    out=same[lo:hi])
        tied = np.flatnonzero(same)
        # A run of consecutive tied slots [a, b] is one k-mer of b - a + 2.
        ends = np.flatnonzero(np.diff(tied) != 1)
        firsts = tied[np.concatenate(([0], ends + 1))] if tied.size else tied
        lasts = tied[np.concatenate((ends, [tied.size - 1]))] if tied.size else tied
        return keys.size - tied.size, lasts - firsts + 2

    # -- retained views ------------------------------------------------------

    def retained_counts(self, min_count: int = 2,
                        max_count: int | None = None) -> tuple[int, int]:
        """``(k-mers, occurrences)`` retained under the count filters.

        Read from the runs of equal codes (:meth:`_long_groups`); nothing
        is decoded, gathered or sorted.
        """
        _validate_count_filters(min_count, max_count)
        n_kmers, counts = self._long_groups()
        kept = counts[_count_filter(counts, min_count, max_count)]
        singletons = n_kmers - counts.size if min_count == 1 else 0
        return int(kept.size) + singletons, int(kept.sum()) + singletons

    def retained(self, order_key: np.ndarray, min_count: int = 2,
                 max_count: int | None = None) -> RetainedKmers:
        """The retained k-mers, each group in arrival order.

        The one-shot run's view of its table: every key is decoded, the
        count filters are applied to the groups, and each kept group's
        occurrences are ordered by ``(order_key[rid], position)`` (see
        :func:`_arrival_grouped`) — the order stage 2 delivered them in.
        This equals grouping the arrival-ordered occurrence stream by code
        with one stable sort.
        """
        _validate_count_filters(min_count, max_count)
        every = slice(None)
        return _arrival_grouped(
            self._codes(every), *self._fields(every), order_key,
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

        Only the index occurrences whose code the query batch hits are
        decoded (two ``searchsorted`` calls of the batch's unique codes into
        the keys, :meth:`_code_bounds`), so a small batch touches a small
        part of the index.  The result is the same as merging the whole
        index: a group survives only with occurrences on both sides, and
        every hit group brings all of its index occurrences, so the union
        counts are unchanged.

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
        q_codes = np.asarray(q_codes, dtype=np.uint64)
        starts, ends = self._code_bounds(np.unique(q_codes))
        _, take = _group_take(starts, ends - starts)

        codes = np.concatenate([self._codes(take), q_codes])
        if codes.size == 0:
            return RetainedKmers.empty(), 0
        rids, positions, strands = (
            np.concatenate([index_column, np.asarray(q_column, dtype=dtype)])
            for index_column, q_column, dtype in zip(
                self._fields(take), (q_rids, q_positions, q_strands),
                (np.int64, np.int64, bool)))

        def keep(counts: np.ndarray, order: np.ndarray) -> np.ndarray:
            group_of = np.repeat(np.arange(counts.size, dtype=np.int64), counts)
            index_counts = np.bincount(group_of[rids[order] < n_index_reads],
                                       minlength=counts.size)
            return (_count_filter(counts, min_count, max_count)
                    & (index_counts >= 1) & (index_counts < counts))

        merged = _arrival_grouped(codes, rids, positions, strands, order_key, keep)
        return merged, int(take.size)

    # -- introspection -------------------------------------------------------

    @property
    def nbytes(self) -> int:
        """Resident memory of the index (its sorted keys) in bytes."""
        return self._keys.nbytes + (0 if self._payload is None else self._payload.nbytes)

    def digest(self) -> int:
        """A 63-bit content digest of the index, independent of insertion order.

        Hashes the canonical storage, so two indexes holding the same
        occurrence *set* — however it was batched or which backend built
        it — digest identically.  Surfaced as a per-rank counter so the
        cross-backend index-parity tests can compare resident indexes they
        cannot reach directly (process-backend workers own theirs).  The
        occurrences are hashed one code-range slice at a time
        (:data:`_DIGEST_SLICES`, each cut from the keys with a
        ``searchsorted``), each slice as its ``uint64`` codes, then its
        ``int64`` RIDs, its ``int64`` positions and its bool strands: the
        stream of the decoded columns.  Each column is decoded from the
        keys :data:`_CHUNK` occurrences at a time and hashed through the
        buffer, so the digest holds no decoded copy of a whole column.
        """
        h = hashlib.blake2b(digest_size=8)
        cuts = [0, *self._code_bounds(_digest_boundaries(self.k))[0].tolist(),
                self.n_occurrences]
        columns = (self._codes, *self._field_columns())
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            for column in columns:
                for start in range(lo, hi, _CHUNK):
                    h.update(column(slice(start, min(start + _CHUNK, hi))))
        return int.from_bytes(h.digest(), "big") >> 1
