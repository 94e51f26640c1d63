"""Read-pair generation (Algorithm 1) and pair consolidation.

For every retained k-mer, every pair of its occurrences is a candidate
overlap; each pair becomes an alignment task routed to the rank that owns one
of the two reads, chosen by the odd/even heuristic of Algorithm 1 so that
task counts balance without any global coordination.  After the exchange,
tasks for the same read pair (one per shared k-mer) are consolidated into a
single overlap entry carrying the pair's full seed list.

Everything in this module is *fully vectorised*: pair generation expands the
``c(c-1)/2`` pairs of all retained k-mers in one shot from the
:class:`~repro.kmers.hashtable.RetainedKmers` offset/count arrays, and
consolidation is a single lexsort plus boundary detection that produces a
struct-of-arrays :class:`OverlapTable`.  There is no per-k-mer or per-pair
Python loop anywhere on the hot path — the layout minimap2 and the
BELLA-lineage overlappers use for exactly this stage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.kmers.hashtable import RetainedKmers


@dataclass(frozen=True)
class PairBatch:
    """A flat batch of (read pair, seed) tuples, structure-of-arrays style.

    ``rid_a``/``rid_b`` are the pair's read identifiers, ``pos_a``/``pos_b``
    the shared k-mer's position in each read.  The convention ``rid_a <
    rid_b`` is enforced at construction so the same pair never appears under
    two keys (and so owner heuristics that depend on the ordering, like
    ``"min"``, are well defined).

    ``swapped`` optionally records, per pair, whether the normalisation
    flipped the occurrence order (the pair was produced as ``(rid_b, rid_a)``
    and swapped to satisfy ``rid_a < rid_b``).  Algorithm 1's odd/even owner
    rule is defined on the *occurrence* order, so :func:`choose_owner` needs
    this bit; it is a producer-side annotation only and never crosses the
    wire (``to_matrix``/``from_matrix`` drop it — owner choice happens before
    the exchange).
    """

    rid_a: np.ndarray
    rid_b: np.ndarray
    pos_a: np.ndarray
    pos_b: np.ndarray
    same_strand: np.ndarray
    swapped: np.ndarray | None = None

    def __post_init__(self) -> None:
        sizes = {self.rid_a.size, self.rid_b.size, self.pos_a.size, self.pos_b.size,
                 self.same_strand.size}
        if self.swapped is not None:
            sizes.add(self.swapped.size)
        if len(sizes) != 1:
            raise ValueError("all PairBatch arrays must have the same length")
        if self.rid_a.size and not np.all(self.rid_a < self.rid_b):
            raise ValueError("PairBatch requires rid_a < rid_b for every pair")

    def __len__(self) -> int:
        return int(self.rid_a.size)

    @classmethod
    def empty(cls) -> "PairBatch":
        """A batch with no pairs."""
        z = np.empty(0, dtype=np.int64)
        return cls(rid_a=z, rid_b=z.copy(), pos_a=z.copy(), pos_b=z.copy(),
                   same_strand=np.empty(0, dtype=np.int64))

    def to_matrix(self) -> np.ndarray:
        """Pack the batch as an (n, 5) int64 matrix (the wire format)."""
        return np.stack([self.rid_a, self.rid_b, self.pos_a, self.pos_b,
                         self.same_strand.astype(np.int64)], axis=1)

    @classmethod
    def from_matrix(cls, matrix: np.ndarray) -> "PairBatch":
        """Rebuild a batch from the (n, 5) wire format."""
        matrix = np.asarray(matrix, dtype=np.int64)
        if matrix.size == 0:
            return cls.empty()
        if matrix.ndim != 2 or matrix.shape[1] != 5:
            raise ValueError(f"expected an (n, 5) matrix, got shape {matrix.shape}")
        return cls(rid_a=matrix[:, 0].copy(), rid_b=matrix[:, 1].copy(),
                   pos_a=matrix[:, 2].copy(), pos_b=matrix[:, 3].copy(),
                   same_strand=matrix[:, 4].copy())

    @classmethod
    def concatenate(cls, batches: list["PairBatch"]) -> "PairBatch":
        """Concatenate several batches (empty batches are skipped).

        The ``swapped`` annotation survives only when every non-empty batch
        carries it; otherwise it is dropped (mixed provenance).
        """
        non_empty = [b for b in batches if len(b)]
        if not non_empty:
            return cls.empty()
        swapped = None
        if all(b.swapped is not None for b in non_empty):
            swapped = np.concatenate([b.swapped for b in non_empty])
        return cls(
            rid_a=np.concatenate([b.rid_a for b in non_empty]),
            rid_b=np.concatenate([b.rid_b for b in non_empty]),
            pos_a=np.concatenate([b.pos_a for b in non_empty]),
            pos_b=np.concatenate([b.pos_b for b in non_empty]),
            same_strand=np.concatenate([b.same_strand for b in non_empty]),
            swapped=swapped,
        )


@dataclass(frozen=True)
class OverlapRecord:
    """A consolidated overlap: one read pair and all its shared seeds.

    ``seed_same_strand[i]`` is True when seed *i* occurs in the same
    orientation in both reads (align the reads as-is) and False when one of
    them carries the reverse complement (align read A against the reverse
    complement of read B).
    """

    rid_a: int
    rid_b: int
    seed_pos_a: np.ndarray
    seed_pos_b: np.ndarray
    seed_same_strand: np.ndarray

    @property
    def n_seeds(self) -> int:
        """Number of shared retained k-mers found for this pair."""
        return int(self.seed_pos_a.size)


@dataclass(frozen=True)
class OverlapTable:
    """Consolidated overlaps, structure-of-arrays style.

    One entry per distinct read pair; the pair's seeds live in the flat
    ``seed_*`` arrays delimited by ``seed_offsets`` (the same offsets/values
    layout as :class:`~repro.kmers.hashtable.RetainedKmers`).  Seeds within a
    pair are unique and sorted by ``(pos_a, pos_b)``; pairs are sorted by
    ``(rid_a, rid_b)``.

    The table iterates as :class:`OverlapRecord` objects, so existing callers
    (graph construction, benches) keep working, but the flat arrays are the
    primary representation: seed selection and task construction operate on
    them directly, without materialising per-pair objects.
    """

    rid_a: np.ndarray             # (n_pairs,) int64
    rid_b: np.ndarray             # (n_pairs,) int64
    seed_offsets: np.ndarray      # (n_pairs + 1,) int64
    seed_pos_a: np.ndarray        # (n_seeds,) int64
    seed_pos_b: np.ndarray        # (n_seeds,) int64
    seed_same_strand: np.ndarray  # (n_seeds,) bool

    def __post_init__(self) -> None:
        if self.rid_a.size != self.rid_b.size:
            raise ValueError("rid_a and rid_b must have the same length")
        if self.seed_offsets.size != self.rid_a.size + 1:
            raise ValueError("seed_offsets must have n_pairs + 1 entries")
        sizes = {self.seed_pos_a.size, self.seed_pos_b.size, self.seed_same_strand.size}
        if len(sizes) != 1:
            raise ValueError("all seed arrays must have the same length")

    @property
    def n_pairs(self) -> int:
        """Number of distinct read pairs in the table."""
        return int(self.rid_a.size)

    @property
    def n_seeds(self) -> int:
        """Total seeds across all pairs."""
        return int(self.seed_pos_a.size)

    def __len__(self) -> int:
        return self.n_pairs

    def record(self, index: int) -> OverlapRecord:
        """Materialise the *index*-th pair as an :class:`OverlapRecord`."""
        lo, hi = int(self.seed_offsets[index]), int(self.seed_offsets[index + 1])
        return OverlapRecord(
            rid_a=int(self.rid_a[index]),
            rid_b=int(self.rid_b[index]),
            seed_pos_a=self.seed_pos_a[lo:hi].copy(),
            seed_pos_b=self.seed_pos_b[lo:hi].copy(),
            seed_same_strand=self.seed_same_strand[lo:hi].copy(),
        )

    def __iter__(self) -> Iterator[OverlapRecord]:
        for index in range(self.n_pairs):
            yield self.record(index)

    @classmethod
    def empty(cls) -> "OverlapTable":
        """A table with no pairs."""
        z = np.empty(0, dtype=np.int64)
        return cls(rid_a=z, rid_b=z.copy(), seed_offsets=np.zeros(1, dtype=np.int64),
                   seed_pos_a=z.copy(), seed_pos_b=z.copy(),
                   seed_same_strand=np.empty(0, dtype=bool))

    @staticmethod
    def _consolidation_order(ra: np.ndarray, rb: np.ndarray, pa: np.ndarray,
                             pb: np.ndarray, ss: np.ndarray) -> np.ndarray:
        """Stable sort order by (rid_a, rid_b, pos_a, pos_b, strand).

        A 5-key :func:`numpy.lexsort` costs five stable sort passes; RIDs and
        positions are small non-negative integers, so whenever the combined
        key widths fit the keys are bit-packed into one (or two) uint64
        words, cutting the passes to one (or two).  The packing is order
        isomorphic — each field gets exactly the bits its maximum needs — so
        the resulting order is identical to the full lexsort.
        """
        if ra.size == 0:
            return np.empty(0, dtype=np.int64)
        maxima = [int(arr.max()) for arr in (ra, rb, pa, pb)]
        if min(int(arr.min()) for arr in (ra, rb, pa, pb)) >= 0:
            b_ra, b_rb, b_pa, b_pb = (max(1, m.bit_length()) for m in maxima)
            u = [arr.astype(np.uint64) for arr in (ra, rb, pa, pb, ss)]
            if b_ra + b_rb + b_pa + b_pb + 1 <= 64:
                key = u[0]
                for value, width in zip(u[1:], (b_rb, b_pa, b_pb, 1)):
                    key = (key << np.uint64(width)) | value
                return np.argsort(key, kind="stable")
            if b_ra + b_rb <= 64 and b_pa + b_pb + 1 <= 64:
                major = (u[0] << np.uint64(b_rb)) | u[1]
                minor = (u[2] << np.uint64(b_pb + 1)) | (u[3] << np.uint64(1)) | u[4]
                return np.lexsort((minor, major))
        return np.lexsort((ss, pb, pa, rb, ra))

    @classmethod
    def from_pairs(cls, batch: PairBatch) -> "OverlapTable":
        """Consolidate a task batch into a table: one sort, no Python loops.

        Duplicate seeds (same pair, same positions and orientation — possible
        when a k-mer repeats inside a read) are removed; seeds end up sorted
        by ``(pos_a, pos_b)`` within each pair, pairs by ``(rid_a, rid_b)``.
        """
        if len(batch) == 0:
            return cls.empty()
        same = batch.same_strand.astype(np.int64)
        order = cls._consolidation_order(batch.rid_a, batch.rid_b, batch.pos_a,
                                         batch.pos_b, same)
        ra = batch.rid_a[order]
        rb = batch.rid_b[order]
        pa = batch.pos_a[order]
        pb = batch.pos_b[order]
        ss = same[order]

        # Drop duplicate (pair, seed) rows — adjacent after the lexsort.
        keep = np.ones(ra.size, dtype=bool)
        keep[1:] = ((ra[1:] != ra[:-1]) | (rb[1:] != rb[:-1]) | (pa[1:] != pa[:-1])
                    | (pb[1:] != pb[:-1]) | (ss[1:] != ss[:-1]))
        ra, rb, pa, pb, ss = ra[keep], rb[keep], pa[keep], pb[keep], ss[keep]

        # Pair boundaries: positions where (rid_a, rid_b) changes.
        boundary = np.ones(ra.size, dtype=bool)
        boundary[1:] = (ra[1:] != ra[:-1]) | (rb[1:] != rb[:-1])
        starts = np.flatnonzero(boundary)
        seed_offsets = np.append(starts, ra.size).astype(np.int64)

        return cls(
            rid_a=ra[starts].astype(np.int64),
            rid_b=rb[starts].astype(np.int64),
            seed_offsets=seed_offsets,
            seed_pos_a=pa.astype(np.int64),
            seed_pos_b=pb.astype(np.int64),
            seed_same_strand=ss.astype(bool),
        )


# ---------------------------------------------------------------------------
# Owner heuristics
# ---------------------------------------------------------------------------

def owner_heuristic_oddeven(rid_first: np.ndarray, rid_second: np.ndarray) -> np.ndarray:
    """Algorithm 1's odd/even owner choice, vectorised.

    ``rid_first``/``rid_second`` are the pair's read identifiers in
    *occurrence order* — the order in which the two occurrences of the shared
    k-mer were visited, **before** the ``rid_a < rid_b`` normalisation.
    Returns a boolean array: True where the task goes to the owner of
    ``rid_first``, False where it goes to the owner of ``rid_second``.  The
    rule is exactly the paper's:

    * ``rid_first`` even and ``rid_first > rid_second + 1`` → owner of ``rid_first``
    * ``rid_first`` odd  and ``rid_first < rid_second + 1`` → owner of ``rid_first``
    * otherwise → owner of ``rid_second``

    Evaluated on occurrence order both branches fire (an even first RID keeps
    the task when it is the larger of the two, an odd first RID when it is
    the smaller), so for uniformly distributed read identifiers the tasks
    split roughly evenly between the two reads' owners — which, combined
    with the uniform read partition, balances the alignment tasks per rank.
    Evaluating it on the *normalised* order instead (``rid_first <
    rid_second`` always) makes the even branch unsatisfiable and collapses
    the rule to "parity of the smaller RID" — the degenerate behaviour this
    signature change fixes.
    """
    rid_first = np.asarray(rid_first, dtype=np.int64)
    rid_second = np.asarray(rid_second, dtype=np.int64)
    even = (rid_first % 2) == 0
    return (even & (rid_first > rid_second + 1)) | (~even & (rid_first < rid_second + 1))


def choose_owner(
    rid_a: np.ndarray,
    rid_b: np.ndarray,
    read_owner: np.ndarray,
    swapped: np.ndarray | None = None,
) -> np.ndarray:
    """Destination rank of each task under Algorithm 1's odd/even rule.

    ``read_owner`` maps RID → owning rank (from the input read partition).

    ``swapped`` is the :attr:`PairBatch.swapped` annotation: True where the
    ``rid_a < rid_b`` normalisation flipped the pair's occurrence order.
    Algorithm 1 is defined on occurrence order, so the rule un-swaps before
    it applies; ``None`` means the inputs already are in occurrence order
    (nothing was normalised).
    """
    rid_a = np.asarray(rid_a, dtype=np.int64)
    rid_b = np.asarray(rid_b, dtype=np.int64)
    read_owner = np.asarray(read_owner, dtype=np.int64)
    if swapped is None:
        first, second = rid_a, rid_b
    else:
        swapped = np.asarray(swapped, dtype=bool)
        first = np.where(swapped, rid_b, rid_a)
        second = np.where(swapped, rid_a, rid_b)
    use_first = owner_heuristic_oddeven(first, second)
    chosen_rid = np.where(use_first, first, second)
    return read_owner[chosen_rid]


# ---------------------------------------------------------------------------
# Pair generation from a hash-table partition
# ---------------------------------------------------------------------------

#: Wire bytes of one pair row in the exchange matrix (5 int64 columns).
PAIR_WIRE_BYTES = 40


def pair_chunk_ranges(retained: RetainedKmers, max_chunk_bytes: int | None) -> list[tuple[int, int]]:
    """Split a partition's retained k-mers into bounded pair-generation chunks.

    Returns half-open k-mer index ranges ``(k0, k1)`` such that the pairs
    generated from each range fit in roughly ``max_chunk_bytes`` of wire
    payload (``PAIR_WIRE_BYTES`` per pair, before the ``rid_a != rid_b``
    filter — a conservative upper bound on the packed matrix).  A k-mer's
    pairs are never split across chunks, so a single k-mer whose c(c-1)/2
    expansion exceeds the budget gets a chunk of its own; the streaming
    overlap stage therefore bounds its in-flight exchange memory at
    ``max(max_chunk_bytes, largest single-k-mer expansion)`` per rank.

    ``max_chunk_bytes=None`` disables chunking (one range with everything),
    reproducing the monolithic single-Alltoallv exchange.
    """
    n = retained.n_kmers
    if n == 0:
        return []
    if max_chunk_bytes is None:
        return [(0, n)]
    counts = retained.counts().astype(np.int64)
    pair_counts = counts * (counts - 1) // 2
    cum = np.concatenate(([0], np.cumsum(pair_counts)))
    max_pairs = max(1, int(max_chunk_bytes) // PAIR_WIRE_BYTES)
    ranges: list[tuple[int, int]] = []
    start = 0
    while start < n:
        end = int(np.searchsorted(cum, cum[start] + max_pairs, side="right")) - 1
        end = min(max(end, start + 1), n)
        ranges.append((start, end))
        start = end
    return ranges


def generate_pairs(
    retained: RetainedKmers, kmer_range: tuple[int, int] | None = None
) -> PairBatch:
    """All read pairs sharing each retained k-mer of one partition.

    For a k-mer with occurrence list ``[(r_0, p_0), ..., (r_{c-1}, p_{c-1})]``
    every unordered pair ``{i, j}`` with ``r_i != r_j`` produces one task;
    a k-mer of multiplicity c contributes up to c(c-1)/2 tasks (the
    ``[2, m(m-1)/2]`` bound of §8).  Pairs are normalised so that
    ``rid_a < rid_b``.

    ``kmer_range`` restricts the expansion to the retained k-mers with index
    in ``[k0, k1)`` — the unit of the streaming overlap exchange (ranges come
    from :func:`pair_chunk_ranges`).  Concatenating the batches of a full
    cover of ranges yields exactly the pairs of a whole-partition call.

    The expansion is computed in one shot for *all* selected k-mers from the
    flat offsets/counts arrays: every occurrence at within-group index ``w``
    is paired with its ``w`` predecessors, so the pair list is built with a
    handful of ``repeat``/``cumsum`` operations instead of a per-k-mer loop.
    """
    if retained.n_kmers == 0 or retained.n_occurrences == 0:
        return PairBatch.empty()

    if kmer_range is None:
        k0, k1 = 0, retained.n_kmers
    else:
        k0, k1 = kmer_range
        if not (0 <= k0 <= k1 <= retained.n_kmers):
            raise ValueError(
                f"kmer_range {kmer_range} out of bounds for {retained.n_kmers} k-mers"
            )
    if k0 == k1:
        return PairBatch.empty()

    counts = retained.counts()[k0:k1]
    group_starts = retained.offsets[k0:k1]
    occ_lo, occ_hi = int(retained.offsets[k0]), int(retained.offsets[k1])
    n_occ = occ_hi - occ_lo
    if n_occ == 0:
        return PairBatch.empty()

    # Within-group index of every occurrence in the range: w[s + t] = t for
    # the group starting at s.  Occurrence j pairs with its w[j] predecessors.
    within = np.arange(occ_lo, occ_hi, dtype=np.int64) - np.repeat(group_starts, counts)
    reps = within  # occurrence j appears as the "right" element w[j] times
    total = int(reps.sum())
    if total == 0:
        return PairBatch.empty()

    # Right element of each pair: occurrence j repeated w[j] times.
    j_glob = np.repeat(np.arange(occ_lo, occ_hi, dtype=np.int64), reps)
    # Left element: for the block of pairs owned by occurrence j, the
    # predecessors group_start[g] .. j-1 in order.
    block_starts = np.concatenate(([0], np.cumsum(reps)))[:-1]
    offset_in_block = np.arange(total, dtype=np.int64) - np.repeat(block_starts, reps)
    i_glob = np.repeat(np.repeat(group_starts, counts), reps) + offset_in_block

    ra = retained.rids[i_glob]
    rb = retained.rids[j_glob]
    distinct = ra != rb
    if not distinct.any():
        return PairBatch.empty()
    ra, rb = ra[distinct], rb[distinct]
    pa = retained.positions[i_glob[distinct]]
    pb = retained.positions[j_glob[distinct]]
    same = retained.strands[i_glob[distinct]] == retained.strands[j_glob[distinct]]

    # Normalise so rid_a < rid_b (swap positions along with the rids); the
    # pre-normalisation occurrence order survives as the ``swapped`` bit so
    # Algorithm 1's owner rule can be applied to the order it is defined on.
    swap = ra > rb
    ra_norm = np.where(swap, rb, ra)
    rb_norm = np.where(swap, ra, rb)
    pa_norm = np.where(swap, pb, pa)
    pb_norm = np.where(swap, pa, pb)

    return PairBatch(
        rid_a=ra_norm.astype(np.int64),
        rid_b=rb_norm.astype(np.int64),
        pos_a=pa_norm.astype(np.int64),
        pos_b=pb_norm.astype(np.int64),
        same_strand=same.astype(np.int64),
        swapped=swap.astype(bool),
    )

