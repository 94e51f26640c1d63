"""Stage-4 alignment: one batched x-drop call over a rank's task arrays.

The alignment stage of the pipeline receives, on every rank, a flat batch of
alignment *tasks* — (read pair, seed) rows — and aligns them all locally
("once the reads are communicated, the alignment computation can proceed
independently in parallel", §9).  :func:`batched_xdrop_align` is that step:
arrays in (a :class:`TaskBatch` plus the rank's :class:`ReadCache`), arrays
out (one record per task).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.align.batched_xdrop import (
    DEFAULT_XDROP_BAND,
    BatchedExtensionConfig,
    batched_extend,
)
from repro.align.read_cache import ReadCache
from repro.align.scoring import ScoringScheme

#: One row of :func:`batched_xdrop_align`'s result: the score, the aligned
#: half-open interval on each read (read B in its task orientation) and the
#: DP cells the two extensions filled.
RESULT_DTYPE = np.dtype([(name, np.int64) for name in
                         ("score", "start_a", "end_a", "start_b", "end_b", "cells")])


@dataclass(frozen=True)
class TaskBatch:
    """A flat batch of alignment tasks, structure-of-arrays style.

    The overlap stage emits one of these per rank, and the alignment stage
    passes it straight to :func:`batched_xdrop_align`, so task construction
    and the bookkeeping around the kernel (which reads are needed, which
    results were accepted) stay vectorised.  Row *i* is one pairwise
    alignment: reads ``rid_a[i] < rid_b[i]`` share a seed k-mer at
    ``seed_pos_a[i]`` / ``seed_pos_b[i]`` (forward-strand coordinates of each
    read); ``same_strand[i]`` is False when read B must be
    reverse-complemented before extending, in which case the kernel remaps
    its seed position into reverse-complement coordinates.
    """

    rid_a: np.ndarray        # (n,) int64
    rid_b: np.ndarray        # (n,) int64
    seed_pos_a: np.ndarray   # (n,) int64
    seed_pos_b: np.ndarray   # (n,) int64
    same_strand: np.ndarray  # (n,) bool

    def __post_init__(self) -> None:
        sizes = {self.rid_a.size, self.rid_b.size, self.seed_pos_a.size,
                 self.seed_pos_b.size, self.same_strand.size}
        if len(sizes) != 1:
            raise ValueError("all TaskBatch arrays must have the same length")

    def __len__(self) -> int:
        return int(self.rid_a.size)

    def rids(self) -> np.ndarray:
        """Sorted unique RIDs referenced by any task in the batch."""
        if len(self) == 0:
            return np.empty(0, dtype=np.int64)
        return np.unique(np.concatenate([self.rid_a, self.rid_b]))

    @classmethod
    def empty(cls) -> "TaskBatch":
        z = np.empty(0, dtype=np.int64)
        return cls(rid_a=z, rid_b=z.copy(), seed_pos_a=z.copy(), seed_pos_b=z.copy(),
                   same_strand=np.empty(0, dtype=bool))


def batched_xdrop_align(
    tasks: TaskBatch,
    cache: ReadCache,
    k: int = 17,
    scoring: ScoringScheme | None = None,
    xdrop: int = 25,
    band: int = DEFAULT_XDROP_BAND,
) -> np.recarray:
    """Align every task with the task-batched banded x-drop kernel.

    Each task is split into a forward extension (from the end of its seed)
    and a backward extension (from the start of its seed, on reversed
    prefixes); the two extension batches run through one
    :func:`~repro.align.batched_xdrop.batched_extend` call each and are
    recombined column-wise with the seed's ``k`` matches.

    Every read a task references must already be in *cache*.  The code
    arrays come from it — one ``encoded(rid_a)`` and one
    ``encoded``/``encoded_rc(rid_b)`` lookup per task, in task order — so
    each distinct read (and reverse complement) is encoded at most once and
    a persistent cache carries the buffers, and the hit/miss accounting,
    across calls.

    Returns
    -------
    numpy.recarray
        One :data:`RESULT_DTYPE` row per task, in task order.  ``start_b`` /
        ``end_b`` are coordinates on read B as the task orients it (reverse
        complement coordinates for a cross-strand task).
    """
    scoring = scoring or ScoringScheme()
    seeds: list[tuple[int, int]] = []
    fwd_a: list[np.ndarray] = []
    fwd_b: list[np.ndarray] = []
    back_a: list[np.ndarray] = []
    back_b: list[np.ndarray] = []
    columns = zip(tasks.rid_a.tolist(), tasks.rid_b.tolist(), tasks.seed_pos_a.tolist(),
                  tasks.seed_pos_b.tolist(), tasks.same_strand.tolist())
    for rid_a, rid_b, pos_a, pos_b, same_strand in columns:
        codes_a = cache.encoded(rid_a)
        if same_strand:
            codes_b = cache.encoded(rid_b)
        else:
            codes_b = cache.encoded_rc(rid_b)
            pos_b = codes_b.size - k - pos_b
        # Clamp the seed so that degenerate positions near the read ends
        # (possible when the k-mer sits at the very end) still form a task.
        sa = min(max(0, pos_a), max(0, codes_a.size - k))
        sb = min(max(0, pos_b), max(0, codes_b.size - k))
        seeds.append((sa, sb))
        fwd_a.append(codes_a[sa + k :])
        fwd_b.append(codes_b[sb + k :])
        back_a.append(codes_a[:sa][::-1])
        back_b.append(codes_b[:sb][::-1])

    seed_a, seed_b = np.array(seeds, dtype=np.int64).reshape(-1, 2).T
    config = BatchedExtensionConfig(xdrop=xdrop, band=band)
    # Columns of both: score, length_a, length_b, cells.
    fwd = batched_extend(fwd_a, fwd_b, scoring, config)
    back = batched_extend(back_a, back_b, scoring, config)
    return np.rec.fromarrays(
        [scoring.match * k + fwd[:, 0] + back[:, 0],
         seed_a - back[:, 1], seed_a + k + fwd[:, 1],
         seed_b - back[:, 2], seed_b + k + fwd[:, 2],
         fwd[:, 3] + back[:, 3]],
        dtype=RESULT_DTYPE,
    )
