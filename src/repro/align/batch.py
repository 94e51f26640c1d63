"""Stage-4 alignment: one batched x-drop call over a rank's task arrays.

The alignment stage of the pipeline receives, on every rank, a flat batch of
alignment *tasks* — (read pair, seed) rows — and aligns them all locally
("once the reads are communicated, the alignment computation can proceed
independently in parallel", §9).  :func:`batched_xdrop_align` is that step:
arrays in (a :class:`TaskBatch` plus the rank's :class:`ReadCache`), arrays
out (one record per task).  In between is array work only: the touched
reads' forward codes are gathered once into one arena, and every extension
becomes a descriptor into it (:func:`task_sides`) that the kernel reads in
place — backwards for a backward extension, complemented for a
cross-strand read.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro.align.batched_xdrop import (
    DEFAULT_XDROP_BAND,
    BatchedExtensionConfig,
    extend_sides,
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
    tiers: Counter | None = None,
) -> np.recarray:
    """Align every task with the task-batched banded x-drop kernel.

    Each task is split into a forward extension (from the end of its seed)
    and a backward extension (from the start of its seed, reading the
    prefixes backwards); the two extension batches run through one
    :func:`~repro.align.batched_xdrop.extend_sides` call each and are
    recombined column-wise with the seed's ``k`` matches.

    Every read a task references must already be in *cache*.  The call
    gathers the forward codes of the touched reads once, into one arena
    (:meth:`ReadCache.code_arena`, which also counts one lookup per task
    side), and every extension is a descriptor into it
    (:func:`task_sides`), so no per-task Python runs.  *tiers*, when
    given, gains the number of extensions each kernel tier ran (see
    :func:`~repro.align.batched_xdrop.extend_sides`).

    Returns
    -------
    numpy.recarray
        One :data:`RESULT_DTYPE` row per task, in task order.  ``start_b`` /
        ``end_b`` are coordinates on read B as the task orients it (reverse
        complement coordinates for a cross-strand task).
    """
    scoring = scoring or ScoringScheme()
    if len(tasks) == 0:
        return np.recarray(0, dtype=RESULT_DTYPE)
    # One lookup per task side in task order: read A forwards, read B in
    # the task's orientation.
    lookups = np.stack([tasks.rid_a, tasks.rid_b], axis=1).ravel()
    forward = np.stack([np.ones(len(tasks), dtype=bool), tasks.same_strand], axis=1).ravel()
    rids, arena, offsets = cache.code_arena(lookups, forward)
    fwd, back, seed_a, seed_b = task_sides(tasks, rids, offsets, k)
    config = BatchedExtensionConfig(xdrop=xdrop, band=band)
    # Columns of both: score, length_a, length_b, cells.
    fwd = extend_sides(arena, fwd, scoring, config, tiers)
    back = extend_sides(arena, back, scoring, config, tiers)
    return np.rec.fromarrays(
        [scoring.match * k + fwd[:, 0] + back[:, 0],
         seed_a - back[:, 1], seed_a + k + fwd[:, 1],
         seed_b - back[:, 2], seed_b + k + fwd[:, 2],
         fwd[:, 3] + back[:, 3]],
        dtype=RESULT_DTYPE,
    )


def task_sides(
    tasks: TaskBatch, rids: np.ndarray, offsets: np.ndarray, k: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The forward and backward extension descriptors of every task.

    *rids* are the sorted RIDs of a code arena and ``offsets[i] ..
    offsets[i + 1]`` the span of ``rids[i]`` in it.  Returns ``(forward,
    backward, seed_a, seed_b)``: two ``(n, 2, 4)`` side arrays in the layout
    of :func:`~repro.align.batched_xdrop.extend_sides` and the clamped seed
    positions, read B's in the task's orientation.  With arena offset ``o``,
    read length ``L`` and clamped seed ``s``:

    ======================== =============== ============== ==== ==========
    side                     start           length         step complement
    ======================== =============== ============== ==== ==========
    forward                  ``o+s+k``       ``L-s-k`` (≥0) +1   0
    backward                 ``o+s-1``       ``s``          -1   0
    cross-strand b, forward  ``o+L-1-s-k``   ``L-s-k`` (≥0) -1   3
    cross-strand b, backward ``o+L-s``       ``s``          +1   3
    ======================== =============== ============== ==== ==========

    A cross-strand task's B seed is first remapped to ``L - k - pos`` (its
    reverse-complement coordinate).  Seeds are clamped to ``[0, max(0, L -
    k)]`` so that degenerate positions near the read ends still form a
    task, and a side of length 0 gets start 0, so no index before the
    arena is ever formed.
    """
    index_a = np.searchsorted(rids, tasks.rid_a)
    index_b = np.searchsorted(rids, tasks.rid_b)
    offset_a, offset_b = offsets[index_a], offsets[index_b]
    len_a = offsets[index_a + 1] - offset_a
    len_b = offsets[index_b + 1] - offset_b
    cross = ~tasks.same_strand
    pos_b = np.where(cross, len_b - k - tasks.seed_pos_b, tasks.seed_pos_b)
    seed_a = np.minimum(np.maximum(0, tasks.seed_pos_a), np.maximum(0, len_a - k))
    seed_b = np.minimum(np.maximum(0, pos_b), np.maximum(0, len_b - k))
    # Side columns: start, length, step, complement (the table above).
    forward = np.empty((len(tasks), 2, 4), dtype=np.int64)
    backward = np.empty_like(forward)
    forward[:, 0, 0] = offset_a + seed_a + k
    forward[:, 0, 1] = np.maximum(len_a - seed_a - k, 0)
    forward[:, 0, 2:] = (1, 0)
    backward[:, 0, 0] = offset_a + seed_a - 1
    backward[:, 0, 1] = seed_a
    backward[:, 0, 2:] = (-1, 0)
    forward[:, 1, 0] = np.where(cross, offset_b + len_b - 1 - seed_b - k, offset_b + seed_b + k)
    forward[:, 1, 1] = np.maximum(len_b - seed_b - k, 0)
    forward[:, 1, 2] = np.where(cross, -1, 1)
    backward[:, 1, 0] = np.where(cross, offset_b + len_b - seed_b, offset_b + seed_b - 1)
    backward[:, 1, 1] = seed_b
    backward[:, 1, 2] = -forward[:, 1, 2]
    forward[:, 1, 3] = backward[:, 1, 3] = 3 * cross
    for sides in (forward, backward):
        sides[..., 0] *= sides[..., 1] > 0
    return forward, backward, seed_a, seed_b
