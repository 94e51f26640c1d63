"""Task-batched banded x-drop extension.

The alignment stage of a rank holds thousands of independent alignment
tasks.  Running an x-drop kernel task-by-task spends almost all of its
time in Python/numpy call overhead, because each DP row of each task is a
tiny array.  This module vectorises *across tasks*: all tasks
advance one DP row per iteration, so every numpy operation touches an
``(active_tasks, band)`` matrix and the interpreter overhead is amortised
over the whole batch — the "vectorise the outer loop" idiom the HPC guides
recommend.

Algorithmically this is a *banded* x-drop extension: each task's DP is
restricted to a fixed-width band around the seed diagonal (the paper's
"banded Smith-Waterman" speed-up, §2) and terminates early once the best
score of the current row falls more than ``xdrop`` below the task's best
score so far (the x-drop rule, §2).  Divergent pairs therefore stop after a
few rows, exactly the early-exit behaviour responsible for the paper's
alignment-stage load imbalance.

The left-within-row gap dependency is resolved without a per-column loop via
the prefix-maximum identity

    S[i, j] = max_j' <= j ( base[i, j'] + gap * (j - j') )
            = gap * j + running_max_j' <= j ( base[i, j'] - gap * j' )

computed with ``np.maximum.accumulate`` along the band axis.

Two tiers run that recurrence.  The compiled tier (``xdrop_extend_batch`` in
the library :mod:`repro.native` loads) vectorises across tasks too, in C:
each task gets one lane of a SIMD vector, and the lanes of a group step
through DP rows together, each running the scalar recurrence with masks for
band edges and finished tasks.  A task runs on int16 lanes when its
``(len_a + len_b + band) * max |score|`` is below 2**14 and the x-drop
below 2**13, on int32 lanes when that product is below 2**30, and on the
NumPy kernel otherwise (:func:`_lane_bits`).  The bound is per task, because
a lane's values depend only on its own task: :func:`extend_sides` splits a
call by it and scatters every part's results back into input order.  The
library picks its vector width from the CPU at run time — 512 bits (32
int16 or 16 int32 lanes) with AVX-512F+BW, 256 with AVX2, otherwise 128 on
the baseline instruction set — so the build command carries no ``-m`` flag
and one cached library serves every CPU of a machine type.
:func:`_extend_native` orders a part's tasks by ``min(len_a, len_b)`` so
that the lanes of a group finish together.  There is no scalar C loop: the
128-bit kernels run wherever one would.

Both tiers take a call's tasks as *side descriptors* into one flat arena of
2-bit codes (:func:`extend_sides`): side a and side b of each task are
``(start, length, step, complement)``, read as
``arena[start + step * j] ^ complement``.  Stage 4 points them into the
forward codes of its reads — a backward extension steps -1, and a
cross-strand side complements (``code ^ 3``) as it reads — so nothing is
sliced, reversed or copied per task.  :func:`batched_extend` is the adapter
for per-task code lists, and the NumPy kernel runs on the lists
:func:`_side_codes` builds from the same descriptors.

The kernel is called through :mod:`ctypes`, which releases the GIL, so
thread-backend ranks align concurrently.  The NumPy body (:func:`_extend_numpy`) is the
reference the compiled tier is tested against bit for bit, at every element
type and lane width, and the path taken whenever the library is unavailable
or a task could overflow int32 lanes.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro import native
from repro.align.scoring import ScoringScheme

#: Sentinel code used to pad sequences; never equal to a real base code.
_PAD = 250
_NEG_INF = np.int32(-(2**28))

#: Default band half-width shared by every x-drop entry point.  The scalar
#: and batched paths historically disagreed (33 vs 64), which made the same
#: task score differently depending on batch size; everything now references
#: this single constant (also the :class:`repro.core.config.PipelineConfig`
#: default).
DEFAULT_XDROP_BAND: int = 64


@dataclass(frozen=True)
class BatchedExtensionConfig:
    """Parameters of the batched extension kernel."""

    xdrop: int = 25
    band: int = DEFAULT_XDROP_BAND
    max_rows: int | None = None

    def __post_init__(self) -> None:
        if self.xdrop <= 0:
            raise ValueError("xdrop must be positive")
        if self.band < 3:
            raise ValueError("band must be at least 3")
        if self.max_rows is not None and self.max_rows < 1:
            raise ValueError("max_rows must be positive when given")


def _pad_sequences(seqs: list[np.ndarray]) -> np.ndarray:
    """Stack variable-length code arrays into one padded uint8 matrix.

    One flat ``np.concatenate`` plus a masked scatter instead of a per-row
    Python loop: the boolean mask of valid cells is row-major, so assigning
    the concatenated codes through it fills each row's prefix in order —
    the rows of the loop version, without row-count interpreter overhead.
    """
    n = len(seqs)
    lengths = np.fromiter((s.size for s in seqs), dtype=np.int64, count=n)
    max_len = int(lengths.max(initial=0))
    out = np.full((n, max_len + 1), _PAD, dtype=np.uint8)
    if n and lengths.any():
        flat = np.concatenate(seqs).astype(np.uint8, copy=False)
        mask = np.arange(max_len + 1, dtype=np.int64)[None, :] < lengths[:, None]
        out[mask] = flat
    return out


def batched_extend(
    seqs_a: list[np.ndarray],
    seqs_b: list[np.ndarray],
    scoring: ScoringScheme,
    config: BatchedExtensionConfig,
) -> np.ndarray:
    """Extend every (a, b) pair from its origin (0, 0), banded with x-drop.

    An adapter onto :func:`extend_sides`: the lists are concatenated into
    one arena and every side is read forwards.

    Parameters
    ----------
    seqs_a, seqs_b:
        Per-task 2-bit code arrays to align from their starts (suffixes for
        forward extensions, reversed prefixes for backward ones).
    scoring:
        Linear-gap scoring.
    config:
        Band width, x-drop threshold and optional row cap.

    Returns
    -------
    numpy.ndarray
        ``(n, 4)`` int64, one row per task in input order: the best score,
        how far the best-scoring cell reached into *a* and into *b* from the
        origin, and the DP cells evaluated.
    """
    if len(seqs_a) != len(seqs_b):
        raise ValueError("seqs_a and seqs_b must have the same length")
    if not seqs_a:
        return np.empty((0, 4), dtype=np.int64)
    return extend_sides(*_list_sides(seqs_a, seqs_b), scoring, config)


def _list_sides(
    seqs_a: list[np.ndarray], seqs_b: list[np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """``(arena, sides)`` for :func:`extend_sides` reading the lists forwards:
    the inverse of :func:`_side_codes`."""
    seqs = [*seqs_a, *seqs_b]
    lengths = np.fromiter((s.size for s in seqs), dtype=np.int64, count=len(seqs))
    sides = np.zeros((2, len(seqs_a), 4), dtype=np.int64)
    sides[..., 0] = np.where(lengths > 0, np.cumsum(lengths) - lengths, 0).reshape(2, -1)
    sides[..., 1] = lengths.reshape(2, -1)
    sides[..., 2] = 1
    arena = np.concatenate(seqs).astype(np.uint8, copy=False)
    return arena, sides.transpose(1, 0, 2)


def extend_sides(
    arena: np.ndarray,
    sides: np.ndarray,
    scoring: ScoringScheme,
    config: BatchedExtensionConfig,
    tiers: Counter | None = None,
) -> np.ndarray:
    """Extend every task described by *sides* from its origin (0, 0).

    Each task runs on the compiled kernel's int16 lanes when it fits them,
    on its int32 lanes when it fits those (:func:`_lane_bits`), and on the
    NumPy kernel otherwise or when the compiled tier is unavailable; every
    tier returns identical results.

    Parameters
    ----------
    arena:
        Flat uint8 2-bit codes every side reads from.
    sides:
        ``(n, 2, 4)`` int64: side a then side b of each task, each a
        ``(start, length, step, complement)`` descriptor whose code ``j`` is
        ``arena[start + step * j] ^ complement`` for ``j < length``, with
        step +1 or -1 and complement 0 or 3.  A side that reads outside
        the arena raises ``ValueError``; a side of length 0 reads nothing.
    scoring, config:
        As for :func:`batched_extend`, whose return value this matches.
    tiers:
        When given, gains the number of tasks each tier ran, under
        ``"int16"``, ``"int32"`` and ``"numpy"``.
    """
    if not len(sides):
        return np.empty((0, 4), dtype=np.int64)
    _check_sides(arena, sides)
    compiled = native.library()
    bits = np.zeros(len(sides)) if compiled is None else _lane_bits(sides, scoring, config)
    len_a = sides[:, 0, 1]
    # The NumPy kernel charges a task with no rows one row of cells when
    # another task of its call has rows, so every part keeps the call's
    # first row.
    first_row = min(_row_count(len_a, config), 1)
    results = np.empty((len(sides), 4), dtype=np.int64)
    for width, tier in _TIERS.items():
        part = np.flatnonzero(bits == width)
        if not part.size:
            continue
        rows = max(_row_count(len_a[part], config), first_row)
        if width:
            results[part] = _extend_native(compiled, arena, sides[part], scoring, config,
                                           width, rows=rows)
        else:
            results[part] = _extend_numpy(*_side_codes(arena, sides[part]), scoring, config,
                                          rows)
        if tiers is not None:
            tiers[tier] += part.size
    return results


def _check_sides(arena: np.ndarray, sides: np.ndarray) -> None:
    """Raise ``ValueError`` unless every side reads only codes of *arena*:
    the compiled kernel indexes the arena unchecked."""
    if sides.ndim != 3 or sides.shape[1:] != (2, 4):
        raise ValueError(f"sides must have shape (n, 2, 4), not {sides.shape}")
    start, length, step, complement = np.moveaxis(sides, -1, 0)
    last = start + step * (length - 1)
    used = length > 0
    if not ((length >= 0).all() and (np.abs(step) == 1).all()
            and ((complement == 0) | (complement == 3)).all()
            and (np.minimum(start, last)[used] >= 0).all()
            and (np.maximum(start, last)[used] < arena.size).all()):
        raise ValueError("every side needs step +-1, complement 0 or 3 and a span "
                         "inside the arena")


def _side_codes(arena: np.ndarray, sides: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """The per-task code lists of *sides* (see :func:`extend_sides`):
    ``(seqs_a, seqs_b)``, the input of :func:`_extend_numpy`."""
    flat_sides = sides.transpose(1, 0, 2).reshape(-1, 4)
    start, length, step, complement = flat_sides.T
    ends = np.cumsum(length)
    j = np.arange(int(ends[-1])) - np.repeat(ends - length, length)
    index = np.repeat(start, length) + np.repeat(step, length) * j
    flat = (arena[index] ^ np.repeat(complement, length)).astype(np.uint8)
    seqs = np.split(flat, ends[:-1])
    return seqs[:len(sides)], seqs[len(sides):]


def _row_count(len_a: np.ndarray, config: BatchedExtensionConfig) -> int:
    """The rows a call steps through: its longest side a, at most
    ``config.max_rows``."""
    rows = int(len_a.max(initial=0))
    return rows if config.max_rows is None else min(rows, config.max_rows)


def _extend_numpy(
    seqs_a: list[np.ndarray],
    seqs_b: list[np.ndarray],
    scoring: ScoringScheme,
    config: BatchedExtensionConfig,
    rows: int | None = None,
) -> np.ndarray:
    """The NumPy kernel: all tasks advance one DP row per iteration, for
    *rows* rows at most (default: :func:`_row_count` of the tasks)."""
    n_tasks = len(seqs_a)
    match, mismatch, gap = scoring.match, scoring.mismatch, scoring.gap
    band = config.band
    half = band // 2

    len_a = np.array([s.size for s in seqs_a], dtype=np.int64)
    len_b = np.array([s.size for s in seqs_b], dtype=np.int64)

    a_pad = _pad_sequences(seqs_a)
    b_pad = _pad_sequences(seqs_b)

    max_rows = _row_count(len_a, config) if rows is None else rows

    # Results (global, indexed by original task id).
    best_score = np.zeros(n_tasks, dtype=np.int64)
    best_i = np.zeros(n_tasks, dtype=np.int64)
    best_j = np.zeros(n_tasks, dtype=np.int64)
    cells = np.zeros(n_tasks, dtype=np.int64)

    # Active working set (compacted periodically).
    active = np.arange(n_tasks)

    # Row 0 of the band: cell (0, j) has score gap * j for j in [0, half],
    # -inf for j outside b or left of the band.
    w_idx = np.arange(band)
    j0 = w_idx - half  # column of band slot w at row 0
    prev = np.where(
        (j0 >= 0) & (j0[None, :] <= len_b[active, None]),
        (gap * np.maximum(j0, 0))[None, :],
        _NEG_INF,
    ).astype(np.int64)

    gap_j = gap * w_idx  # per-slot gap weight used by the prefix-max trick

    for row in range(1, max_rows + 1):
        if active.size == 0:
            break

        la = len_a[active]
        lb = len_b[active]

        # Column of band slot w at this row: j = row - half + w.
        j = row - half + w_idx[None, :]  # (1, band) broadcast over tasks
        j_valid = (j >= 0) & (j <= lb[:, None])

        # Substitution scores: compare a[row-1] against b[j-1].
        a_col = a_pad[active, min(row - 1, a_pad.shape[1] - 1)]
        b_cols = np.clip(j - 1, 0, b_pad.shape[1] - 1)
        b_vals = b_pad[active[:, None], b_cols]
        sub = np.where(b_vals == a_col[:, None], match, mismatch)
        sub_valid = j_valid & (j >= 1) & (row <= la)[:, None]

        # Diagonal predecessor S[row-1, j-1] sits at the same band slot.
        diag = np.where(sub_valid, prev + sub, _NEG_INF)
        # Up predecessor S[row-1, j] sits one slot to the right.
        up = np.full_like(prev, _NEG_INF)
        up[:, :-1] = prev[:, 1:]
        up = np.where(j_valid & (row <= la)[:, None], up + gap, _NEG_INF)

        base = np.maximum(diag, up)
        # Left-within-row dependency via the prefix-max identity.
        shifted = base - gap_j[None, :]
        running = np.maximum.accumulate(shifted, axis=1)
        current = np.maximum(base, running + gap_j[None, :])
        current = np.where(j_valid & (row <= la)[:, None], current, _NEG_INF)

        cells[active] += band

        # Track the best cell of every active task.
        row_best_slot = np.argmax(current, axis=1)
        row_best = current[np.arange(active.size), row_best_slot]
        improved = row_best > best_score[active]
        if improved.any():
            improved_tasks = active[improved]
            best_score[improved_tasks] = row_best[improved]
            best_i[improved_tasks] = row
            best_j[improved_tasks] = (row - half + row_best_slot)[improved]

        # x-drop termination plus end-of-sequence termination.
        alive = (row_best >= best_score[active] - config.xdrop) & (row < la)
        if not alive.all():
            active = active[alive]
            prev = current[alive]
        else:
            prev = current

    return np.stack([best_score, best_i, best_j, cells], axis=1)


# -- compiled tier -----------------------------------------------------------

#: Exclusive bounds on (len_a + len_b + band) * largest |score| of one task
#: for the compiled kernel's int16 and int32 lanes; int16 lanes also need
#: xdrop < _INT16_XDROP ("Exactness" in ``_native.c``).
_INT16_BOUND = 2**14
_INT16_XDROP = 2**13
_INT32_BOUND = 2**30

#: Tier of each element width :func:`_lane_bits` returns (0: NumPy), in the
#: order :func:`extend_sides` runs them.
_TIERS = {16: "int16", 32: "int32", 0: "numpy"}


def _lane_bits(
    sides: np.ndarray, scoring: ScoringScheme, config: BatchedExtensionConfig,
) -> np.ndarray:
    """Per task, the narrowest compiled lanes it fits: 16 or 32 bits, or 0
    when it fits neither (or the x-drop is past int64) and runs on NumPy.

    The bound is per task because a lane's values depend only on its own
    task: one long task does not move the rest of its call.
    """
    # Clamped: a weight of 2**30 or more fits no lanes at any length.
    weight = min(max(abs(scoring.match), abs(scoring.mismatch), abs(scoring.gap)),
                 _INT32_BOUND)
    span = (sides[:, 0, 1] + sides[:, 1, 1] + config.band) * weight
    fits16 = (span < _INT16_BOUND) & (config.xdrop < _INT16_XDROP)
    fits32 = (span < _INT32_BOUND) & (config.xdrop < 2**63)
    return np.where(fits16, 16, np.where(fits32, 32, 0))


def _extend_native(
    compiled: native.NativeLibrary,
    arena: np.ndarray,
    sides: np.ndarray,
    scoring: ScoringScheme,
    config: BatchedExtensionConfig,
    bits: int,
    lanes: int | None = None,
    rows: int | None = None,
) -> np.ndarray:
    """Run every task on the compiled kernel's *bits*-bit lanes.

    *arena* and *sides* are as for :func:`extend_sides`; the kernel reads
    every side in place, and every task must fit the lanes
    (:func:`_lane_bits`).  *lanes* defaults to the most the CPU runs at
    that width, *rows* to :func:`_row_count` of the tasks.  Tasks run in
    order of ``min(len_a, len_b)``, so that the lanes of a group finish
    together; results come back in input order.
    """
    lanes = compiled.lanes * 32 // bits if lanes is None else lanes
    len_a, len_b = sides[:, 0, 1], sides[:, 1, 1]
    max_rows = _row_count(len_a, config) if rows is None else rows
    order = np.argsort(np.minimum(len_a, len_b), kind="stable")
    ordered = np.ascontiguousarray(sides[order], dtype=np.int64)
    arena = np.ascontiguousarray(arena, dtype=np.uint8)
    # The size `_native.c` documents: 64 bytes of alignment slack, two DP rows
    # of band + 1 vectors and one group's interleaved codes.
    vectors = 2 * (config.band + 1) + max_rows + min(int(len_b.max()), max_rows + config.band)
    scratch = np.empty(64 + lanes * bits // 8 * vectors, dtype=np.uint8)
    out = np.empty((len(sides), 4), dtype=np.int64)
    status = compiled.xdrop_extend_batch(
        bits, lanes, len(sides), arena.ctypes.data, ordered.ctypes.data,
        scoring.match, scoring.mismatch, scoring.gap, config.xdrop, config.band, max_rows,
        scratch.ctypes.data, out.ctypes.data)
    if status != 0:
        raise ValueError(f"the compiled x-drop kernel does not run {lanes} int{bits} lanes "
                         f"(on this CPU, or at xdrop={config.xdrop})")
    results = np.empty_like(out)
    results[order] = out
    return results
