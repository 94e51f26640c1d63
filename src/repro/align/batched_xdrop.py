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

Two tiers run that recurrence.  The compiled tier (``_xdrop.c``) vectorises
across tasks too, in C: each task gets one int32 lane of a SIMD vector, and
the lanes of a group step through DP rows together, each running the scalar
recurrence with masks for band edges and finished tasks.  The library picks
its lane width from the CPU at run time — 16 lanes with AVX-512F+BW, 8 with
AVX2, otherwise 4 on the baseline instruction set — so the build command
carries no ``-m`` flag and one cached library serves every CPU of a machine
type.  :func:`_extend_native` orders a call's tasks by
``min(len_a, len_b)`` so that the lanes of a group finish together, and
scatters the results back into input order.  There is no scalar C loop: the
4-lane kernel runs wherever one would.

The compiled tier is built with ``cc`` on the first kernel call — never at
import — cached under ``$XDG_CACHE_HOME/repro/`` and called through
:mod:`ctypes`, which releases the GIL, so thread-backend ranks align
concurrently.  The NumPy body (:func:`_extend_numpy`) is the reference the
compiled tier is tested against bit for bit, at every lane width, and the
path taken whenever the compiled tier is unavailable (no compiler, compile
or load error, unusable cache directory) or a batch could overflow its int32
lanes.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
import tempfile
import threading
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

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

    Runs the compiled tier when it is available and the batch fits its int32
    lanes, the NumPy kernel otherwise; both return identical results.

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
    kernel = native_kernel()
    if kernel is not None:
        results = _extend_native(kernel, seqs_a, seqs_b, scoring, config)
        if results is not None:
            return results
    return _extend_numpy(seqs_a, seqs_b, scoring, config)


def _extend_numpy(
    seqs_a: list[np.ndarray],
    seqs_b: list[np.ndarray],
    scoring: ScoringScheme,
    config: BatchedExtensionConfig,
) -> np.ndarray:
    """The NumPy kernel: all tasks advance one DP row per iteration."""
    n_tasks = len(seqs_a)
    match, mismatch, gap = scoring.match, scoring.mismatch, scoring.gap
    band = config.band
    half = band // 2

    len_a = np.array([s.size for s in seqs_a], dtype=np.int64)
    len_b = np.array([s.size for s in seqs_b], dtype=np.int64)

    a_pad = _pad_sequences(seqs_a)
    b_pad = _pad_sequences(seqs_b)

    max_rows = int(len_a.max(initial=0))
    if config.max_rows is not None:
        max_rows = min(max_rows, config.max_rows)

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

_C_SOURCE = Path(__file__).with_name("_xdrop.c")
_CC_COMMAND = ("cc", "-O2", "-shared", "-fPIC")
#: Exclusive bound on (max len_a + max len_b + band) * largest |score|: keeps
#: every value the kernel computes, sentinel-derived ones included, inside
#: int32 (the sentinel is -2**28).
_INT32_BOUND = 2**30

_NATIVE_LOCK = threading.Lock()
_NATIVE: dict[str, object] = {}

_ptr = ctypes.c_void_p
_i32 = ctypes.c_int32
_i64 = ctypes.c_int64
_KERNEL_ARGTYPES = (_i64, _i64, _ptr, _ptr, _ptr, _ptr, _i32, _i32, _i32,
                    _i64, _i64, _i64, _ptr, _ptr)


class NativeKernel(NamedTuple):
    """The loaded compiled tier: its entry point and this CPU's lane width."""

    extend: Callable[..., int]
    #: The widest lane count the CPU runs (16 with AVX-512F+BW, 8 with AVX2,
    #: otherwise 4), chosen by the library's own CPU check.
    lanes: int


def native_kernel() -> NativeKernel | None:
    """The compiled kernel, built and loaded on the first call in a process.

    Returns ``None`` when the compiled tier is unavailable; callers then run
    :func:`_extend_numpy`.  The outcome is remembered for the process.
    """
    if "kernel" not in _NATIVE:
        with _NATIVE_LOCK:
            if "kernel" not in _NATIVE:
                _NATIVE["kernel"] = load_library(_cache_dir())
    return _NATIVE["kernel"]


def _cache_dir() -> Path:
    root = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(root):
        root = os.path.join(os.path.expanduser("~"), ".cache")
    return Path(root) / "repro"


def _library_path(cache_dir: Path) -> Path:
    """Cache entry named after the source, the compile command and the CPU."""
    digest = hashlib.sha256()
    digest.update(_C_SOURCE.read_bytes())
    digest.update(" ".join(_CC_COMMAND).encode())
    digest.update(platform.machine().encode())
    return cache_dir / f"xdrop-{digest.hexdigest()[:16]}.so"


def _check_cache_dir(cache_dir: Path) -> None:
    """Create *cache_dir* (mode 0700); refuse one another user could write."""
    cache_dir.mkdir(mode=0o700, parents=True, exist_ok=True)
    info = cache_dir.stat()
    if info.st_uid != os.getuid() or info.st_mode & 0o022:
        raise PermissionError(f"{cache_dir} is not a private cache directory")


def _compile(path: Path) -> None:
    """Compile the kernel to *path* atomically (temp file + ``os.replace``).

    The library is written with its SHA-256 appended (the loader ignores
    bytes past the ELF image), so :func:`_intact` can tell a complete cache
    entry from a truncated or corrupt one.  Concurrent thread or process
    ranks each build their own temp file; the replace is atomic, so no rank
    ever loads a half-written library.
    """
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    os.close(fd)
    try:
        subprocess.run([*_CC_COMMAND, "-o", tmp, str(_C_SOURCE)],
                       check=True, capture_output=True, timeout=120)
        library = Path(tmp).read_bytes()
        Path(tmp).write_bytes(library + hashlib.sha256(library).digest())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _intact(path: Path) -> bool:
    """True when *path* holds a complete library: its trailing digest matches.

    Checked before loading because mapping a truncated library can kill the
    process with SIGBUS instead of raising.
    """
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return False
    return len(data) > 32 and hashlib.sha256(data[:-32]).digest() == data[-32:]


def load_library(cache_dir: Path) -> NativeKernel | None:
    """Build (if not cached intact) and load the compiled kernel from *cache_dir*.

    Returns the bound kernel, or ``None`` on any failure: no compiler, a
    compile error, an unusable cache directory or a library that does not
    load.  A truncated or corrupt cache entry is rebuilt.
    """
    try:
        _check_cache_dir(cache_dir)
        path = _library_path(cache_dir)
        if not _intact(path):
            _compile(path)
        library = ctypes.CDLL(str(path))
        extend, lanes = library.xdrop_extend_batch, library.xdrop_lanes
    except (OSError, AttributeError, subprocess.SubprocessError):
        return None
    extend.argtypes = _KERNEL_ARGTYPES
    extend.restype = ctypes.c_int
    lanes.argtypes = ()
    lanes.restype = _i64
    return NativeKernel(extend, int(lanes()))


def _concat_codes(seqs: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Flat uint8 codes and their (n + 1) int64 offsets."""
    offsets = np.zeros(len(seqs) + 1, dtype=np.int64)
    np.cumsum([s.size for s in seqs], out=offsets[1:])
    codes = np.ascontiguousarray(np.concatenate(seqs), dtype=np.uint8)
    return codes, offsets


def _extend_native(
    kernel: NativeKernel,
    seqs_a: list[np.ndarray],
    seqs_b: list[np.ndarray],
    scoring: ScoringScheme,
    config: BatchedExtensionConfig,
    lanes: int | None = None,
) -> np.ndarray | None:
    """Run the compiled kernel at *lanes* lanes (default: the CPU's widest).

    Returns ``None`` when its int32 lanes (or the int64 x-drop argument)
    could not represent the batch exactly.  Tasks run in order of
    ``min(len_a, len_b)``, so that the lanes of a group finish together;
    results come back in input order.
    """
    lanes = kernel.lanes if lanes is None else lanes
    n_tasks = len(seqs_a)
    len_a = np.fromiter((s.size for s in seqs_a), dtype=np.int64, count=n_tasks)
    len_b = np.fromiter((s.size for s in seqs_b), dtype=np.int64, count=n_tasks)
    max_a, max_b = int(len_a.max()), int(len_b.max())
    weight = max(abs(scoring.match), abs(scoring.mismatch), abs(scoring.gap))
    if (max_a + max_b + config.band) * weight >= _INT32_BOUND or config.xdrop >= 2**63:
        return None
    max_rows = max_a if config.max_rows is None else min(max_a, config.max_rows)
    order = np.argsort(np.minimum(len_a, len_b), kind="stable")
    a, a_off = _concat_codes([seqs_a[i] for i in order])
    b, b_off = _concat_codes([seqs_b[i] for i in order])
    # The size `_xdrop.c` documents: 64 bytes of alignment slack, two DP rows
    # of band + 1 lane vectors and one group's interleaved codes.
    scratch = np.empty(16 + lanes * (2 * (config.band + 1) + max_rows
                                     + min(max_b, max_rows + config.band)), dtype=np.int32)
    out = np.empty((n_tasks, 4), dtype=np.int64)
    status = kernel.extend(lanes, n_tasks, a.ctypes.data, a_off.ctypes.data,
                           b.ctypes.data, b_off.ctypes.data,
                           scoring.match, scoring.mismatch, scoring.gap,
                           config.xdrop, config.band, max_rows,
                           scratch.ctypes.data, out.ctypes.data)
    if status != 0:
        raise ValueError(f"this CPU cannot run the x-drop kernel at {lanes} lanes")
    results = np.empty_like(out)
    results[order] = out
    return results
