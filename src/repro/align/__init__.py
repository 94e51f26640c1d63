"""Pairwise alignment kernels.

diBELLA performs each pairwise alignment on a single node with an x-drop
seed-and-extend kernel (the SeqAn implementation in the original, §2).  This
subpackage provides that kernel plus the reference kernels used for testing:

* :mod:`repro.align.smith_waterman` — full O(|s|·|t|) local alignment
  (Smith–Waterman), the ground-truth oracle.
* :mod:`repro.align.xdrop` — seed-and-extend with x-drop termination
  ("terminate early when the alignment score drops significantly", §2),
  the unbounded scalar reference of the production kernel.
* :mod:`repro.align.batched_xdrop` — the task-batched banded x-drop
  kernel stage 4 runs: one call extends a whole batch of (a, b) code-array
  pairs and returns an ``(n, 4)`` array of scores, reaches and DP cells.
* :mod:`repro.align.batch` — stage 4's entry point: ``batched_xdrop_align``
  takes a rank's ``TaskBatch`` columns and its ``ReadCache`` and returns one
  record per task (score, aligned intervals, DP cells).

All kernels count the DP cells they actually fill; that count is the
alignment stage's work measure (divergent pairs terminate early and fill far
fewer cells — the source of the paper's Figure 8 load imbalance).
"""

from repro.align.scoring import ScoringScheme
from repro.align.results import AlignmentResult, ExtensionResult
from repro.align.smith_waterman import smith_waterman
from repro.align.xdrop import xdrop_extend, xdrop_seed_extend
from repro.align.batch import TaskBatch, batched_xdrop_align
from repro.align.read_cache import ReadCache

__all__ = [
    "ScoringScheme",
    "AlignmentResult",
    "ExtensionResult",
    "smith_waterman",
    "xdrop_extend",
    "xdrop_seed_extend",
    "TaskBatch",
    "batched_xdrop_align",
    "ReadCache",
]
