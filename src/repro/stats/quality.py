"""Overlap-detection quality against the simulator's ground truth.

The simulated reads carry their true genome coordinates, so recall and
precision of the detected overlap set can be computed exactly — the
"comparisons where the ground truth is known" that BELLA's quality analysis
(and therefore diBELLA's claim of inheriting it) is based on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Mapping


@dataclass(frozen=True)
class OverlapQuality:
    """Recall/precision of a detected overlap set against ground truth."""

    n_true: int
    n_detected: int
    true_positives: int

    @property
    def recall(self) -> float:
        """Fraction of true overlapping pairs that were detected."""
        if self.n_true == 0:
            return 1.0
        return self.true_positives / self.n_true

    @property
    def precision(self) -> float:
        """Fraction of detected pairs that are true overlaps.

        Note that "false positives" here include pairs whose genomic overlap
        is shorter than the ground-truth minimum-overlap cutoff, so precision
        against a strict cutoff understates the detector's real precision —
        the same caveat BELLA's evaluation makes.
        """
        if self.n_detected == 0:
            return 1.0
        return self.true_positives / self.n_detected


def overlap_recall_precision(
    detected: Collection[tuple[int, int]],
    truth: Mapping[tuple[int, int], int] | Collection[tuple[int, int]],
) -> OverlapQuality:
    """Compare a detected overlap-pair set against the ground-truth pairs.

    Both inputs use ``(rid_a, rid_b)`` keys with ``rid_a < rid_b``; *truth*
    may be the dict produced by :func:`repro.data.datasets.true_overlaps`
    (its values, the overlap lengths, are ignored here).
    """
    detected_set = {(min(a, b), max(a, b)) for a, b in detected}
    truth_set = {(min(a, b), max(a, b)) for a, b in truth}
    tp = len(detected_set & truth_set)
    return OverlapQuality(
        n_true=len(truth_set),
        n_detected=len(detected_set),
        true_positives=tp,
    )
