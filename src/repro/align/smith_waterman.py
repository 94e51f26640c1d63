"""Full Smith–Waterman local alignment (reference kernel).

This is the O(|s|·|t|) dynamic program of §2 — too expensive for production
use on long reads, but exact, which makes it the oracle the x-drop
kernels are validated against.

The matrix is filled row by row with vectorised numpy operations across the
columns; an optional traceback materialises the gapped alignment strings so
tests can check the formal alignment properties listed in §2.
"""

from __future__ import annotations

import numpy as np

from repro.align.results import AlignmentResult
from repro.align.scoring import ScoringScheme
from repro.seq.encoding import encode_sequence


def smith_waterman(
    a: str,
    b: str,
    scoring: ScoringScheme | None = None,
    traceback: bool = False,
) -> AlignmentResult:
    """Optimal local alignment of *a* against *b*.

    Parameters
    ----------
    a, b:
        DNA sequences (ACGT).
    scoring:
        Scoring scheme; defaults to +1/-1/-1.
    traceback:
        If True, also reconstruct the gapped alignment strings (costs
        O(|a|·|b|) extra memory for the pointer matrix).
    """
    scoring = scoring or ScoringScheme()
    n, m = len(a), len(b)
    if n == 0 or m == 0:
        return AlignmentResult(score=0, start_a=0, end_a=0, start_b=0, end_b=0,
                               cells=0, kernel="smith_waterman",
                               aligned_a="" if traceback else None,
                               aligned_b="" if traceback else None)

    codes_a = encode_sequence(a).astype(np.int16)
    codes_b = encode_sequence(b).astype(np.int16)

    match, mismatch, gap = scoring.match, scoring.mismatch, scoring.gap

    prev = np.zeros(m + 1, dtype=np.int32)
    score_matrix = np.zeros((n + 1, m + 1), dtype=np.int32) if traceback else None

    best_score = 0
    best_i = 0
    best_j = 0

    # Per-column weights for the prefix-max resolution of the within-row gap
    # dependency: S[i, j] = max_{j' <= j} (base[i, j'] + gap * (j - j')), so
    # subtracting gap*j, taking a running maximum, and adding gap*j back gives
    # the whole row without a Python loop over columns.
    gap_weights = gap * np.arange(1, m + 1, dtype=np.int32)

    for i in range(1, n + 1):
        # Substitution scores of row i against every column.
        sub = np.where(codes_b == codes_a[i - 1], match, mismatch).astype(np.int32)
        diag = prev[:-1] + sub          # match/mismatch from (i-1, j-1)
        up = prev[1:] + gap             # gap in b (deletion) from (i-1, j)
        current = np.zeros(m + 1, dtype=np.int32)
        base = np.maximum(np.maximum(diag, up), 0)
        running = np.maximum.accumulate(base - gap_weights)
        row = np.maximum(base, running + gap_weights)
        current[1:] = row
        if traceback:
            score_matrix[i, :] = current
        row_best = int(row.max(initial=0))
        if row_best > best_score:
            best_score = row_best
            best_i = i
            best_j = int(row.argmax()) + 1
        prev = current

    cells = n * m

    if best_score == 0:
        return AlignmentResult(score=0, start_a=0, end_a=0, start_b=0, end_b=0,
                               cells=cells, kernel="smith_waterman",
                               aligned_a="" if traceback else None,
                               aligned_b="" if traceback else None)

    if not traceback:
        # Without the full matrix we cannot recover the start coordinates
        # exactly; report the end point and a span bounded by the score.
        span = best_score // scoring.match if scoring.match else 0
        return AlignmentResult(
            score=best_score,
            start_a=max(0, best_i - span), end_a=best_i,
            start_b=max(0, best_j - span), end_b=best_j,
            cells=cells, kernel="smith_waterman",
        )

    # Traceback from (best_i, best_j) until a zero cell.
    aligned_a: list[str] = []
    aligned_b: list[str] = []
    i, j = best_i, best_j
    while i > 0 and j > 0 and score_matrix[i, j] > 0:
        score_here = score_matrix[i, j]
        sub = match if a[i - 1] == b[j - 1] else mismatch
        if score_here == score_matrix[i - 1, j - 1] + sub:
            aligned_a.append(a[i - 1])
            aligned_b.append(b[j - 1])
            i -= 1
            j -= 1
        elif score_here == score_matrix[i - 1, j] + gap:
            aligned_a.append(a[i - 1])
            aligned_b.append("-")
            i -= 1
        elif score_here == score_matrix[i, j - 1] + gap:
            aligned_a.append("-")
            aligned_b.append(b[j - 1])
            j -= 1
        else:  # pragma: no cover - defensive; recurrence guarantees one branch
            break

    return AlignmentResult(
        score=best_score,
        start_a=i, end_a=best_i,
        start_b=j, end_b=best_j,
        cells=cells, kernel="smith_waterman",
        aligned_a="".join(reversed(aligned_a)),
        aligned_b="".join(reversed(aligned_b)),
    )
