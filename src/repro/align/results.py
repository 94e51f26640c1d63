"""Result containers shared by the alignment kernels."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ExtensionResult:
    """Result of extending an alignment in one direction from a fixed point.

    Attributes
    ----------
    score:
        Best alignment score reached during the extension (>= 0).
    length_a / length_b:
        How far the best-scoring extension reached into each sequence,
        measured from the extension origin.
    cells:
        Number of DP cells evaluated — the work counter used by the cost
        model and the load-imbalance analysis.
    """

    score: int
    length_a: int
    length_b: int
    cells: int


@dataclass(frozen=True)
class AlignmentResult:
    """A pairwise alignment of (a segment of) two sequences.

    Coordinates are 0-based half-open intervals on each input sequence; the
    alignment covers ``a[start_a:end_a]`` against ``b[start_b:end_b]``.

    Attributes
    ----------
    score:
        Alignment score under the scoring scheme used by the kernel.
    start_a / end_a / start_b / end_b:
        Aligned interval on each sequence.
    cells:
        DP cells evaluated to produce this alignment (work counter).
    kernel:
        Name of the kernel that produced the result (``"xdrop"`` or
        ``"smith_waterman"``).
    aligned_a / aligned_b:
        Optional gapped alignment strings (only produced by kernels asked for
        a traceback; ``None`` otherwise).  When present they satisfy the
        pairwise-alignment properties of §2 of the paper: equal length, no
        column with two gaps, and removing gaps recovers the aligned
        substrings.
    """

    score: int
    start_a: int
    end_a: int
    start_b: int
    end_b: int
    cells: int
    kernel: str
    aligned_a: str | None = None
    aligned_b: str | None = None

    @property
    def span_a(self) -> int:
        """Number of bases of sequence *a* covered by the alignment."""
        return self.end_a - self.start_a

    @property
    def span_b(self) -> int:
        """Number of bases of sequence *b* covered by the alignment."""
        return self.end_b - self.start_b

    def identity(self) -> float | None:
        """Fraction of alignment columns that are exact matches.

        Only available when the kernel produced a traceback; ``None``
        otherwise.
        """
        if self.aligned_a is None or self.aligned_b is None:
            return None
        if not self.aligned_a:
            return 0.0
        matches = sum(1 for x, y in zip(self.aligned_a, self.aligned_b) if x == y and x != "-")
        return matches / len(self.aligned_a)
