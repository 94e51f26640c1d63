"""Alignment scoring schemes.

A linear-gap scheme (match reward, mismatch and gap penalties) is what both
BELLA's x-drop kernel and the classic Smith–Waterman formulation use.  The
defaults are +1 match, -2 mismatch, -2 gap: with a 4-letter alphabet the
milder (+1, -1, -1) scheme has *positive* expected score on unrelated
sequences (the linear phase of local alignment statistics), which would stop
the x-drop rule from ever firing; the -2 penalties keep unrelated sequences
on a negative drift — preserving the paper's "x-drop returns much faster when
the two sequences are divergent" behaviour (§9) — while genuine long-read
overlaps (10-25% divergence) still extend with a strongly positive drift.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ScoringScheme:
    """Linear-gap alignment scoring.

    Attributes
    ----------
    match:
        Score added for a matching pair of bases (must be positive).
    mismatch:
        Score added for a mismatching pair (must be non-positive).
    gap:
        Score added per inserted/deleted base (must be non-positive).
    """

    match: int = 1
    mismatch: int = -2
    gap: int = -2

    def __post_init__(self) -> None:
        if self.match <= 0:
            raise ValueError("match score must be positive")
        if self.mismatch > 0:
            raise ValueError("mismatch score must be non-positive")
        if self.gap > 0:
            raise ValueError("gap score must be non-positive")
