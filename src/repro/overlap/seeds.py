"""Seed-selection strategies for overlapping read pairs.

An overlapping pair of reads usually shares several retained k-mers.  How
many of them to use as alignment seeds is a runtime "exploration" parameter
(§8): more seeds means more alignment work but better coverage of pairs whose
first seed lands badly.  The paper's experiments use three settings (§5):

* ``one`` — exactly one seed per pair (the minimum-computation extreme),
* ``min_separation`` with d = 1000 bp — all seeds at least 1 kbp apart,
* ``min_separation`` with d = k — all seeds at least a k-mer length apart
  (the maximum-computation extreme, labelled "all seeds" in the figures).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (pairs imports nothing here)
    from repro.overlap.pairs import OverlapTable


@dataclass(frozen=True)
class SeedStrategy:
    """A named seed-selection policy.

    Attributes
    ----------
    mode:
        ``"one"`` or ``"min_separation"``.
    min_separation:
        Minimum distance (in bases, measured on the first read of the pair)
        between two selected seeds; ignored for ``"one"``.
    max_seeds:
        Optional cap on the number of seeds explored per pair (the paper's
        "maximum number of seeds to explore per overlap" runtime parameter).
    """

    mode: str = "one"
    min_separation: int = 1000
    max_seeds: int | None = None

    def __post_init__(self) -> None:
        if self.mode not in ("one", "min_separation"):
            raise ValueError(f"unknown seed strategy mode {self.mode!r}")
        if self.min_separation < 1:
            raise ValueError("min_separation must be >= 1")
        if self.max_seeds is not None and self.max_seeds < 1:
            raise ValueError("max_seeds must be >= 1 when given")

    # Convenience constructors matching the paper's three experimental settings.

    @classmethod
    def one_seed(cls) -> "SeedStrategy":
        """Exactly one seed per overlapping pair (lowest computational intensity)."""
        return cls(mode="one")

    @classmethod
    def separated_by(cls, distance: int, max_seeds: int | None = None) -> "SeedStrategy":
        """All seeds separated by at least *distance* bases."""
        return cls(mode="min_separation", min_separation=distance, max_seeds=max_seeds)


def select_seeds_batched(table: "OverlapTable", strategy: SeedStrategy) -> np.ndarray:
    """Select alignment seeds for *every* pair of an overlap table at once.

    Operates directly on the table's flat seed arrays (seeds are sorted by
    position on read A within each pair) and returns the selected indices
    into those flat arrays, sorted ascending — i.e. grouped by pair, by
    position within each pair.  ``one`` keeps each pair's first seed by
    position on read A; ``min_separation`` keeps the seeds a greedy
    left-to-right scan over each pair would keep: every seed at least
    ``min_separation`` bases after the previously kept one, up to
    ``max_seeds``.

    The greedy ``min_separation`` scan is vectorised *across pairs*: each
    round selects the current candidate seed of every still-active pair, then
    advances every pair's candidate pointer past the separation window with
    one global :func:`numpy.searchsorted` over an offset-augmented position
    array (positions made globally increasing by adding ``pair_id * span``).
    The Python-level loop count is the maximum number of seeds selected for
    any single pair, not the number of pairs or seeds.
    """
    n_pairs = len(table)
    if n_pairs == 0:
        return np.empty(0, dtype=np.int64)
    offsets = table.seed_offsets.astype(np.int64)

    if strategy.mode == "one":
        # First seed of each pair — the minimum position on read A.
        return offsets[:-1].copy()

    pos = table.seed_pos_a.astype(np.int64)
    pair_of_seed = np.repeat(np.arange(n_pairs, dtype=np.int64), np.diff(offsets))
    # Make positions globally non-decreasing across pairs; span is wide
    # enough that a separation window never crosses a pair boundary.
    span = int(pos.max(initial=0)) + strategy.min_separation + 1
    augmented = pos + pair_of_seed * span

    cursor = offsets[:-1].copy()
    ends = offsets[1:]
    taken = np.zeros(n_pairs, dtype=np.int64)
    active = cursor < ends
    chunks: list[np.ndarray] = []
    while active.any():
        chosen = cursor[active]
        chunks.append(chosen)
        taken[active] += 1
        # Advance each active pair to its first seed at least min_separation
        # past the one just selected (clipped to the pair's end).
        targets = augmented[chosen] + strategy.min_separation
        nxt = np.searchsorted(augmented, targets, side="left")
        cursor[active] = np.minimum(nxt, ends[active])
        active = cursor < ends
        if strategy.max_seeds is not None:
            active &= taken < strategy.max_seeds
    return np.sort(np.concatenate(chunks))
