"""Overlap detection: read-pair generation, seed selection, and the overlap graph.

Stage 3 of diBELLA turns the distributed k-mer → occurrence hash table into
alignment tasks: "for each k-mer in the hash table, take the associated list
of read IDs (and positions) and form all pairs of reads, assigning each pair
to one processor" (§4).  This subpackage implements

* :mod:`repro.overlap.pairs` — Algorithm 1: all-pairs generation per retained
  k-mer with the odd/even owner heuristic, and consolidation of per-pair
  seed lists,
* :mod:`repro.overlap.seeds` — the runtime seed-selection constraints
  (one-seed, all seeds separated by ≥ d bases, d = k),
* :mod:`repro.overlap.graph` — the read overlap graph as a networkx object,
  the "graph with reads as vertices and reliable k-mers as edges" of §4.
  No pipeline stage builds it, so it is not re-exported here: import
  ``repro.overlap.graph`` directly, and only that import loads networkx.
"""

from repro.overlap.pairs import (
    PairBatch,
    generate_pairs,
    pair_chunk_ranges,
    owner_heuristic_oddeven,
    choose_owner,
    consolidate_pairs,
    OverlapRecord,
    OverlapTable,
)
from repro.overlap.seeds import select_seeds, select_seeds_batched, SeedStrategy

__all__ = [
    "PairBatch",
    "generate_pairs",
    "pair_chunk_ranges",
    "owner_heuristic_oddeven",
    "choose_owner",
    "consolidate_pairs",
    "OverlapRecord",
    "OverlapTable",
    "select_seeds",
    "select_seeds_batched",
    "SeedStrategy",
]
