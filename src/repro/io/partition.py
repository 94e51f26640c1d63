"""Block partitioning of reads across ranks.

The paper distributes input reads "roughly uniformly over the processors
using parallel I/O" (§6) and notes in §9 that the partitioning is "as
uniformly as possible ... by the read size in memory".  There is no locality
in the input order, so a greedy contiguous-block split by cumulative bytes is
both what the original implementation does and what we reproduce here.

The partition is a list of RID lists, one per rank, covering every RID
exactly once.
"""

from __future__ import annotations

import numpy as np

from repro.seq.records import ReadSet


def partition_reads(readset: ReadSet, n_ranks: int) -> list[list[int]]:
    """Split RIDs into contiguous blocks balanced by total sequence bytes.

    Greedy scan: each rank receives consecutive reads until its running byte
    total reaches the ideal share (total_bytes / n_ranks).  Later ranks absorb
    any remainder, mirroring a block-cyclic parallel file read where each rank
    owns a contiguous byte range of the FASTQ file.
    """
    if n_ranks <= 0:
        raise ValueError("n_ranks must be positive")
    lengths = readset.read_lengths()
    n_reads = len(readset)
    if n_reads == 0:
        return [[] for _ in range(n_ranks)]
    total = int(lengths.sum())
    target = total / n_ranks
    assignments: list[list[int]] = [[] for _ in range(n_ranks)]
    rank = 0
    acc = 0
    for rid in range(n_reads):
        # Move to the next rank once this one has its share, but never leave
        # trailing ranks starved while earlier ranks hold surplus reads.
        if rank < n_ranks - 1 and acc >= target * (rank + 1):
            rank += 1
        assignments[rank].append(rid)
        acc += int(lengths[rid])
    return assignments


def partition_imbalance(assignments: list[list[int]], readset: ReadSet) -> float:
    """Byte-level load imbalance of a partition (max over mean; 1.0 = perfect)."""
    lengths = readset.read_lengths()
    per_rank = np.array([int(lengths[rids].sum()) if rids else 0 for rids in assignments],
                        dtype=np.float64)
    if per_rank.sum() == 0:
        return 1.0
    return float(per_rank.max() / per_rank.mean())
