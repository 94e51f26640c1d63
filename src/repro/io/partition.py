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

    The scan moves to the next rank before read ``i`` when the bytes before
    ``i`` reach that rank's threshold ``target * (rank + 1)``, at most one
    rank per read.  With ``c[i]`` the number of thresholds (ranks
    ``0 .. P-2``) at or below those bytes, the scan's rank is therefore
    ``rank[i] = min(rank[i-1] + 1, c[i])`` from ``rank[-1] = 0``, whose
    closed form ``min(i + 1, i + min_{j<=i}(c[j] - j))`` is computed here
    without a Python loop.
    """
    if n_ranks <= 0:
        raise ValueError("n_ranks must be positive")
    n_reads = len(readset)
    if n_reads == 0:
        return [[] for _ in range(n_ranks)]
    lengths = readset.read_lengths()
    target = int(lengths.sum()) / n_ranks
    before = np.concatenate(([0], np.cumsum(lengths[:-1])))
    thresholds = target * np.arange(1, n_ranks, dtype=np.float64)
    crossed = np.searchsorted(thresholds, before, side="right")
    index = np.arange(n_reads, dtype=np.int64)
    rank = np.minimum(index + 1, index + np.minimum.accumulate(crossed - index))
    bounds = np.searchsorted(rank, np.arange(n_ranks + 1), side="left")
    return [list(range(lo, hi)) for lo, hi in zip(bounds[:-1].tolist(),
                                                  bounds[1:].tolist())]
