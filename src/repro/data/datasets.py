"""Workload presets mirroring the paper's data sets, plus the overlap oracle.

The paper's two inputs are PacBio E. coli MG1655 data sets:

* **E. coli 30x** — 16,890 reads, mean length 9,958 bp, 266 MB FASTQ,
  2.27 M overlapping read pairs detected.
* **E. coli 100x** — 91,394 reads, mean length 6,934 bp, 929 MB FASTQ,
  24.87 M overlapping read pairs detected.

The presets below reproduce the *ratios* that drive pipeline behaviour
(coverage depth, error rate, read length relative to genome size) on a
scaled-down synthetic genome so the pure-Python pipeline stays tractable.
The ``scale`` parameter controls the genome size; coverage and error rate are
kept at the paper's values.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.data.genome import GenomeSpec, generate_genome
from repro.data.reads import ReadSimSpec, ReadSimulator
from repro.seq.records import ReadSet


@dataclass(frozen=True)
class DatasetSpec:
    """A named synthetic workload: genome spec + read-simulation spec."""

    name: str
    genome: GenomeSpec
    reads: ReadSimSpec


@dataclass
class Dataset:
    """A generated workload: the genome string, the reads, and the spec."""

    spec: DatasetSpec
    genome: str
    reads: ReadSet
    _true_overlaps: dict[tuple[int, int], int] | None = field(default=None, repr=False)

    @property
    def name(self) -> str:
        return self.spec.name

    def true_overlaps(self, min_overlap: int = 500) -> dict[tuple[int, int], int]:
        """Ground-truth overlapping read pairs (see :func:`true_overlaps`)."""
        if self._true_overlaps is None or min_overlap != 500:
            result = true_overlaps(self.reads, len(self.genome),
                                   circular=self.spec.reads.circular,
                                   min_overlap=min_overlap)
            if min_overlap == 500:
                self._true_overlaps = result
            return result
        return self._true_overlaps


def generate_dataset(spec: DatasetSpec) -> Dataset:
    """Generate the genome and reads for a :class:`DatasetSpec`."""
    genome = generate_genome(spec.genome)
    simulator = ReadSimulator(genome, spec.reads)
    reads = simulator.simulate()
    return Dataset(spec=spec, genome=genome, reads=reads)


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------

def ecoli30x_like(scale: float = 0.01, seed: int = 0) -> DatasetSpec:
    """E. coli 30x-like workload.

    ``scale=1.0`` would correspond to the full 4.6 Mbp genome; the default
    scale of 0.01 yields a ~46 kbp genome with the same 30x coverage, ~12%
    error and the paper's read length scaled by the same factor so that reads
    still span many k-mers while the total work stays laptop-sized.
    """
    genome_length = max(5_000, int(4_600_000 * scale))
    mean_read = max(1_000, int(10_000 * min(1.0, scale * 20)))
    return DatasetSpec(
        name=f"ecoli30x_like(scale={scale})",
        genome=GenomeSpec(length=genome_length, repeat_fraction=0.05,
                          repeat_length=max(200, mean_read // 10), seed=seed),
        reads=ReadSimSpec(coverage=30.0, mean_read_length=mean_read,
                          error_rate=0.12, seed=seed + 1),
    )


def ecoli100x_like(scale: float = 0.01, seed: int = 10) -> DatasetSpec:
    """E. coli 100x-like workload (higher depth, shorter reads, same genome).

    The paper's 100x data set has shorter reads (6,934 vs 9,958 bp mean) and
    a slightly higher error rate (P4-C2 chemistry); both are reflected here.
    """
    genome_length = max(5_000, int(4_600_000 * scale))
    mean_read = max(700, int(7_000 * min(1.0, scale * 20)))
    return DatasetSpec(
        name=f"ecoli100x_like(scale={scale})",
        genome=GenomeSpec(length=genome_length, repeat_fraction=0.05,
                          repeat_length=max(200, mean_read // 10), seed=seed),
        reads=ReadSimSpec(coverage=100.0, mean_read_length=mean_read,
                          error_rate=0.15, seed=seed + 1),
    )


def tiny_dataset(seed: int = 42) -> DatasetSpec:
    """A very small workload for unit tests and the quickstart example."""
    return DatasetSpec(
        name="tiny",
        genome=GenomeSpec(length=8_000, repeat_fraction=0.03, repeat_length=200, seed=seed),
        reads=ReadSimSpec(coverage=15.0, mean_read_length=1_200, min_read_length=400,
                          error_rate=0.10, seed=seed + 1),
    )


# ---------------------------------------------------------------------------
# Ground-truth overlap oracle
# ---------------------------------------------------------------------------

def _interval_overlap_circular(a0: int, a1: int, b0: int, b1: int, n: int) -> int:
    """Overlap length of two arcs [a0,a1), [b0,b1) on a circle of size n.

    Intervals are given in unwrapped coordinates (end may exceed n).  The
    overlap is computed by checking the base interval plus both +-n shifts of
    one of them, which covers every wrap case for arcs shorter than n.
    """
    best = 0
    for shift in (-n, 0, n):
        lo = max(a0, b0 + shift)
        hi = min(a1, b1 + shift)
        best = max(best, hi - lo)
    return max(0, best)


def true_overlaps(reads: ReadSet, genome_length: int, *, circular: bool = True,
                  min_overlap: int = 500) -> dict[tuple[int, int], int]:
    """Ground-truth overlapping read pairs from simulated read coordinates.

    Returns a dict mapping RID pairs ``(i, j)`` with ``i < j`` to the length
    of their genomic overlap, for every pair whose source intervals overlap by
    at least *min_overlap* bases.  Reads without ground truth are skipped.

    The scan sorts reads by start coordinate and only compares each read with
    the reads whose intervals could still overlap it, so the cost is
    O(R log R + output) rather than O(R^2) — important for the 100x-like
    presets where R is in the thousands.
    """
    intervals: list[tuple[int, int, int]] = []  # (start, end, rid)
    for rid, read in enumerate(reads):
        if not read.has_truth():
            continue
        intervals.append((read.true_start, read.true_end, rid))
    intervals.sort()
    result: dict[tuple[int, int], int] = {}
    n = genome_length

    for idx, (a0, a1, rid_a) in enumerate(intervals):
        for b0, b1, rid_b in intervals[idx + 1 :]:
            if b0 >= a1:  # no further linear overlaps possible (sorted by start)
                break
            ov = min(a1, b1) - max(a0, b0)
            if ov >= min_overlap:
                key = (min(rid_a, rid_b), max(rid_a, rid_b))
                result[key] = max(result.get(key, 0), ov)

    if circular and n > 0:
        # Wrap-around pairs: reads whose unwrapped end exceeds n overlap reads
        # near the origin.  There are few of them, so a direct scan is fine.
        wrappers = [(a0, a1, rid) for (a0, a1, rid) in intervals if a1 > n]
        heads = [(b0, b1, rid) for (b0, b1, rid) in intervals if b0 < max(
            (a1 - n for (a0, a1, _r) in wrappers), default=0)]
        for a0, a1, rid_a in wrappers:
            for b0, b1, rid_b in heads:
                if rid_a == rid_b:
                    continue
                ov = _interval_overlap_circular(a0, a1, b0, b1, n)
                if ov >= min_overlap:
                    key = (min(rid_a, rid_b), max(rid_a, rid_b))
                    result[key] = max(result.get(key, 0), ov)
    return result
