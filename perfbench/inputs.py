"""Seeded inputs for the benchmark workloads.

Every workload's reads come from :func:`simulate`, which draws a genome with
the repository's generator and then samples long reads from it with a
*layout that keeps the amount of work fixed across seeds*:

* read lengths are the N quantiles of the log-normal length model (the same
  model as :class:`repro.data.reads.ReadSimulator`), shuffled by the seed,
  so the total read length is the same for every seed;
* read starts are stratified — each read starts at a uniformly random point
  of its own one of N equal genome strata (strata shuffled over the reads) —
  so coverage stays even and the number of true overlaps barely moves
  between seeds;
* strand and per-base substitution / insertion / deletion errors are drawn
  from the seed, with the simulator's default error mix.

The seed therefore changes the genome sequence, its repeats, the read order
and every error, but not the size of the problem: the run-to-run spread of a
metric is the program's, not the input generator's.  Errors are drawn with
NumPy per read, so the 4.5-Mbase ``index_sparse`` input takes under a second.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from repro.data.datasets import true_overlaps
from repro.data.genome import GenomeSpec, generate_genome
from repro.seq.alphabet import reverse_complement
from repro.seq.records import Read, ReadSet

#: Error-type mix (substitution, insertion, deletion) of the repository's
#: read simulator defaults.
_ERROR_MIX = (0.25, 0.45, 0.30)
_BASES = np.frombuffer(b"ACGT", dtype=np.uint8)
_BASE_INDEX = np.zeros(256, dtype=np.uint8)
_BASE_INDEX[_BASES] = np.arange(4, dtype=np.uint8)


@dataclass(frozen=True)
class ReadLayout:
    """Shape of one simulated read set."""

    genome_length: int
    coverage: float
    mean_read_length: int
    error_rate: float
    min_read_length: int = 400
    read_length_sigma: float = 0.35
    repeat_fraction: float = 0.02
    repeat_length: int = 300


@dataclass
class SimulatedReads:
    """A generated read set plus what the correctness checks need."""

    reads: ReadSet
    genome_length: int

    def truth(self, min_overlap: int) -> set[tuple[int, int]]:
        """True overlapping RID pairs (circular genome, >= *min_overlap* bp)."""
        return set(true_overlaps(self.reads, self.genome_length, circular=True,
                                 min_overlap=min_overlap))


def _read_lengths(layout: ReadLayout, n_reads: int,
                  rng: np.random.Generator) -> np.ndarray:
    sigma = layout.read_length_sigma
    mu = float(np.log(layout.mean_read_length) - sigma * sigma / 2.0)
    normal = NormalDist()
    quantiles = [(i + 0.5) / n_reads for i in range(n_reads)]
    lengths = np.exp(mu + sigma * np.array([normal.inv_cdf(q) for q in quantiles]))
    lengths = np.clip(np.rint(lengths).astype(np.int64), layout.min_read_length,
                      4 * layout.mean_read_length)
    return rng.permutation(lengths)


def _apply_errors(fragment: np.ndarray, error_rate: float,
                  rng: np.random.Generator) -> np.ndarray:
    """Substitutions, insertions and deletions on an ASCII base array."""
    sub, ins, dele = (error_rate * share for share in _ERROR_MIX)
    events = rng.choice(4, size=fragment.size, p=[1.0 - error_rate, sub, ins, dele])
    codes = _BASE_INDEX[fragment]
    substituted = events == 1
    codes[substituted] = (codes[substituted]
                          + rng.integers(1, 4, size=int(substituted.sum()))) % 4
    copies = np.array([1, 1, 2, 0], dtype=np.int64)[events]
    out = np.repeat(codes, copies)
    inserted = np.cumsum(copies)[events == 2] - 1
    out[inserted] = rng.integers(0, 4, size=inserted.size)
    return _BASES[out]


def simulate(layout: ReadLayout, seed: int, n_tail: int = 0) -> SimulatedReads:
    """Genome + reads for *layout*; the same seed gives the same reads.

    The last *n_tail* reads get a length set of their own, so a subset split
    off the end (the serve workload's queries) keeps its total length across
    seeds too.
    """
    rng = np.random.default_rng(seed)
    genome = generate_genome(GenomeSpec(
        length=layout.genome_length,
        repeat_fraction=layout.repeat_fraction,
        repeat_length=layout.repeat_length,
        seed=int(rng.integers(0, 2**31 - 1)),
    ))
    g = layout.genome_length
    n_reads = max(1, round(g * layout.coverage / layout.mean_read_length))
    lengths = np.concatenate([_read_lengths(layout, n_reads - n_tail, rng),
                              _read_lengths(layout, n_tail, rng)])
    strata = rng.permutation(n_reads)
    starts = ((strata + rng.random(n_reads)) * g / n_reads).astype(np.int64)
    reverse = rng.random(n_reads) < 0.5
    # Reads may wrap around the origin of the circular genome.
    wrapped = np.frombuffer((genome + genome[: int(lengths.max())]).encode("ascii"),
                            dtype=np.uint8)
    reads = []
    for i in range(n_reads):
        start, length = int(starts[i]), int(lengths[i])
        fragment = wrapped[start : start + length]
        if reverse[i]:
            fragment = np.frombuffer(
                reverse_complement(fragment.tobytes().decode("ascii")).encode("ascii"),
                dtype=np.uint8)
        sequence = _apply_errors(fragment, layout.error_rate, rng)
        reads.append(Read(
            name=f"sim_{i:07d}",
            sequence=sequence.tobytes().decode("ascii"),
            quality=None,
            true_start=start,
            true_end=start + length,
            true_strand=-1 if reverse[i] else 1,
        ))
    return SimulatedReads(reads=ReadSet(reads), genome_length=g)
