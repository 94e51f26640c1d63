"""Synthetic genome generation with controllable repeat structure.

k-mer filtering in diBELLA exists because real genomes contain repeats: a
k-mer from a repeated region occurs in many reads and would otherwise
generate spurious overlap candidates (§2).  To exercise that code path the
synthetic genome is not uniform random DNA — a configurable fraction of it is
built by re-inserting copies of previously generated segments, which produces
high-frequency k-mers with the same qualitative effect as genomic repeats.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.seq.encoding import decode_sequence


@dataclass(frozen=True)
class GenomeSpec:
    """Parameters of a synthetic genome.

    Attributes
    ----------
    length:
        Genome length G in bases.
    repeat_fraction:
        Fraction of the genome covered by repeated segments (0 disables
        repeats).  Real bacterial genomes are a few percent repetitive.
    repeat_length:
        Length of each repeated segment.
    gc_content:
        Probability of G or C at a random position (0.5 = uniform).
    seed:
        RNG seed; generation is fully deterministic given the spec.
    """

    length: int = 100_000
    repeat_fraction: float = 0.05
    repeat_length: int = 500
    gc_content: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.length <= 0:
            raise ValueError("genome length must be positive")
        if not (0.0 <= self.repeat_fraction < 1.0):
            raise ValueError("repeat_fraction must be in [0, 1)")
        if self.repeat_length <= 0:
            raise ValueError("repeat_length must be positive")
        if not (0.0 < self.gc_content < 1.0):
            raise ValueError("gc_content must be in (0, 1)")


def generate_genome(spec: GenomeSpec) -> str:
    """Generate a synthetic genome string according to *spec*.

    The genome is generated as a random base sequence; afterwards,
    ``repeat_fraction`` of its positions are overwritten with copies of a
    small library of repeat segments drawn from the genome itself, placed at
    random non-overlapping-ish offsets.  The result has exact length
    ``spec.length``.
    """
    rng = np.random.default_rng(spec.seed)
    gc = spec.gc_content
    # Base probabilities honouring GC content: A, C, G, T
    probs = np.array([(1 - gc) / 2, gc / 2, gc / 2, (1 - gc) / 2])
    codes = rng.choice(4, size=spec.length, p=probs).astype(np.uint8)

    if spec.repeat_fraction > 0 and spec.length > 2 * spec.repeat_length:
        target_repeat_bases = int(spec.length * spec.repeat_fraction)
        n_copies = max(2, target_repeat_bases // spec.repeat_length)
        # A small library of distinct repeat units keeps some k-mers at
        # moderate multiplicity rather than one unit at huge multiplicity.
        n_units = max(1, n_copies // 4)
        unit_starts = rng.integers(0, spec.length - spec.repeat_length, size=n_units)
        units = [codes[s : s + spec.repeat_length].copy() for s in unit_starts]
        for _ in range(n_copies):
            unit = units[rng.integers(0, n_units)]
            pos = int(rng.integers(0, spec.length - spec.repeat_length))
            codes[pos : pos + spec.repeat_length] = unit

    return decode_sequence(codes)
