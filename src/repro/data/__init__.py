"""Synthetic genomes and PacBio-like long reads.

The paper evaluates on two real PacBio E. coli data sets (30x and 100x
coverage).  Those FASTQ files are not redistributable and are too large for a
pure-Python environment anyway, so this subpackage provides a substitute:
a genome generator with controllable repeat content
and a long-read simulator with a PacBio-like error model (indel-dominated,
10-15% error) and log-normal read-length distribution.  Presets scale the
E. coli workloads down while preserving coverage depth, error rate and the
read-length-to-genome-size ratio.
"""

from repro.data.genome import GenomeSpec, generate_genome
from repro.data.reads import ReadSimulator, ReadSimSpec
from repro.data.datasets import (
    DatasetSpec,
    generate_dataset,
    ecoli30x_like,
    ecoli100x_like,
    ecoli30x_sample_like,
    tiny_dataset,
    true_overlaps,
)

__all__ = [
    "GenomeSpec",
    "generate_genome",
    "ReadSimulator",
    "ReadSimSpec",
    "DatasetSpec",
    "generate_dataset",
    "ecoli30x_like",
    "ecoli100x_like",
    "ecoli30x_sample_like",
    "tiny_dataset",
    "true_overlaps",
]
