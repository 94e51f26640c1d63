"""repro: a from-scratch Python reproduction of diBELLA (ICPP 2019).

diBELLA is a distributed-memory pipeline that finds overlapping pairs of
long, noisy reads and computes seed-and-extend pairwise alignments for them.
This package reimplements the full system — the SPMD runtime, the k-mer
analysis (Bloom filter, distributed hash table, reliable-k-mer model), the
overlap and alignment stages, the synthetic PacBio-like data sets, the
DALIGNER-style baseline, and the cross-platform performance model used to
regenerate the paper's figures and tables.

Quickstart
----------
>>> from repro.data import tiny_dataset, generate_dataset
>>> from repro.core import run_dibella
>>> dataset = generate_dataset(tiny_dataset())
>>> result = run_dibella(dataset.reads, n_nodes=1, ranks_per_node=2)
>>> result.n_overlap_pairs > 0
True

See docs/architecture.md for the system inventory, perfbench/METRICS.md for
the benchmark and its metrics, and benchmarks/results/ for the recorded
output of every reproduced table and figure.
"""

from repro.core import PipelineConfig, PipelineResult, run_dibella
from repro.mpisim import Topology
from repro.overlap import SeedStrategy
from repro.seq import Read, ReadSet
from repro.seq.kmer import KmerSpec

__version__ = "1.0.0"

__all__ = [
    "PipelineConfig",
    "PipelineResult",
    "run_dibella",
    "Topology",
    "SeedStrategy",
    "Read",
    "ReadSet",
    "KmerSpec",
    "__version__",
]
