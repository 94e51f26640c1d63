"""High-level one-call API: :func:`run_dibella`."""

from __future__ import annotations

from repro.core.config import PipelineConfig
from repro.core.pipeline import DibellaPipeline
from repro.core.result import PipelineResult
from repro.mpisim.topology import Topology
from repro.seq.records import ReadSet


def run_dibella(
    readset: ReadSet,
    config: PipelineConfig | None = None,
    n_nodes: int = 1,
    ranks_per_node: int = 4,
) -> PipelineResult:
    """Run the diBELLA pipeline on a read set.

    Parameters
    ----------
    readset:
        The long reads to overlap and align.
    config:
        Pipeline parameters; defaults are sensible for PacBio-like data
        (17-mers, x-drop alignment, one seed per pair).  Every knob
        (backend, seed mode, sanitizer, ...) is a field of this config; set
        one with ``dataclasses.replace(config, backend="process")``.
    n_nodes / ranks_per_node:
        The simulated machine layout.  ``n_nodes`` is also the node count a
        later performance projection will assume; ``ranks_per_node`` only
        controls how many SPMD ranks the simulation uses per node.

    Returns
    -------
    PipelineResult
        Overlaps, alignments, per-stage work counters and the communication
        trace.

    Examples
    --------
    >>> from repro.data import tiny_dataset, generate_dataset
    >>> from repro.core import run_dibella
    >>> dataset = generate_dataset(tiny_dataset())
    >>> result = run_dibella(dataset.reads, n_nodes=1, ranks_per_node=2)
    >>> result.n_overlap_pairs > 0
    True
    """
    topology = Topology(n_nodes=n_nodes, ranks_per_node=ranks_per_node)
    return DibellaPipeline(config=config, topology=topology).run(readset)
