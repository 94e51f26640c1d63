"""Projection of a recorded pipeline run onto a target platform.

The pipeline (``repro.core``) produces, for each stage, a record with
per-rank work counters, per-rank working-set sizes and the names of the
communication phases the stage used.  :func:`project_pipeline` combines those
records with the run's :class:`~repro.mpisim.tracing.CommTrace` and a
:class:`~repro.netmodel.platform.PlatformSpec` to produce per-stage compute
and exchange times — the quantities plotted in Figures 3–13 of the paper.

The topology handed in flows straight to the exchange model, which charges
intra-node and inter-node traffic differently and one per-destination
segment per rank and collective call (the flat ``alltoallv``).

The stage records are duck-typed (any object with the attributes named in
:class:`StageRecordLike`) so this module stays below ``repro.core`` in the
layering.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Protocol, runtime_checkable

import numpy as np

from repro.mpisim.topology import Topology
from repro.mpisim.tracing import CommTrace
from repro.netmodel.costmodel import CostModel
from repro.netmodel.platform import PlatformSpec


@runtime_checkable
class StageRecordLike(Protocol):
    """The stage-record attributes the projection consumes."""

    name: str
    items: int
    work_unit: str

    @property
    def work_per_rank(self) -> np.ndarray: ...

    @property
    def local_bytes_per_rank(self) -> np.ndarray: ...

    @property
    def exchange_phases(self) -> list[str]: ...

    @property
    def includes_first_alltoallv(self) -> bool: ...


@dataclass(frozen=True)
class StageProjection:
    """Projected times for one pipeline stage on one platform."""

    stage: str
    platform: str
    n_nodes: int
    compute_seconds: float
    exchange_seconds: float
    items: int

    @property
    def total_seconds(self) -> float:
        """Compute plus exchange time."""
        return self.compute_seconds + self.exchange_seconds

@dataclass(frozen=True)
class PipelineProjection:
    """Projected per-stage and total times for a full pipeline run."""

    platform: str
    n_nodes: int
    stages: tuple[StageProjection, ...]

    @property
    def total_seconds(self) -> float:
        """End-to-end projected time."""
        return sum(s.total_seconds for s in self.stages)

    @property
    def total_exchange_seconds(self) -> float:
        """Sum of projected exchange time over stages."""
        return sum(s.exchange_seconds for s in self.stages)

    def stage(self, name: str) -> StageProjection:
        """Look up a stage projection by stage name."""
        for s in self.stages:
            if s.stage == name:
                return s
        raise KeyError(f"no stage named {name!r}; have {[s.stage for s in self.stages]}")

    def breakdown(self) -> dict[str, dict[str, float]]:
        """Per-stage {compute, exchange} seconds plus their percentage shares."""
        total = self.total_seconds
        out: dict[str, dict[str, float]] = {}
        for s in self.stages:
            out[s.stage] = {
                "compute_seconds": s.compute_seconds,
                "exchange_seconds": s.exchange_seconds,
                "compute_pct": 100.0 * s.compute_seconds / total if total > 0 else 0.0,
                "exchange_pct": 100.0 * s.exchange_seconds / total if total > 0 else 0.0,
            }
        return out


def project_stage(
    record: StageRecordLike,
    trace: CommTrace,
    platform: PlatformSpec,
    topology: Topology,
    model: CostModel | None = None,
    platform_key: str = "",
    scale: float = 1.0,
) -> StageProjection:
    """Project one stage record onto *platform*.

    ``scale`` linearly extrapolates the measured work and traffic to a larger
    input of the same shape (used by the experiment harness to project the
    scaled-down benchmark workloads onto the paper's full-size data sets —
    see :mod:`repro.bench.harness`).  The reported ``items`` count is scaled accordingly
    so that throughput figures remain comparable with the paper's.
    """
    model = model or CostModel()
    compute = model.compute.compute_time(
        np.asarray(record.work_per_rank, dtype=np.float64),
        record.work_unit,
        platform,
        topology,
        local_bytes_per_rank=np.asarray(record.local_bytes_per_rank, dtype=np.float64),
        work_scale=scale,
    )
    exchange = 0.0
    for i, phase in enumerate(record.exchange_phases):
        traffic = trace.phase_traffic(phase)
        first = record.includes_first_alltoallv and i == 0
        exchange += model.exchange.exchange_time(
            traffic, platform, topology, includes_first_alltoallv=first,
            volume_scale=scale,
        )
    return StageProjection(
        stage=record.name,
        platform=platform_key or platform.name,
        n_nodes=topology.n_nodes,
        compute_seconds=compute,
        exchange_seconds=exchange,
        items=int(record.items * scale),
    )


def project_pipeline(
    records: Iterable[StageRecordLike],
    trace: CommTrace,
    platform: PlatformSpec,
    topology: Topology,
    model: CostModel | None = None,
    platform_key: str = "",
    scale: float = 1.0,
) -> PipelineProjection:
    """Project every stage of a pipeline run onto *platform*."""
    model = model or CostModel()
    stages = tuple(
        project_stage(rec, trace, platform, topology, model=model,
                      platform_key=platform_key, scale=scale)
        for rec in records
    )
    return PipelineProjection(
        platform=platform_key or platform.name,
        n_nodes=topology.n_nodes,
        stages=stages,
    )
