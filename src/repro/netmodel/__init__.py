"""Platform specifications and the performance-projection model.

The paper evaluates diBELLA on four machines (Table 1): Cori (Cray XC40),
Edison (Cray XC30), Titan (Cray XK7, CPU partition) and an AWS c3.8xlarge
cluster.  The figures compare stage throughput, efficiency and runtime
breakdowns *across those machines*.  Because this reproduction runs on a
single host, per-platform times are not measured directly: the pipeline
records machine-independent counters (k-mers hashed, alignments computed, DP
cells filled, bytes exchanged per phase) and this subpackage projects them
onto each platform using

* the Table 1 hardware balance points (cores/node, clock, measured 8 KiB
  all-to-all bandwidth per node, intra-node latency), and
* calibration constants chosen so single-node absolute rates land in the
  same ballpark as the paper's single-node measurements.

The projection reproduces the paper's qualitative effects explicitly:
superlinear local-compute speedup once the per-rank working set fits in
cache (§6, Fig. 4), poor all-to-all scaling at high node counts (§10), the
first-Alltoallv setup penalty (§10), and the per-platform performance
ordering (Cori > Edison > Titan ≈ AWS for compute; AWS worst for exchange).
"""

from repro.netmodel.platform import PlatformSpec, PLATFORMS, get_platform
from repro.netmodel.costmodel import ComputeCostModel, ExchangeCostModel, CostModel
from repro.netmodel.projection import (
    StageProjection,
    PipelineProjection,
    project_stage,
    project_pipeline,
)

__all__ = [
    "PlatformSpec",
    "PLATFORMS",
    "get_platform",
    "ComputeCostModel",
    "ExchangeCostModel",
    "CostModel",
    "StageProjection",
    "PipelineProjection",
    "project_stage",
    "project_pipeline",
]
