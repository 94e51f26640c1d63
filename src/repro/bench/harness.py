"""Benchmark workloads, pipeline-run caching and platform projection.

The paper's figures share a small number of underlying pipeline executions
(most of them are different views of the "E. coli 30x, one seed" runs at
1-32 nodes).  Re-running the pipeline for every figure would multiply the
benchmark suite's cost by ~10, so the harness keeps a process-wide cache of
:class:`~repro.core.result.PipelineResult` objects keyed by
``(workload, seed strategy, node count)`` and every figure draws from it.

Workload sizes are scaled-down versions of the paper's data sets (see
:mod:`repro.data` for the substitution argument).  The scale can be raised via the
``REPRO_BENCH_SCALE`` environment variable (a float multiplier on the genome
size) for longer, higher-fidelity benchmark runs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.core.config import PipelineConfig
from repro.core.pipeline import DibellaPipeline
from repro.core.result import PipelineResult
from repro.data.datasets import Dataset, DatasetSpec, generate_dataset
from repro.data.genome import GenomeSpec
from repro.data.reads import ReadSimSpec
from repro.mpisim.topology import Topology
from repro.netmodel.costmodel import CostModel
from repro.netmodel.platform import get_platform
from repro.netmodel.projection import PipelineProjection, project_pipeline
from repro.overlap.seeds import SeedStrategy

#: Node counts used by the strong-scaling figures (the paper's x axis).
SCALING_NODES: tuple[int, ...] = (1, 2, 4, 8, 16, 32)

#: Reduced node set used by the most expensive workloads (Figures 10-11).
REDUCED_NODES: tuple[int, ...] = (1, 8, 32)

#: Platform short names in the paper's plotting order.
PLATFORM_KEYS: tuple[str, ...] = ("cori", "edison", "titan", "aws")

#: Total input bases of the paper's real data sets (§5): reads x mean length.
#: Projections extrapolate the measured benchmark workloads to these sizes so
#: the model operates in the same volume-dominated regime as the paper.
TARGET_INPUT_BASES: dict[str, float] = {
    "ecoli30x": 16_890 * 9_958.0,
    "ecoli100x": 91_394 * 6_934.0,
    "ecoli30x_sample": 0.2 * 16_890 * 9_958.0,
}


def _bench_scale() -> float:
    """Benchmark size multiplier from the environment (default 1.0)."""
    try:
        return float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
    except ValueError:
        return 1.0


@dataclass(frozen=True)
class BenchWorkloads:
    """The two benchmark workloads standing in for the paper's data sets."""

    ecoli30x: DatasetSpec
    ecoli100x: DatasetSpec
    ecoli30x_sample: DatasetSpec

    @classmethod
    def default(cls) -> "BenchWorkloads":
        """Scaled-down E. coli-like workloads sized for the benchmark suite.

        The 30x workload keeps the paper's 30x coverage and ~12% error on an
        8 kbp genome; the 100x workload keeps 100x coverage and ~15% error on
        a smaller genome so its ~10x higher pair count (the paper's ratio)
        stays tractable in pure Python.
        """
        scale = _bench_scale()
        g30 = max(4000, int(8000 * scale))
        g100 = max(800, int(1200 * scale))
        return cls(
            ecoli30x=DatasetSpec(
                name="bench_ecoli30x_like",
                genome=GenomeSpec(length=g30, repeat_fraction=0.05, repeat_length=250, seed=7),
                reads=ReadSimSpec(coverage=30.0, mean_read_length=1000, min_read_length=400,
                                  error_rate=0.12, seed=8),
            ),
            ecoli100x=DatasetSpec(
                name="bench_ecoli100x_like",
                genome=GenomeSpec(length=g100, repeat_fraction=0.05, repeat_length=200, seed=9),
                reads=ReadSimSpec(coverage=100.0, mean_read_length=700, min_read_length=300,
                                  error_rate=0.15, seed=10),
            ),
            ecoli30x_sample=DatasetSpec(
                name="bench_ecoli30x_sample_like",
                genome=GenomeSpec(length=max(2000, int(g30 * 0.2)), repeat_fraction=0.05,
                                  repeat_length=200, seed=11),
                reads=ReadSimSpec(coverage=30.0, mean_read_length=1000, min_read_length=400,
                                  error_rate=0.12, seed=12),
            ),
        )


#: Seed-strategy presets matching the paper's three settings (§5).  The
#: "all seeds separated by k" setting additionally uses the paper's
#: "maximum number of seeds to explore per overlap" runtime parameter (§8)
#: to keep the pure-Python benchmark suite within its time budget.
SEED_STRATEGIES: dict[str, SeedStrategy] = {
    "one-seed": SeedStrategy.one_seed(),
    "d=1000": SeedStrategy.separated_by(1000),
    "d=k": SeedStrategy.separated_by(17, max_seeds=4),
}


@dataclass
class ExperimentHarness:
    """Caches generated data sets, pipeline runs and projections."""

    workloads: BenchWorkloads = field(default_factory=BenchWorkloads.default)
    ranks_per_node: int = 1
    cost_model: CostModel = field(default_factory=CostModel)
    _datasets: dict[str, Dataset] = field(default_factory=dict)
    _runs: dict[tuple[str, str, int], PipelineResult] = field(default_factory=dict)

    # -- data sets ---------------------------------------------------------------

    def dataset(self, name: str) -> Dataset:
        """Generate (or return the cached) benchmark data set by name."""
        if name not in self._datasets:
            spec = self._spec_for(name)
            self._datasets[name] = generate_dataset(spec)
        return self._datasets[name]

    def _spec_for(self, name: str) -> DatasetSpec:
        if name == "ecoli30x":
            return self.workloads.ecoli30x
        if name == "ecoli100x":
            return self.workloads.ecoli100x
        if name == "ecoli30x_sample":
            return self.workloads.ecoli30x_sample
        raise KeyError(f"unknown benchmark workload {name!r}")

    def _config_for(self, name: str, strategy: str) -> PipelineConfig:
        spec = self._spec_for(name)
        return PipelineConfig(
            coverage_hint=spec.reads.coverage,
            error_rate_hint=spec.reads.error_rate,
            seed_strategy=SEED_STRATEGIES[strategy],
        )

    # -- pipeline runs --------------------------------------------------------------

    def run(self, workload: str = "ecoli30x", strategy: str = "one-seed",
            n_nodes: int = 1) -> PipelineResult:
        """Run (or fetch the cached) pipeline execution for one configuration."""
        key = (workload, strategy, n_nodes)
        if key not in self._runs:
            topology = Topology(n_nodes=n_nodes, ranks_per_node=self.ranks_per_node)
            pipeline = DibellaPipeline(config=self._config_for(workload, strategy),
                                       topology=topology)
            self._runs[key] = pipeline.run(self.dataset(workload).reads)
        return self._runs[key]

    def scaling_runs(self, workload: str = "ecoli30x", strategy: str = "one-seed",
                     nodes: tuple[int, ...] = SCALING_NODES
                     ) -> dict[int, PipelineResult]:
        """Pipeline runs for every node count of a strong-scaling series."""
        return {n: self.run(workload, strategy, n) for n in nodes}

    # -- projection -----------------------------------------------------------------

    def project(self, result: PipelineResult, platform: str,
                workload: str = "ecoli30x") -> PipelineProjection:
        """Project a pipeline run onto one of the paper's platforms.

        The run's measured work counters and traffic volumes are extrapolated
        to the full-size data set the benchmark workload stands in for (see
        :data:`TARGET_INPUT_BASES`), preserving the measured per-rank
        distributions and load imbalance, on the topology the run
        actually executed with.
        """
        spec = get_platform(platform)
        measured_kmers = max(1, result.counters.get("input_kmers", 1))
        target = TARGET_INPUT_BASES.get(workload, float(measured_kmers))
        scale = max(1.0, target / measured_kmers)
        return project_pipeline(
            result.stages,
            result.trace,
            spec,
            result.topology,
            model=self.cost_model,
            platform_key=platform,
            scale=scale,
        )

    def clear(self) -> None:
        """Drop all cached data sets and runs (test helper)."""
        self._datasets.clear()
        self._runs.clear()


#: Process-wide harness shared by all benchmark modules.
_DEFAULT_HARNESS: ExperimentHarness | None = None


def default_harness() -> ExperimentHarness:
    """The process-wide harness instance (created lazily)."""
    global _DEFAULT_HARNESS
    if _DEFAULT_HARNESS is None:
        _DEFAULT_HARNESS = ExperimentHarness()
    return _DEFAULT_HARNESS
