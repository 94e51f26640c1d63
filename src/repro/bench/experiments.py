"""One function per paper table/figure.

Every function returns a list of plain dict rows (one per plotted point /
table cell group) so the benchmark scripts, the CLI and the recorded
outputs under benchmarks/results/ all consume the same data.  Throughputs are reported in the same units as the
paper's figures (millions of k-mers per second, millions of alignments per
second, efficiency relative to one node, percentage runtime shares).
"""

from __future__ import annotations

from repro.baselines.daligner import DalignerConfig, DalignerLikeOverlapper
from repro.bench.harness import (
    ExperimentHarness,
    PLATFORM_KEYS,
    REDUCED_NODES,
    SCALING_NODES,
    default_harness,
)
from repro.core.config import PipelineConfig
from repro.core.pipeline import DibellaPipeline
from repro.mpisim.topology import Topology
from repro.netmodel.platform import table1_rows
from repro.stats.scaling import efficiency_series


# ---------------------------------------------------------------------------
# Table 1 — evaluated platforms
# ---------------------------------------------------------------------------

def table1_platforms() -> list[dict[str, object]]:
    """Table 1: the evaluated platforms and their balance points."""
    return table1_rows()


# ---------------------------------------------------------------------------
# Per-stage strong-scaling figures (3, 5, 6, 7)
# ---------------------------------------------------------------------------

def _stage_scaling(stage: str, unit_items: float, harness: ExperimentHarness,
                   nodes: tuple[int, ...]) -> list[dict[str, object]]:
    """Strong-scaling throughput of one stage across platforms and node counts."""
    rows: list[dict[str, object]] = []
    runs = harness.scaling_runs("ecoli30x", "one-seed", nodes)
    for platform in PLATFORM_KEYS:
        for n_nodes, result in runs.items():
            projection = harness.project(result, platform, workload="ecoli30x")
            stage_proj = projection.stage(stage)
            seconds = stage_proj.total_seconds
            throughput = (stage_proj.items / seconds / unit_items) if seconds > 0 else 0.0
            rows.append(
                {
                    "figure": stage,
                    "platform": platform,
                    "nodes": n_nodes,
                    "items": stage_proj.items,
                    "seconds": seconds,
                    "throughput_millions_per_sec": throughput,
                }
            )
    return rows


def figure3_bloom_scaling(harness: ExperimentHarness | None = None,
                          nodes: tuple[int, ...] = SCALING_NODES) -> list[dict[str, object]]:
    """Figure 3: Bloom-filter stage throughput (M k-mers/s) across platforms."""
    return _stage_scaling("bloom", 1e6, harness or default_harness(), nodes)


def figure5_hashtable_scaling(harness: ExperimentHarness | None = None,
                              nodes: tuple[int, ...] = SCALING_NODES) -> list[dict[str, object]]:
    """Figure 5: hash-table stage throughput (M k-mers/s) across platforms."""
    return _stage_scaling("hashtable", 1e6, harness or default_harness(), nodes)


def figure6_overlap_scaling(harness: ExperimentHarness | None = None,
                            nodes: tuple[int, ...] = SCALING_NODES) -> list[dict[str, object]]:
    """Figure 6: overlap stage throughput (M retained k-mers/s) across platforms."""
    return _stage_scaling("overlap", 1e6, harness or default_harness(), nodes)


def figure7_alignment_scaling(harness: ExperimentHarness | None = None,
                              nodes: tuple[int, ...] = SCALING_NODES) -> list[dict[str, object]]:
    """Figure 7: alignment stage throughput (M alignments/s) across platforms."""
    return _stage_scaling("alignment", 1e6, harness or default_harness(), nodes)


# ---------------------------------------------------------------------------
# Figure 4 — Bloom-filter efficiency breakdown on AWS
# ---------------------------------------------------------------------------

def figure4_bloom_efficiency_aws(harness: ExperimentHarness | None = None,
                                 nodes: tuple[int, ...] = SCALING_NODES
                                 ) -> list[dict[str, object]]:
    """Figure 4: Bloom-filter stage efficiency components on AWS.

    Efficiency of each component (local processing, exchange, overall)
    relative to the single-node run, as in the paper.  "Packing" in the paper
    is the per-destination bucketing step; in this reproduction it is part of
    local compute, so the packing series is reported as the compute-side
    efficiency of the exchange phase's byte volume handling (identical shape
    to local processing).
    """
    harness = harness or default_harness()
    runs = harness.scaling_runs("ecoli30x", "one-seed", nodes)
    compute_times: dict[int, float] = {}
    exchange_times: dict[int, float] = {}
    overall_times: dict[int, float] = {}
    for n_nodes, result in runs.items():
        proj = harness.project(result, "aws", workload="ecoli30x").stage("bloom")
        compute_times[n_nodes] = proj.compute_seconds
        exchange_times[n_nodes] = proj.exchange_seconds
        overall_times[n_nodes] = proj.total_seconds
    compute_eff = efficiency_series(compute_times)
    exchange_eff = efficiency_series(exchange_times)
    overall_eff = efficiency_series(overall_times)
    rows: list[dict[str, object]] = []
    for n_nodes in sorted(compute_times):
        rows.append(
            {
                "figure": "fig4",
                "platform": "aws",
                "nodes": n_nodes,
                "local_processing_efficiency": compute_eff[n_nodes],
                "packing_efficiency": compute_eff[n_nodes],
                "exchange_efficiency": exchange_eff[n_nodes],
                "overall_efficiency": overall_eff[n_nodes],
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Figure 8 — alignment-stage load imbalance
# ---------------------------------------------------------------------------

def figure8_load_imbalance(harness: ExperimentHarness | None = None,
                           nodes: tuple[int, ...] = SCALING_NODES) -> list[dict[str, object]]:
    """Figure 8: alignment-stage load imbalance (max/mean, 1.0 = perfect)."""
    harness = harness or default_harness()
    runs = harness.scaling_runs("ecoli30x", "one-seed", nodes)
    rows: list[dict[str, object]] = []
    for platform in PLATFORM_KEYS:
        for n_nodes, result in runs.items():
            record = result.stage("alignment")
            # Work (DP-cell) imbalance drives the projected-time imbalance on
            # every platform; task-count imbalance is reported alongside to
            # reproduce the paper's "< 0.002%" observation.
            tasks_per_rank = [r.counters.get("alignments", 0) for r in result.rank_reports]
            mean_tasks = sum(tasks_per_rank) / max(1, len(tasks_per_rank))
            task_imbalance = (max(tasks_per_rank) / mean_tasks) if mean_tasks else 1.0
            rows.append(
                {
                    "figure": "fig8",
                    "platform": platform,
                    "nodes": n_nodes,
                    "load_imbalance": record.load_imbalance(),
                    "task_count_imbalance": task_imbalance,
                }
            )
    return rows


# ---------------------------------------------------------------------------
# Figures 9 and 10 — runtime breakdown on Cori
# ---------------------------------------------------------------------------

def _breakdown(harness: ExperimentHarness, workload: str, strategy: str,
               nodes: tuple[int, ...]) -> list[dict[str, object]]:
    rows: list[dict[str, object]] = []
    for n_nodes in nodes:
        result = harness.run(workload, strategy, n_nodes)
        projection = harness.project(result, "cori", workload=workload)
        total = projection.total_seconds
        for stage in projection.stages:
            rows.append(
                {
                    "workload": workload,
                    "strategy": strategy,
                    "nodes": n_nodes,
                    "stage": stage.stage,
                    "compute_seconds": stage.compute_seconds,
                    "exchange_seconds": stage.exchange_seconds,
                    "compute_pct": 100.0 * stage.compute_seconds / total if total else 0.0,
                    "exchange_pct": 100.0 * stage.exchange_seconds / total if total else 0.0,
                }
            )
    return rows


def figure9_breakdown_30x(harness: ExperimentHarness | None = None,
                          nodes: tuple[int, ...] = SCALING_NODES) -> list[dict[str, object]]:
    """Figure 9: per-stage runtime shares on Cori, E. coli 30x one-seed."""
    return _breakdown(harness or default_harness(), "ecoli30x", "one-seed", nodes)


def figure10_breakdown_100x(harness: ExperimentHarness | None = None,
                            nodes: tuple[int, ...] = REDUCED_NODES) -> list[dict[str, object]]:
    """Figure 10: per-stage runtime shares on Cori, E. coli 100x all seeds >= 1 kbp apart."""
    return _breakdown(harness or default_harness(), "ecoli100x", "d=1000", nodes)


# ---------------------------------------------------------------------------
# Figure 11 — overall efficiency on Cori across workloads
# ---------------------------------------------------------------------------

def figure11_overall_efficiency(harness: ExperimentHarness | None = None,
                                nodes: tuple[int, ...] = REDUCED_NODES
                                ) -> list[dict[str, object]]:
    """Figure 11: overall pipeline efficiency on Cori for 2 data sets x 3 seed settings."""
    harness = harness or default_harness()
    rows: list[dict[str, object]] = []
    for workload in ("ecoli30x", "ecoli100x"):
        for strategy in ("one-seed", "d=1000", "d=k"):
            times: dict[int, float] = {}
            for n_nodes in nodes:
                result = harness.run(workload, strategy, n_nodes)
                times[n_nodes] = harness.project(result, "cori",
                                                 workload=workload).total_seconds
            eff = efficiency_series(times)
            for n_nodes in sorted(times):
                rows.append(
                    {
                        "figure": "fig11",
                        "workload": workload,
                        "strategy": strategy,
                        "nodes": n_nodes,
                        "total_seconds": times[n_nodes],
                        "overall_efficiency": eff[n_nodes],
                    }
                )
    return rows


# ---------------------------------------------------------------------------
# Figure 12 — overall vs exchange efficiency across architectures
# ---------------------------------------------------------------------------

def figure12_exchange_efficiency(harness: ExperimentHarness | None = None,
                                 nodes: tuple[int, ...] = SCALING_NODES
                                 ) -> list[dict[str, object]]:
    """Figure 12: overall (solid) and exchange (dashed) efficiency per platform."""
    harness = harness or default_harness()
    runs = harness.scaling_runs("ecoli30x", "one-seed", nodes)
    rows: list[dict[str, object]] = []
    for platform in PLATFORM_KEYS:
        overall_times: dict[int, float] = {}
        exchange_times: dict[int, float] = {}
        for n_nodes, result in runs.items():
            projection = harness.project(result, platform, workload="ecoli30x")
            overall_times[n_nodes] = projection.total_seconds
            exchange_times[n_nodes] = max(projection.total_exchange_seconds, 1e-12)
        overall_eff = efficiency_series(overall_times)
        exchange_eff = efficiency_series(exchange_times)
        for n_nodes in sorted(overall_times):
            rows.append(
                {
                    "figure": "fig12",
                    "platform": platform,
                    "nodes": n_nodes,
                    "overall_efficiency": overall_eff[n_nodes],
                    "exchange_efficiency": exchange_eff[n_nodes],
                }
            )
    return rows


# ---------------------------------------------------------------------------
# Figure 13 — overall pipeline performance across architectures
# ---------------------------------------------------------------------------

def figure13_pipeline_performance(harness: ExperimentHarness | None = None,
                                  nodes: tuple[int, ...] = SCALING_NODES
                                  ) -> list[dict[str, object]]:
    """Figure 13: end-to-end throughput (M alignments/s) across platforms."""
    harness = harness or default_harness()
    runs = harness.scaling_runs("ecoli30x", "one-seed", nodes)
    rows: list[dict[str, object]] = []
    for platform in PLATFORM_KEYS:
        for n_nodes, result in runs.items():
            projection = harness.project(result, platform, workload="ecoli30x")
            total = projection.total_seconds
            alignments = projection.stage("alignment").items
            rows.append(
                {
                    "figure": "fig13",
                    "platform": platform,
                    "nodes": n_nodes,
                    "total_seconds": total,
                    "alignments": alignments,
                    "alignments_per_sec_millions": (alignments / total / 1e6) if total else 0.0,
                }
            )
    return rows


# ---------------------------------------------------------------------------
# Table 2 — single-node runtime comparison against the DALIGNER-like baseline
# ---------------------------------------------------------------------------

def table2_single_node(harness: ExperimentHarness | None = None,
                       ranks: int = 4) -> list[dict[str, object]]:
    """Table 2: measured single-node wall time, diBELLA vs the DALIGNER-like baseline.

    Unlike the figure experiments (which project onto the paper's machines),
    this one reports *measured* wall-clock seconds of this process on the
    three Table 2 inputs — the comparison is therefore between the two
    implementations in the same environment, which is exactly Table 2's
    structure (both tools on the same Cori node).
    """
    harness = harness or default_harness()
    rows: list[dict[str, object]] = []
    for workload in ("ecoli30x_sample", "ecoli30x", "ecoli100x"):
        dataset = harness.dataset(workload)
        spec = dataset.spec
        config = PipelineConfig(
            coverage_hint=spec.reads.coverage,
            error_rate_hint=spec.reads.error_rate,
        )
        pipeline = DibellaPipeline(config=config,
                                   topology=Topology.single_node(ranks))
        result = pipeline.run(dataset.reads)

        baseline = DalignerLikeOverlapper(DalignerConfig())
        baseline_result = baseline.run(dataset.reads)

        rows.append(
            {
                "table": "table2",
                "workload": workload,
                "reads": len(dataset.reads),
                "dibella_seconds": result.wall_seconds,
                "daligner_like_seconds": baseline_result.total_seconds,
                "ratio": (result.wall_seconds / baseline_result.total_seconds
                          if baseline_result.total_seconds > 0 else float("inf")),
                "dibella_pairs": result.n_overlap_pairs,
                "daligner_like_pairs": len(baseline_result.overlap_pairs),
            }
        )
    return rows
