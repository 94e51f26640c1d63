"""Experiment harness: one registered experiment per paper table/figure.

* :mod:`repro.bench.harness` — benchmark workloads (scaled E. coli-like
  presets), a process-wide cache of pipeline runs keyed by (workload, seed
  strategy, node count), and the helpers that project a run onto the paper's
  platforms.
* :mod:`repro.bench.experiments` — one function per table/figure producing
  exactly the rows/series the paper plots.
* :mod:`repro.bench.reporting` — plain-text table/series formatting used by
  the benchmark scripts and the CLI.

The benchmark scripts under ``benchmarks/`` — one per paper figure or table,
nothing else — are thin wrappers that call these functions under
``pytest-benchmark`` and print the regenerated figure data.
"""

from repro.bench.harness import (
    BenchWorkloads,
    ExperimentHarness,
    default_harness,
)
from repro.bench.experiments import (
    table1_platforms,
    figure3_bloom_scaling,
    figure4_bloom_efficiency_aws,
    figure5_hashtable_scaling,
    figure6_overlap_scaling,
    figure7_alignment_scaling,
    figure8_load_imbalance,
    figure9_breakdown_30x,
    figure10_breakdown_100x,
    figure11_overall_efficiency,
    figure12_exchange_efficiency,
    figure13_pipeline_performance,
    table2_single_node,
)
from repro.bench.reporting import format_table, format_series

__all__ = [
    "BenchWorkloads",
    "ExperimentHarness",
    "default_harness",
    "table1_platforms",
    "figure3_bloom_scaling",
    "figure4_bloom_efficiency_aws",
    "figure5_hashtable_scaling",
    "figure6_overlap_scaling",
    "figure7_alignment_scaling",
    "figure8_load_imbalance",
    "figure9_breakdown_30x",
    "figure10_breakdown_100x",
    "figure11_overall_efficiency",
    "figure12_exchange_efficiency",
    "figure13_pipeline_performance",
    "table2_single_node",
    "format_table",
    "format_series",
]
