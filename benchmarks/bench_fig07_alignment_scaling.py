"""Figure 7: alignment stage strong scaling (M alignments/s) across platforms."""

from conftest import SCALING_NODES, record_rows

from repro.bench.experiments import figure7_alignment_scaling
from repro.bench.reporting import format_series


def test_fig07_alignment_scaling(benchmark, harness):
    rows = benchmark.pedantic(figure7_alignment_scaling, args=(harness, SCALING_NODES),
                              rounds=1, iterations=1)
    record_rows("fig07_alignment_scaling", format_series(
        rows, x="nodes", y="throughput_millions_per_sec", group="platform",
        title="Figure 7: alignment stage throughput (M alignments/s)"))
    cori = sorted((r for r in rows if r["platform"] == "cori"), key=lambda r: r["nodes"])
    titan = sorted((r for r in rows if r["platform"] == "titan"), key=lambda r: r["nodes"])
    # Strong scaling holds the alignment work fixed: every node count of a
    # platform aligns the same number of items (a count, not a timing).
    for platform in {r["platform"] for r in rows}:
        items = {r["items"] for r in rows if r["platform"] == platform}
        assert len(items) == 1, f"{platform}: alignment items vary with node count: {items}"
    # Expected shape: throughput grows with node count and Cori leads Titan.
    assert cori[-1]["throughput_millions_per_sec"] > cori[0]["throughput_millions_per_sec"]
    assert cori[0]["throughput_millions_per_sec"] > titan[0]["throughput_millions_per_sec"]
