"""Figure 3: Bloom-filter stage strong scaling (M k-mers/s) across platforms."""

from conftest import SCALING_NODES, record_rows

from repro.bench.experiments import figure3_bloom_scaling
from repro.bench.reporting import format_series


def test_fig03_bloom_scaling(benchmark, harness):
    rows = benchmark.pedantic(figure3_bloom_scaling, args=(harness, SCALING_NODES),
                              rounds=1, iterations=1)
    record_rows("fig03_bloom_scaling", format_series(
        rows, x="nodes", y="throughput_millions_per_sec", group="platform",
        title="Figure 3: Bloom-filter stage throughput (M k-mers/s)"))
    by_platform = {p: [r for r in rows if r["platform"] == p] for p in ("cori", "aws")}
    # Strong scaling holds the work fixed: every node count of a platform
    # processes the same number of k-mers (a count, not a timing).
    for platform in {r["platform"] for r in rows}:
        items = {r["items"] for r in rows if r["platform"] == platform}
        assert len(items) == 1, f"{platform}: k-mers vary with node count: {items}"
    # Expected shape: Cori above AWS everywhere, throughput rising with nodes.
    for c, a in zip(by_platform["cori"], by_platform["aws"]):
        assert c["throughput_millions_per_sec"] > a["throughput_millions_per_sec"]
    cori = sorted(by_platform["cori"], key=lambda r: r["nodes"])
    assert cori[-1]["throughput_millions_per_sec"] > cori[0]["throughput_millions_per_sec"]
