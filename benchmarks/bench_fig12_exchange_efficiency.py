"""Figure 12: overall vs exchange efficiency across architectures."""

from conftest import SCALING_NODES, record_rows

from repro.bench.experiments import figure12_exchange_efficiency
from repro.bench.reporting import format_series


def test_fig12_exchange_efficiency(benchmark, harness):
    rows = benchmark.pedantic(figure12_exchange_efficiency, args=(harness, SCALING_NODES),
                              rounds=1, iterations=1)
    text = (format_series(rows, x="nodes", y="overall_efficiency", group="platform",
                          title="Figure 12 (solid): overall efficiency")
            + "\n"
            + format_series(rows, x="nodes", y="exchange_efficiency", group="platform",
                            title="Figure 12 (dashed): exchange efficiency"))
    record_rows("fig12_exchange_efficiency", text)
    largest = max(r["nodes"] for r in rows)
    last = {r["platform"]: r for r in rows if r["nodes"] == largest}
    # Expected shape: exchange efficiency degrades far faster than overall
    # efficiency, and the commodity AWS network fares worst.
    for platform, row in last.items():
        assert row["exchange_efficiency"] < row["overall_efficiency"]
    assert last["aws"]["exchange_efficiency"] == min(
        r["exchange_efficiency"] for r in last.values())
