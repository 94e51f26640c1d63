"""Table 2: single-node runtime comparison against the DALIGNER-like baseline."""

from conftest import record_rows

from repro.bench.experiments import table2_single_node
from repro.bench.reporting import format_table


def test_table2_single_node(benchmark, harness):
    rows = benchmark.pedantic(table2_single_node, args=(harness,), kwargs={"ranks": 4},
                              rounds=1, iterations=1)
    record_rows("table2_daligner", format_table(
        rows, columns=["workload", "reads", "dibella_seconds", "daligner_like_seconds",
                       "ratio", "dibella_pairs", "daligner_like_pairs"],
        title="Table 2: single-node runtime (s), diBELLA vs DALIGNER-like baseline"))
    # Expected shape: both runtimes grow with the input, and diBELLA stays
    # within a small factor of the baseline (the paper reports 1.2-1.7x).
    by_workload = {r["workload"]: r for r in rows}
    assert by_workload["ecoli30x"]["dibella_seconds"] > by_workload["ecoli30x_sample"]["dibella_seconds"]
    for row in rows:
        assert row["ratio"] < 6.0
    # Counter claim: on every input the baseline finds exactly diBELLA's
    # overlap pairs (both seed with k = 17), so the ratio compares equal work.
    for row in rows:
        assert row["dibella_pairs"] == row["daligner_like_pairs"], row["workload"]
