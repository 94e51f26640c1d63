"""Figure 12: overall vs exchange efficiency across architectures."""

from conftest import SCALING_NODES, record_rows

from repro.bench.experiments import figure12_exchange_efficiency
from repro.bench.reporting import format_series
from repro.kmers.hashtable import WIDE_KEY_BITS, occurrence_key_bits


def test_fig12_exchange_efficiency(benchmark, harness):
    rows = benchmark.pedantic(figure12_exchange_efficiency, args=(harness, SCALING_NODES),
                              rounds=1, iterations=1)
    text = (format_series(rows, x="nodes", y="overall_efficiency", group="platform",
                          title="Figure 12 (solid): overall efficiency")
            + "\n"
            + format_series(rows, x="nodes", y="exchange_efficiency", group="platform",
                            title="Figure 12 (dashed): exchange efficiency"))
    record_rows("fig12_exchange_efficiency", text)
    # Counters, not timings: stage 2 ships one key per occurrence received
    # (8 bytes, or 16 in the two-word layout), and strong scaling moves the
    # same occurrences at every node count.
    reads = harness.dataset("ecoli30x").reads
    k = harness._config_for("ecoli30x", "one-seed").kmer.k
    bits = occurrence_key_bits(k, len(reads), int(reads.read_lengths().max()))
    key_bytes = 16 if bits == WIDE_KEY_BITS else 8
    for row in rows:
        assert row["hashtable_payload_bytes"] == key_bytes * row["kmers_received_hashtable"]
    assert len({row["hashtable_payload_bytes"] for row in rows}) == 1
    largest = max(r["nodes"] for r in rows)
    last = {r["platform"]: r for r in rows if r["nodes"] == largest}
    # Expected shape: exchange efficiency degrades far faster than overall
    # efficiency, and the commodity AWS network fares worst.
    for platform, row in last.items():
        assert row["exchange_efficiency"] < row["overall_efficiency"]
    assert last["aws"]["exchange_efficiency"] == min(
        r["exchange_efficiency"] for r in last.values())
