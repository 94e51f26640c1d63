"""Tests for the experiment harness, reporting helpers and the CLI."""

import pytest

pytestmark = pytest.mark.slow

from repro.bench.harness import (
    BenchWorkloads,
    ExperimentHarness,
    SEED_STRATEGIES,
    TARGET_INPUT_BASES,
)
from repro.bench.experiments import table1_platforms
from repro.bench.reporting import format_series, format_table
from repro.cli import main
from repro.data.datasets import DatasetSpec
from repro.data.genome import GenomeSpec
from repro.data.reads import ReadSimSpec


@pytest.fixture(scope="module")
def tiny_harness():
    """A harness whose workloads are tiny enough for test-time pipeline runs."""
    workloads = BenchWorkloads(
        ecoli30x=DatasetSpec(
            name="t30", genome=GenomeSpec(length=2500, seed=1),
            reads=ReadSimSpec(coverage=12, mean_read_length=700, min_read_length=300,
                              error_rate=0.10, seed=2)),
        ecoli100x=DatasetSpec(
            name="t100", genome=GenomeSpec(length=1200, seed=3),
            reads=ReadSimSpec(coverage=25, mean_read_length=500, min_read_length=250,
                              error_rate=0.12, seed=4)),
        ecoli30x_sample=DatasetSpec(
            name="t30s", genome=GenomeSpec(length=1200, seed=5),
            reads=ReadSimSpec(coverage=12, mean_read_length=700, min_read_length=300,
                              error_rate=0.10, seed=6)),
    )
    return ExperimentHarness(workloads=workloads)


class TestHarness:
    def test_strategies_registered(self):
        assert set(SEED_STRATEGIES) == {"one-seed", "d=1000", "d=k"}

    def test_target_sizes_match_paper(self):
        # §5: 16,890 reads at 9,958 bp and 91,394 reads at 6,934 bp.
        assert TARGET_INPUT_BASES["ecoli30x"] == pytest.approx(1.68e8, rel=0.01)
        assert TARGET_INPUT_BASES["ecoli100x"] == pytest.approx(6.34e8, rel=0.01)

    def test_dataset_cached(self, tiny_harness):
        assert tiny_harness.dataset("ecoli30x") is tiny_harness.dataset("ecoli30x")
        with pytest.raises(KeyError):
            tiny_harness.dataset("unknown")

    def test_run_cached_and_projection(self, tiny_harness):
        run1 = tiny_harness.run("ecoli30x", "one-seed", n_nodes=2)
        run2 = tiny_harness.run("ecoli30x", "one-seed", n_nodes=2)
        assert run1 is run2
        projection = tiny_harness.project(run1, "cori", workload="ecoli30x")
        assert projection.total_seconds > 0
        assert {s.stage for s in projection.stages} == {"bloom", "hashtable",
                                                        "overlap", "alignment"}
        # Projection extrapolates to the full-size data set.
        assert projection.stage("bloom").items > run1.counters["kmers_received_bloom"]

    def test_platform_ordering_in_projection(self, tiny_harness):
        run = tiny_harness.run("ecoli30x", "one-seed", n_nodes=2)
        cori = tiny_harness.project(run, "cori", "ecoli30x").total_seconds
        titan = tiny_harness.project(run, "titan", "ecoli30x").total_seconds
        aws = tiny_harness.project(run, "aws", "ecoli30x").total_seconds
        assert cori < titan <= aws * 1.5

    def test_clear(self, tiny_harness):
        tiny_harness.run("ecoli30x", "one-seed", n_nodes=1)
        tiny_harness.clear()
        assert tiny_harness._runs == {}

    def test_sweep_runs_never_share_read_caches(self, tiny_harness, monkeypatch):
        """Two runs over the same reads each pay every remote read fetch.

        A read cached by an earlier run of a sweep would skip a fetch and
        shrink the later run's measured exchange volumes, so the harness
        keeps its runs off the persistent rank pool even when the
        environment asks for it.
        """
        monkeypatch.setenv("DIBELLA_POOL", "1")
        monkeypatch.setenv("DIBELLA_BACKEND", "process")
        harness = ExperimentHarness(workloads=tiny_harness.workloads)
        first = harness.run("ecoli30x_sample", "one-seed", n_nodes=2)
        second = harness.run("ecoli30x_sample", "d=1000", n_nodes=2)
        assert first.config.backend == "process"
        assert first.counters["remote_reads_fetched"] > 0
        for result in (first, second):
            assert (result.counters["remote_reads_fetched"]
                    == first.counters["remote_reads_fetched"])
            assert result.counters["read_cache_fetch_hits"] == 0


class TestReporting:
    ROWS = [
        {"platform": "cori", "nodes": 1, "value": 1.2345},
        {"platform": "cori", "nodes": 2, "value": 2.5},
        {"platform": "aws", "nodes": 1, "value": 0.5},
    ]

    def test_format_table(self):
        text = format_table(self.ROWS, title="demo")
        assert "demo" in text
        assert "platform" in text and "cori" in text
        assert "1.234" in text

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([])

    def test_format_series(self):
        text = format_series(self.ROWS, x="nodes", y="value", group="platform")
        assert "cori" in text and "1:1.234" in text and "2:2.500" in text

    def test_table1_experiment(self):
        rows = table1_platforms()
        assert [r["platform"] for r in rows] == ["cori", "edison", "titan", "aws"]


class TestCli:
    def test_platforms_command(self, capsys):
        assert main(["platforms"]) == 0
        out = capsys.readouterr().out
        assert "Cori" in out and "AWS" in out

    def test_simulate_and_run_roundtrip(self, tmp_path, capsys):
        fastq = tmp_path / "reads.fastq"
        assert main(["simulate", "--preset", "tiny", "--output", str(fastq)]) == 0
        assert fastq.exists()
        overlaps = tmp_path / "overlaps.tsv"
        assert main(["run", "--input", str(fastq), "-k", "15",
                     "--ranks-per-node", "2", "--overlaps-out", str(overlaps)]) == 0
        out = capsys.readouterr().out
        assert "overlap_pairs" in out
        lines = overlaps.read_text().splitlines()
        assert lines[0].startswith("rid_a")
        assert len(lines) > 10

    @pytest.mark.parametrize("args", [
        ["--nodes", "0"],
        ["-k", "0"],
        ["--batch-reads", "0"],
        ["--input", "BAD"],
    ], ids=["nodes", "k", "batch-reads", "unknown-format"])
    def test_bad_run_input_exits_cleanly(self, args, tmp_path, capsys):
        bad = tmp_path / "reads.txt"
        bad.write_text("ACGTACGTACGT\n")  # neither a FASTA nor a FASTQ header
        args = [str(bad) if a == "BAD" else a for a in args]
        with pytest.raises(SystemExit) as exc:
            main(["run", *args])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1].startswith("dibella: error: ")
        assert "Traceback" not in err

    def test_experiment_command_table1(self, capsys):
        assert main(["experiment", "table1"]) == 0
        assert "cori" in capsys.readouterr().out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])
