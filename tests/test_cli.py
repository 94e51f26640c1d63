"""The CLI's one knob surface: run, serve and query share one flag group.

Every pipeline flag is declared once and turned into a ``PipelineConfig``
by one function, so each subcommand accepts the same flags and a flag sets
exactly its config field.  The query subcommand reads FASTA or FASTQ.
"""

from __future__ import annotations

import multiprocessing as mp
from dataclasses import replace

import pytest

from repro.cli import _build_parser, _config, _pipeline_flags, main
from repro.core.config import PipelineConfig
from repro.core.stages import reset_persistent_read_caches, reset_resident_indexes
from repro.io import write_fasta, write_fastq
from repro.overlap.seeds import SeedStrategy
from repro.seq.kmer import KmerSpec
from repro.seq.records import ReadSet

#: The arguments each subcommand needs before any pipeline flag.
COMMANDS = {
    "run": ["run"],
    "serve": ["serve"],
    "query": ["query", "--index", "index.fa", "--queries", "queries.fq"],
}

#: One case per config flag of the shared group: the flags, then the config
#: fields they must set (every other field keeps its default).
KNOB_CASES = {
    "k": (["-k", "21"], {"kmer": KmerSpec(k=21)}),
    "seed-strategy": (["--seed-strategy", "d1000"],
                      {"seed_strategy": SeedStrategy.separated_by(1000)}),
    "seed-strategy-dk": (["--seed-strategy", "dk", "-k", "15"],
                         {"kmer": KmerSpec(k=15),
                          "seed_strategy": SeedStrategy.separated_by(15)}),
    "seed-mode": (["--seed-mode", "minimizer"], {"seed_mode": "minimizer"}),
    "minimizer-window": (["--minimizer-window", "5"], {"minimizer_window": 5}),
    "backend": (["--backend", "process"], {"backend": "process"}),
    "exchange-chunk-mb": (["--exchange-chunk-mb", "4"], {"exchange_chunk_mb": 4.0}),
    "exchange-chunk-mb-off": (["--exchange-chunk-mb", "0"], {"exchange_chunk_mb": None}),
    "batch-reads": (["--batch-reads", "64"], {"batch_reads": 64}),
    "sanitize": (["--sanitize"], {"sanitize": True}),
    "fault-plan": (["--fault-plan", "exit:rank=1:step=2"],
                   {"fault_plan": "exit:rank=1:step=2"}),
    "serve-batch-reads": (["--serve-batch-reads", "8"], {"serve_batch_reads": 8}),
    "serve-max-retries": (["--serve-max-retries", "0"], {"serve_max_retries": 0}),
}

#: Flags of the shared group that are not config fields.
NON_CONFIG_FLAGS = {"--nodes", "--ranks-per-node", "--pool-stats"}


def _parse(command: str, flags: list[str]):
    return _build_parser().parse_args([*COMMANDS[command], *flags])


@pytest.mark.parametrize("command", sorted(COMMANDS))
class TestKnobParity:
    @pytest.mark.parametrize("case", sorted(KNOB_CASES))
    def test_flag_sets_its_field(self, command, case):
        flags, changes = KNOB_CASES[case]
        assert _config(_parse(command, flags)) == replace(PipelineConfig(), **changes)

    def test_removed_read_cache_flag_is_unknown(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            _parse(command, ["--read-cache-mb", "1.5"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --read-cache-mb" in capsys.readouterr().err

    def test_removed_pool_flag_is_unknown(self, command, capsys):
        """Process ranks always run on the rank pool, and the k-mer index is
        one table: --pool and --hash-shards are gone (--pool-stats, a report,
        stays)."""
        for flags in (["--pool"], ["--hash-shards", "4"]):
            with pytest.raises(SystemExit) as exc:
                _parse(command, flags)
            assert exc.value.code == 2
            assert (f"unrecognized arguments: {' '.join(flags)}"
                    in capsys.readouterr().err)

    def test_no_flags_is_the_default_config(self, command):
        assert _config(_parse(command, [])) == PipelineConfig()

    def test_topology_and_report_flags(self, command):
        args = _parse(command, ["--nodes", "3", "--ranks-per-node", "5", "--pool-stats"])
        assert (args.nodes, args.ranks_per_node, args.pool_stats) == (3, 5, True)

    def test_one_bad_value_is_one_usage_error(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*COMMANDS[command], "--batch-reads", "0"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "dibella: error: batch_reads must be >= 1")


def test_every_shared_flag_has_a_parity_case():
    declared = {option for action in _pipeline_flags()._actions
                for option in action.option_strings}
    covered = {flags[0] for flags, _ in KNOB_CASES.values()}
    assert declared - NON_CONFIG_FLAGS == covered


def test_query_takes_a_fasta_index(tmp_path, micro_dataset, capsys):
    reads = list(micro_dataset.reads)
    index, queries = tmp_path / "index.fa", tmp_path / "queries.fq"
    write_fasta(ReadSet(reads[:-4]), index)
    write_fastq(ReadSet(reads[-4:]), queries)
    overlaps = tmp_path / "overlaps.tsv"
    try:
        assert main(["query", "--index", str(index), "--queries", str(queries),
                     "--ranks-per-node", "2", "--overlaps-out", str(overlaps)]) == 0
    finally:
        # Thread ranks keep their resident index and read cache here.
        reset_persistent_read_caches()
        reset_resident_indexes()
    out = capsys.readouterr().out
    assert f"({len(reads) - 4} reads)" in out and "(4 reads)" in out
    lines = overlaps.read_text().splitlines()
    assert lines[0].startswith("index_read\tquery_read") and len(lines) > 1


def test_query_releases_its_rank_pool(tmp_path, micro_dataset, capsys):
    reads = list(micro_dataset.reads)
    index, queries = tmp_path / "index.fa", tmp_path / "queries.fa"
    write_fasta(ReadSet(reads[:-4]), index)
    write_fasta(ReadSet(reads[-4:]), queries)
    assert main(["query", "--index", str(index), "--queries", str(queries),
                 "--ranks-per-node", "2", "--backend", "process",
                 "--pool-stats"]) == 0
    assert "pool[x2]: runs_completed=2 forks_amortised=2" in capsys.readouterr().out
    assert not [p.name for p in mp.active_children()
                if p.name.startswith("spmd-pool-rank-")]


@pytest.mark.parametrize("empty", ["index", "queries"])
def test_query_with_an_empty_file_is_a_usage_error(tmp_path, empty, capsys):
    paths = {"index": tmp_path / "index.fa", "queries": tmp_path / "queries.fa"}
    write_fasta(ReadSet([]), paths[empty])
    other = "queries" if empty == "index" else "index"
    paths[other].write_text(">r1\nACGTACGTACGTACGTACGTACGT\n")
    with pytest.raises(SystemExit) as exc:
        main(["query", "--index", str(paths["index"]), "--queries", str(paths["queries"])])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1].startswith("dibella: error: ") and "Traceback" not in err
