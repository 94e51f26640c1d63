"""Command-line interface: ``dibella``.

Subcommands
-----------
``simulate``
    Generate a synthetic PacBio-like data set and write it as FASTQ.
``run``
    Run the overlap + alignment pipeline on a FASTA or FASTQ file (or a
    named synthetic preset) and print the run summary; optionally write the
    detected overlaps to a TSV file.
``serve``
    Build/serve session: build the resident k-mer index over a slice of the
    input, then drain the remaining reads through the
    :class:`~repro.core.service.AlignmentService` as repeated query batches,
    printing per-batch latency and reuse counters.
``query``
    One query batch: build the index from ``--index`` and align the
    ``--queries`` reads against it (the serve phase without the admission
    loop).
``experiment``
    Regenerate one of the paper's tables/figures and print its rows.
``platforms``
    Print the Table 1 platform registry.

``run``, ``serve`` and ``query`` take the same pipeline flags
(:func:`_pipeline_flags`), and one function (:func:`_config`) turns them
into the :class:`~repro.core.config.PipelineConfig`.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from dataclasses import fields
from pathlib import Path
from typing import Iterator

from repro.bench import experiments as exp
from repro.bench.reporting import format_table
from repro.core.config import PipelineConfig
from repro.core.pipeline import DibellaPipeline
from repro.core.service import AlignmentService
from repro.mpisim.backend import rank_pool_stats, shutdown_rank_pools
from repro.mpisim.topology import Topology
from repro.data.datasets import (
    DatasetSpec,
    ecoli100x_like,
    ecoli30x_like,
    generate_dataset,
    tiny_dataset,
)
from repro.io import read_reads, write_fastq
from repro.overlap.seeds import SeedStrategy
from repro.seq.records import ReadSet
from repro.seq.kmer import KmerSpec

_PRESETS = {
    "tiny": tiny_dataset,
    "ecoli30x": ecoli30x_like,
    "ecoli100x": ecoli100x_like,
}

_EXPERIMENTS = {
    "table1": exp.table1_platforms,
    "fig3": exp.figure3_bloom_scaling,
    "fig4": exp.figure4_bloom_efficiency_aws,
    "fig5": exp.figure5_hashtable_scaling,
    "fig6": exp.figure6_overlap_scaling,
    "fig7": exp.figure7_alignment_scaling,
    "fig8": exp.figure8_load_imbalance,
    "fig9": exp.figure9_breakdown_30x,
    "fig10": exp.figure10_breakdown_100x,
    "fig11": exp.figure11_overall_efficiency,
    "fig12": exp.figure12_exchange_efficiency,
    "fig13": exp.figure13_pipeline_performance,
    "table2": exp.table2_single_node,
}


def _pipeline_flags() -> argparse.ArgumentParser:
    """The pipeline flags of ``run``, ``serve`` and ``query``, each declared once.

    Every flag but ``--nodes``/``--ranks-per-node`` (the topology) and
    ``--pool-stats`` (a report) sets the :class:`PipelineConfig` field named
    by its ``dest``; a flag left out keeps the field's default, which
    honours the field's ``DIBELLA_*`` environment variable.  ``run`` ignores
    the two serve knobs, as it ignores their environment variables.
    """
    flags = argparse.ArgumentParser(add_help=False)
    group = flags.add_argument_group("pipeline options (run, serve and query)")
    group.add_argument("-k", type=int, default=17, help="k-mer length")
    group.add_argument("--nodes", type=int, default=1, help="simulated node count")
    group.add_argument("--ranks-per-node", type=int, default=2)
    group.add_argument("--seed-strategy", choices=["one", "d1000", "dk"], default="one",
                       help="seeds aligned per overlapping pair: one, all at "
                            "least 1000 bp apart, or all at least k apart")
    group.add_argument("--seed-mode", choices=["reliable", "minimizer"], default=None,
                       help="seeding front-end of stages 1-3: 'reliable' (the "
                            "paper) exchanges every canonical k-mer; 'minimizer' "
                            "keeps only the minimum-hash k-mer per window of "
                            "--minimizer-window, cutting stage 1-3 wire bytes "
                            "and table memory ~w/2-x at a small recall cost; an "
                            "index build and its query batches sketch with the "
                            "same (k, w) (DIBELLA_SEED_MODE has the same effect)")
    group.add_argument("--minimizer-window", type=int, default=None,
                       help="minimizer window length w in k-mers (default 11; "
                            "1 = keep every k-mer; ignored in reliable mode; "
                            "DIBELLA_MINIMIZER_WINDOW has the same effect)")
    group.add_argument("--backend", choices=["thread", "process"], default=None,
                       help="SPMD runtime backend: threads (default) or one process "
                            "per rank exchanging typed buffers via shared memory")
    group.add_argument("--exchange-chunk-mb", type=float, default=None,
                       help="per-rank wire budget (MiB) of each overlap-exchange "
                            "superstep; 0 disables chunking (one monolithic "
                            "Alltoallv); default honours DIBELLA_EXCHANGE_CHUNK_MB, "
                            "else 8")
    group.add_argument("--batch-reads", type=int, default=None,
                       help="local reads parsed per streaming superstep in the "
                            "k-mer stages (the memory bound of the streaming "
                            "pipeline; DIBELLA_BATCH_READS has the same effect, "
                            "default 2048)")
    group.add_argument("--hash-shards", dest="hash_table_shards", metavar="HASH_SHARDS",
                       type=int, default=None,
                       help="number of k-mer code-range shards the retained-k-mer "
                            "table is built in; >1 streams the hash-table/overlap "
                            "boundary one shard at a time, bounding peak table "
                            "memory (default honours DIBELLA_HASH_SHARDS, else 4)")
    group.add_argument("--sanitize", action="store_true", default=None,
                       help="arm the runtime sanitizer: cross-rank collective "
                            "congruence checks, split-phase segment lifecycle "
                            "guards and a hang watchdog (DIBELLA_SANITIZE=1 has "
                            "the same effect; output is bit-identical)")
    group.add_argument("--fault-plan", default=None, metavar="PLAN",
                       help="deterministic fault plan injected into the run, e.g. "
                            "'kill:rank=2:step=3' (serve: build = run 0, first "
                            "batch = run 1; grammar in docs/fault-tolerance.md; "
                            "kill faults need --backend process; "
                            "DIBELLA_FAULT_PLAN has the same effect)")
    group.add_argument("--serve-batch-reads", type=int, default=None,
                       help="serve admission bound: queued submissions are "
                            "coalesced into batches of at most this many reads "
                            "(DIBELLA_SERVE_BATCH_READS has the same effect)")
    group.add_argument("--serve-max-retries", type=int, default=None,
                       help="retries of an index build or query batch whose "
                            "run died from a rank failure (default 2; 0 "
                            "disables recovery; DIBELLA_SERVE_MAX_RETRIES has "
                            "the same effect)")
    group.add_argument("--pool-stats", action="store_true",
                       help="print per-pool usage statistics (runs served, forks "
                            "amortised) afterwards; only process-backend runs "
                            "use rank pools")
    return flags


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dibella",
        description="diBELLA reproduction: distributed long-read overlap and alignment",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    pipeline = _pipeline_flags()

    sim = sub.add_parser("simulate", help="generate a synthetic data set as FASTQ")
    sim.add_argument("--preset", choices=sorted(_PRESETS), default="tiny")
    sim.add_argument("--scale", type=float, default=0.01,
                     help="genome scale factor for the E. coli presets")
    sim.add_argument("--output", required=True, help="output FASTQ path")

    source = argparse.ArgumentParser(add_help=False)
    source.add_argument("--input", help="input FASTA or FASTQ file (omit to use --preset)")
    source.add_argument("--preset", choices=sorted(_PRESETS), default="tiny")
    source.add_argument("--scale", type=float, default=0.01,
                        help="genome scale factor for the E. coli presets")

    # Exact flags only on the pipeline commands: a removed flag that
    # prefixes a live one (--pool of --pool-stats) must fail, not alias it.
    run = sub.add_parser("run", parents=[source, pipeline], allow_abbrev=False,
                         help="run the overlap+alignment pipeline")
    run.add_argument("--overlaps-out", help="write detected overlaps to this TSV file")

    serve = sub.add_parser(
        "serve", parents=[source, pipeline], allow_abbrev=False,
        help="build a resident index, then serve repeated query batches")
    serve.add_argument("--index-fraction", type=float, default=0.8,
                       help="fraction of the input reads indexed; the rest "
                            "become the query stream (default 0.8)")
    serve.add_argument("--query-batches", type=int, default=2,
                       help="number of query batches the non-indexed reads are "
                            "split into (default 2: enough to show reuse)")

    query = sub.add_parser(
        "query", parents=[pipeline], allow_abbrev=False,
        help="align one query batch against an index read set")
    query.add_argument("--index", required=True, help="index FASTA or FASTQ file")
    query.add_argument("--queries", required=True, help="query FASTA or FASTQ file")
    query.add_argument("--overlaps-out",
                       help="write the query-vs-index alignments to this TSV file")

    ex = sub.add_parser("experiment", help="regenerate a paper table/figure")
    ex.add_argument("name", choices=sorted(_EXPERIMENTS))

    sub.add_parser("platforms", help="print the Table 1 platform registry")
    return parser


class _UsageError(Exception):
    """A command-line argument or input file that cannot start a run."""


@contextmanager
def _cli_inputs() -> Iterator[None]:
    """Turn the errors of building a run's inputs into a usage error.

    Wraps only the construction of the config, topology and read set, so
    :func:`main` reports a bad flag value or an unreadable input in one
    line (exit status 2), while a failure inside the run itself still
    propagates with its traceback.
    """
    try:
        yield
    except (ValueError, OSError) as exc:
        raise _UsageError(str(exc)) from exc


def _resolve_strategy(name: str, k: int) -> SeedStrategy:
    if name == "one":
        return SeedStrategy.one_seed()
    if name == "d1000":
        return SeedStrategy.separated_by(1000)
    return SeedStrategy.separated_by(k)


def _print_pool_stats() -> None:
    stats = rank_pool_stats()
    if not stats:
        print("pool: no active rank pools")
        return
    for entry in stats:
        print(f"pool[x{entry['n_ranks']}]: "
              f"runs_completed={entry['runs_completed']} "
              f"forks_amortised={entry['forks_amortised']}")


def _load_reads(args: argparse.Namespace) -> tuple[ReadSet, str]:
    """The input read set and a printable source label (file or preset)."""
    if args.input:
        return read_reads(args.input), args.input
    spec = _preset_spec(args)
    return generate_dataset(spec).reads, spec.name


def _preset_spec(args: argparse.Namespace) -> DatasetSpec:
    """The synthetic data set named by ``--preset`` at ``--scale``."""
    factory = _PRESETS[args.preset]
    return factory() if args.preset == "tiny" else factory(scale=args.scale)


def _cmd_simulate(args: argparse.Namespace) -> int:
    dataset = generate_dataset(_preset_spec(args))
    count = write_fastq(dataset.reads, Path(args.output))
    print(f"wrote {count} reads ({dataset.reads.total_bases} bases) to {args.output}")
    return 0


def _config(args: argparse.Namespace) -> PipelineConfig:
    """The :class:`PipelineConfig` of the pipeline flags on the command line.

    One constructor call, so the config validates once, with every given
    flag in place (a kill fault plan is checked against ``--backend``).
    """
    knobs = {f.name for f in fields(PipelineConfig)}
    given = {name: value for name, value in vars(args).items()
             if name in knobs and value is not None}
    if given.get("exchange_chunk_mb") == 0:
        # 0 disables chunking; negative values fall through to the config's
        # validation error instead of silently disabling.
        given["exchange_chunk_mb"] = None
    given["seed_strategy"] = _resolve_strategy(args.seed_strategy, args.k)
    return PipelineConfig(kmer=KmerSpec(k=args.k), **given)


def _cmd_run(args: argparse.Namespace) -> int:
    with _cli_inputs():
        config = _config(args)
        topology = Topology(n_nodes=args.nodes, ranks_per_node=args.ranks_per_node)
        reads, source = _load_reads(args)
        if len(reads) == 0:
            raise ValueError(f"{source}: no reads to align")
    result = DibellaPipeline(config=config, topology=topology).run(reads)
    print(f"input: {source} ({len(reads)} reads, {reads.total_bases} bases)")
    for key, value in result.summary().items():
        print(f"  {key}: {value}")
    if args.overlaps_out:
        table = result.alignment_table()
        with open(args.overlaps_out, "w", encoding="ascii") as fh:
            fh.write("rid_a\trid_b\tscore\tspan_a\tspan_b\n")
            for ra, rb, score, sa, sb in zip(
                table["rid_a"], table["rid_b"], table["score"],
                table["span_a"], table["span_b"],
            ):
                fh.write(f"{ra}\t{rb}\t{score}\t{sa}\t{sb}\n")
        print(f"wrote {table['rid_a'].size} alignments to {args.overlaps_out}")
    if args.pool_stats:
        _print_pool_stats()
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    with _cli_inputs():
        config = _config(args)
        topology = Topology(n_nodes=args.nodes, ranks_per_node=args.ranks_per_node)
        reads, source = _load_reads(args)
    if not (0.0 < args.index_fraction < 1.0):
        print("serve: --index-fraction must be in (0, 1)", file=sys.stderr)
        return 2
    n_index = max(1, min(len(reads) - 1, int(len(reads) * args.index_fraction)))
    query_rids = list(range(n_index, len(reads)))
    if not query_rids:
        print("serve: input leaves no query reads after the index slice",
              file=sys.stderr)
        return 2
    service = AlignmentService(reads.subset(range(n_index)), config=config,
                               topology=topology)

    build = service.build()
    print(f"index: {source} reads 0..{n_index - 1} "
          f"({build.counters.get('index_retained_kmers', 0)} retained k-mers, "
          f"{build.wall_seconds:.3f}s build)")

    n_batches = max(1, min(args.query_batches, len(query_rids)))
    bounds = [len(query_rids) * i // n_batches for i in range(n_batches + 1)]
    records = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        service.submit([reads[rid] for rid in query_rids[lo:hi]])
        records += service.drain()

    for record in records:
        counters = record.result.counters
        print(f"batch {record.batch_index}: {record.n_reads} reads -> "
              f"{counters.get('accepted_alignments', 0)} alignments in "
              f"{record.wall_seconds:.3f}s "
              f"(index_reuse_hits={counters.get('index_reuse_hits', 0)}, "
              f"index_build_runs={counters.get('index_build_runs', 0)})")
    for key, value in service.latency_stats().items():
        print(f"  {key}: {value:.4f}")
    if args.pool_stats:
        _print_pool_stats()
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    with _cli_inputs():
        config = _config(args)
        topology = Topology(n_nodes=args.nodes, ranks_per_node=args.ranks_per_node)
        index_reads = read_reads(args.index)
        query_reads = read_reads(args.queries)
        service = AlignmentService(index_reads, config=config, topology=topology)
        service.submit(list(query_reads))
    record = service.drain()[0]
    counters = record.result.counters
    print(f"index: {args.index} ({len(index_reads)} reads)  "
          f"queries: {args.queries} ({len(query_reads)} reads)")
    print(f"  alignments: {counters.get('accepted_alignments', 0)}")
    print(f"  overlap_pairs: {counters.get('overlap_pairs', 0)}")
    print(f"  wall_seconds: {record.wall_seconds:.3f}")
    if args.overlaps_out:
        table = record.result.alignment_table()
        n_index = len(index_reads)
        with open(args.overlaps_out, "w", encoding="utf-8") as fh:
            fh.write("index_read\tquery_read\tscore\tspan_a\tspan_b\n")
            for ra, rb, score, sa, sb in zip(
                table["rid_a"], table["rid_b"], table["score"],
                table["span_a"], table["span_b"],
            ):
                fh.write(f"{index_reads[int(ra)].name}\t"
                         f"{query_reads[int(rb) - n_index].name}\t"
                         f"{score}\t{sa}\t{sb}\n")
        print(f"wrote {table['rid_a'].size} alignments to {args.overlaps_out}")
    if args.pool_stats:
        _print_pool_stats()
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    rows = _EXPERIMENTS[args.name]()
    print(format_table(rows, title=f"Experiment {args.name}"))
    return 0


def _cmd_platforms(_args: argparse.Namespace) -> int:
    print(format_table(exp.table1_platforms(), title="Table 1: evaluated platforms"))
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "simulate": _cmd_simulate,
        "run": _cmd_run,
        "serve": _cmd_serve,
        "query": _cmd_query,
        "experiment": _cmd_experiment,
        "platforms": _cmd_platforms,
    }
    try:
        return handlers[args.command](args)
    except _UsageError as exc:
        parser.error(str(exc))
    finally:
        # Process-backend ranks park in a rank pool for reuse within the
        # command; an in-process caller of main() must not inherit those
        # workers.  --pool-stats has printed by now.
        shutdown_rank_pools()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
