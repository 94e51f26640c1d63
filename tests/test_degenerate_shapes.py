"""Degenerate input shapes: more ranks than reads, reads shorter than k, one read.

Each shape runs the one-shot pipeline and the serve path (``build_index`` +
``run_query_batch``) on both runtime backends.  Every run must complete —
no untyped error, no hang — and where no k-mer survives there is nothing to
align.  More ranks than reads must not change the science: the 8-rank run
matches a 1-rank run of the same reads.
"""

from __future__ import annotations

import pytest

from repro.core.config import PipelineConfig
from repro.core.pipeline import DibellaPipeline
from repro.core.stages import reset_persistent_read_caches, reset_resident_indexes
from repro.mpisim import communicator
from repro.mpisim.backend import shutdown_rank_pools
from repro.mpisim.topology import Topology
from repro.seq.kmer import KmerSpec
from repro.seq.records import Read, ReadSet

BACKENDS = ("thread", "process")

#: k of every run here; the sub-k shape's reads are shorter than this.
K = 15


@pytest.fixture(autouse=True)
def _bounded_clean_runs(monkeypatch):
    # A wedged collective fails the run in 60 s instead of hanging the suite;
    # pools are rebuilt so their workers inherit the bound.
    monkeypatch.setattr(communicator, "_BARRIER_TIMEOUT", 60.0)
    shutdown_rank_pools()
    yield
    shutdown_rank_pools()
    reset_persistent_read_caches()
    reset_resident_indexes()


def _config(backend: str) -> PipelineConfig:
    return PipelineConfig(kmer=KmerSpec(k=K), coverage_hint=12.0,
                          error_rate_hint=0.08, backend=backend)


def _renamed(reads: list[Read], prefix: str) -> ReadSet:
    return ReadSet([Read(f"{prefix}{i}", read.sequence)
                    for i, read in enumerate(reads)])


def _sub_k_reads(n: int, prefix: str) -> ReadSet:
    bases = "ACGT"
    return ReadSet([Read(f"{prefix}{i}", "".join(bases[(i + j) % 4]
                                                 for j in range(K - 1 - i)))
                    for i in range(n)])


def _alignments(result) -> list[tuple]:
    table = result.alignment_table()
    return sorted(zip(*(table[column].tolist() for column in sorted(table))))


def _serve(config: PipelineConfig, n_ranks: int, index: ReadSet,
           queries: ReadSet):
    pipeline = DibellaPipeline(config=config,
                               topology=Topology.single_node(n_ranks))
    pipeline.build_index(index)
    return pipeline.run_query_batch(queries)


@pytest.mark.parametrize("backend", BACKENDS)
class TestDegenerateShapes:
    def test_more_ranks_than_reads(self, backend, micro_dataset):
        reads = list(micro_dataset.reads)
        index, queries = _renamed(reads[:3], "i"), _renamed(reads[3:4], "q")
        config = _config(backend)
        run = DibellaPipeline(config=config,
                              topology=Topology.single_node(8)).run(index)
        reference = DibellaPipeline(config=config,
                                    topology=Topology.single_node(1)).run(index)
        assert _alignments(run) == _alignments(reference)
        served = _serve(config, 8, index, queries)
        assert _alignments(served) == _alignments(_serve(config, 1, index, queries))
        assert served.counters["query_reads"] == 1

    def test_every_read_shorter_than_k(self, backend):
        config = _config(backend)
        run = DibellaPipeline(config=config,
                              topology=Topology.single_node(2)).run(
                                  _sub_k_reads(4, "i"))
        assert run.n_alignments == 0 and run.n_overlap_pairs == 0
        served = _serve(config, 2, _sub_k_reads(4, "i"), _sub_k_reads(2, "q"))
        assert served.n_alignments == 0 and served.n_overlap_pairs == 0

    def test_single_read(self, backend, micro_dataset):
        reads = list(micro_dataset.reads)
        config = _config(backend)
        run = DibellaPipeline(config=config,
                              topology=Topology.single_node(2)).run(
                                  _renamed(reads[:1], "i"))
        assert run.n_alignments == 0 and run.n_overlap_pairs == 0
        served = _serve(config, 2, _renamed(reads[:1], "i"),
                        _sub_k_reads(1, "q"))
        assert served.n_alignments == 0 and served.n_overlap_pairs == 0
