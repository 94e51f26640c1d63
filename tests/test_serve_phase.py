"""Serve-phase pinning: bit-identical query batches over a resident index.

The acceptance bar for the build/serve split: a served query batch must
produce exactly the alignments a cold one-shot run over (index ∪ query)
produces for query-vs-index pairs — across both runtime backends and shard
counts — while touching zero index-build code paths after the first batch.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.core import AlignmentService, DibellaPipeline, PipelineConfig
from repro.core.driver import run_dibella
from repro.core.stages import reset_persistent_read_caches, reset_resident_indexes
from repro.mpisim.backend import recovery_counters, shutdown_rank_pools
from repro.mpisim.errors import RankFailedError
from repro.mpisim.topology import Topology
from repro.seq.kmer import KmerSpec
from repro.seq.records import ReadSet


RANKS = 4


def _config(backend: str, shards: int, pool: bool = False) -> PipelineConfig:
    config = PipelineConfig(kmer=KmerSpec(k=15), coverage_hint=12.0,
                            error_rate_hint=0.08, backend=backend,
                            hash_table_shards=shards)
    if pool:
        config = replace(config, pool=True)
    return config


def _cleanup():
    shutdown_rank_pools()
    reset_persistent_read_caches()
    reset_resident_indexes()


def _canonical(table: dict[str, np.ndarray]) -> np.ndarray:
    """Alignments as a canonically sorted (n, 5) matrix (gather-order-free)."""
    matrix = np.stack([table["rid_a"], table["rid_b"], table["score"],
                       table["span_a"], table["span_b"]], axis=1)
    order = np.lexsort(tuple(matrix[:, col] for col in range(4, -1, -1)))
    return matrix[order]


def _cross_only(table: dict[str, np.ndarray], n_index: int) -> dict[str, np.ndarray]:
    """Restrict an alignment table to query-vs-index pairs (rid_a < n_index <= rid_b)."""
    mask = (table["rid_a"] < n_index) & (table["rid_b"] >= n_index)
    return {key: value[mask] for key, value in table.items()}


def _split(readset: ReadSet, n_index: int) -> tuple[ReadSet, ReadSet]:
    reads = list(readset)
    return ReadSet(reads[:n_index]), ReadSet(reads[n_index:])


def _assert_parity(config: PipelineConfig, readset: ReadSet) -> None:
    n_index = (3 * len(readset)) // 4
    index_reads, query_reads = _split(readset, n_index)
    topology = Topology.single_node(RANKS)
    try:
        oneshot = DibellaPipeline(config=config, topology=topology).run(readset)
        expected = _canonical(_cross_only(oneshot.alignment_table(), n_index))

        pipeline = DibellaPipeline(config=config, topology=topology)
        built = pipeline.build_index(index_reads)
        served = pipeline.run_query_batch(query_reads)
        got = _canonical(served.alignment_table())

        assert got.shape == expected.shape
        np.testing.assert_array_equal(got, expected)
        assert served.counters["query_reads"] == len(query_reads)
        # Recorded once per run, not once per rank.
        for result in (oneshot, built, served):
            assert result.counters["hash_table_shards"] == config.hash_table_shards
    finally:
        _cleanup()


@pytest.mark.parametrize("shards", [1, 4])
def test_served_batch_matches_one_shot_thread(micro_dataset, shards):
    _assert_parity(_config("thread", shards), micro_dataset.reads)


@pytest.mark.slow
@pytest.mark.parametrize("shards", [1, 4])
def test_served_batch_matches_one_shot_process(micro_dataset, shards):
    _assert_parity(_config("process", shards, pool=True), micro_dataset.reads)


def test_second_batch_reuses_resident_index(micro_dataset):
    """Consecutive batches: zero build counters, all ranks report a reuse hit."""
    index_reads, query_reads = _split(micro_dataset.reads,
                                      (3 * len(micro_dataset.reads)) // 4)
    queries = list(query_reads)
    config = _config("thread", 4)
    try:
        pipeline = DibellaPipeline(config=config,
                                   topology=Topology.single_node(RANKS))
        pipeline.build_index(index_reads)
        first = pipeline.run_query_batch(ReadSet(queries[: len(queries) // 2]))
        second = pipeline.run_query_batch(ReadSet(queries[len(queries) // 2:]))
        for result in (first, second):
            assert result.counters["index_reuse_hits"] == RANKS
            assert result.counters.get("index_build_runs", 0) == 0
            # No stage-1/2 build traffic: the bloom filter never runs in the
            # serve phase and the hash table is never refilled.
            assert result.counters.get("kmers_received_bloom", 0) == 0
            assert result.counters.get("kmers_received_hashtable", 0) == 0
    finally:
        _cleanup()


def test_query_batch_without_build_raises(micro_dataset):
    pipeline = DibellaPipeline(config=_config("thread", 1),
                               topology=Topology.single_node(2))
    with pytest.raises(RuntimeError, match="build_index"):
        pipeline.run_query_batch(micro_dataset.reads)


def test_name_collision_with_index_reads_is_rejected(micro_dataset):
    index_reads, query_reads = _split(micro_dataset.reads, 20)
    config = _config("thread", 1)
    try:
        pipeline = DibellaPipeline(config=config,
                                   topology=Topology.single_node(2))
        pipeline.build_index(index_reads)
        with pytest.raises(ValueError, match="name"):
            pipeline.run_query_batch(ReadSet([list(index_reads)[0]]))
    finally:
        _cleanup()


@pytest.mark.slow
def test_unpooled_process_backend_rebuilds_each_batch(micro_dataset):
    """Without the rank pool, fresh workers cannot reuse a resident index."""
    index_reads, query_reads = _split(micro_dataset.reads,
                                      (3 * len(micro_dataset.reads)) // 4)
    config = _config("process", 1, pool=False)
    try:
        pipeline = DibellaPipeline(config=config,
                                   topology=Topology.single_node(2))
        pipeline.build_index(index_reads)
        result = pipeline.run_query_batch(query_reads)
        assert result.counters.get("index_reuse_hits", 0) == 0
        assert result.counters["index_build_runs"] == 2
    finally:
        _cleanup()


def test_alignment_service_coalesces_submissions(micro_dataset):
    """The service renames reads per submission and coalesces whole submissions."""
    index_reads, query_reads = _split(micro_dataset.reads,
                                      (3 * len(micro_dataset.reads)) // 4)
    queries = list(query_reads)
    assert len(queries) >= 4
    config = replace(_config("thread", 4), serve_batch_reads=len(queries))
    service = AlignmentService(index_reads, config=config,
                               topology=Topology.single_node(RANKS))
    try:
        first = service.submit(queries[:2])
        second = service.submit(queries[2:])
        assert (first, second) == (0, 1)

        records = service.drain()
        assert len(records) == 1  # both submissions fit one batch bound
        record = records[0]
        assert record.n_submissions == 2
        assert record.n_reads == len(queries)
        assert record.query_names[0] == f"q0/{queries[0].name}"
        assert record.query_names[2] == f"q1/{queries[2].name}"
        assert record.result.counters["index_reuse_hits"] == RANKS

        # A second drain of one oversized submission becomes its own batch.
        service.submit(queries)
        service.submit(queries[:1])
        more = service.drain()
        assert [r.n_submissions for r in more] == [1, 1]

        stats = service.latency_stats()
        assert stats["batches"] == 3.0
        assert stats["p99_seconds"] >= stats["p50_seconds"] > 0.0
        assert stats["reads_per_second"] > 0.0
    finally:
        service.shutdown()
        reset_persistent_read_caches()
        reset_resident_indexes()


def test_service_rejects_empty_inputs(micro_dataset):
    with pytest.raises(ValueError):
        AlignmentService(ReadSet([]))
    service = AlignmentService(micro_dataset.reads, config=_config("thread", 1))
    with pytest.raises(ValueError):
        service.submit([])


def _with_n(read, name: str):
    """*read* renamed, with one ambiguous base in the middle."""
    middle = len(read.sequence) // 2
    return replace(read, name=name,
                   sequence=read.sequence[:middle] + "N" + read.sequence[middle + 1:])


@pytest.mark.slow
def test_non_acgt_submission_is_rejected_at_admission(micro_dataset):
    """A bad read fails once at submit: no rank dies, no pool respawn, and
    the next good batch is served from the resident index."""
    index_reads, query_reads = _split(micro_dataset.reads,
                                      (3 * len(micro_dataset.reads)) // 4)
    queries = list(query_reads)
    service = AlignmentService(index_reads, config=_config("process", 1, pool=True),
                               topology=Topology.single_node(RANKS))
    try:
        service.build()
        respawns = recovery_counters()["pool_respawns"]
        with pytest.raises(ValueError, match="'bad-read'"):
            service.submit([queries[0], _with_n(queries[1], "bad-read")])
        service.submit(queries[:2])
        records = service.drain()
        assert recovery_counters()["pool_respawns"] - respawns == 0
        # The rejected submission queued nothing.
        assert len(records) == 1 and records[0].n_reads == 2
        counters = records[0].result.counters
        assert counters["index_reuse_hits"] == RANKS
        assert counters.get("index_build_runs", 0) == 0
    finally:
        _cleanup()


def test_non_acgt_read_fails_before_launch(micro_dataset):
    """A bad read is a ValueError naming it, raised in the parent before any
    rank runs — not a RankFailedError out of stage 1."""
    reads = list(micro_dataset.reads)
    reads[3] = _with_n(reads[3], "bad-read")
    with pytest.raises(ValueError, match="'bad-read'") as exc:
        run_dibella(ReadSet(reads), config=_config("thread", 1),
                    n_nodes=1, ranks_per_node=2)
    assert not isinstance(exc.value, RankFailedError)
    index_reads, query_reads = _split(micro_dataset.reads, 20)
    pipeline = DibellaPipeline(config=_config("thread", 1),
                               topology=Topology.single_node(2))
    try:
        with pytest.raises(ValueError, match="'bad-read'"):
            pipeline.build_index(ReadSet(reads[:20]))
        pipeline.build_index(index_reads)
        bad_query = _with_n(list(query_reads)[0], "bad-read")
        with pytest.raises(ValueError, match="'bad-read'"):
            pipeline.run_query_batch(ReadSet([bad_query]))
    finally:
        _cleanup()
