"""Serve-phase pinning: bit-identical query batches over a resident index.

The acceptance bar for the build/serve split: a served query batch must
produce exactly the alignments a cold one-shot run over (index ∪ query)
produces for query-vs-index pairs — across both runtime backends and rank
counts — while touching zero index-build code paths after the first batch.
"""

from __future__ import annotations

import gc
import pickle
import weakref
from dataclasses import replace

import numpy as np
import pytest

import repro.core.pipeline as pipeline_module
import repro.core.stages as stages_module
from repro.core import AlignmentService, DibellaPipeline, PipelineConfig
from repro.core.driver import run_dibella
from repro.core.stages import reset_persistent_read_caches, reset_resident_indexes
from repro.mpisim.backend import recovery_counters, shutdown_rank_pools
from repro.mpisim.communicator import SimCommunicator
from repro.mpisim.errors import RankFailedError
from repro.mpisim.runtime import spmd_run
from repro.mpisim.topology import Topology
from repro.seq.kmer import KmerSpec
from repro.seq.records import ReadSet


RANKS = 4


def _config(backend: str, **overrides) -> PipelineConfig:
    return PipelineConfig(kmer=KmerSpec(k=15), coverage_hint=12.0,
                          error_rate_hint=0.08, backend=backend, **overrides)


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


def _assert_parity(config: PipelineConfig, readset: ReadSet, n_ranks: int) -> None:
    n_index = (3 * len(readset)) // 4
    index_reads, query_reads = _split(readset, n_index)
    topology = Topology.single_node(n_ranks)
    try:
        oneshot = DibellaPipeline(config=config, topology=topology).run(readset)
        expected = _canonical(_cross_only(oneshot.alignment_table(), n_index))

        pipeline = DibellaPipeline(config=config, topology=topology)
        pipeline.build_index(index_reads)
        served = pipeline.run_query_batch(query_reads)
        got = _canonical(served.alignment_table())

        assert got.shape == expected.shape
        np.testing.assert_array_equal(got, expected)
        assert served.counters["query_reads"] == len(query_reads)
        assert served.counters["index_reuse_hits"] == n_ranks
    finally:
        _cleanup()


@pytest.mark.parametrize("ranks", [1, RANKS])
def test_served_batch_matches_one_shot_thread(micro_dataset, ranks):
    _assert_parity(_config("thread"), micro_dataset.reads, ranks)


@pytest.mark.slow
@pytest.mark.parametrize("ranks", [1, RANKS])
def test_served_batch_matches_one_shot_process(micro_dataset, ranks):
    _assert_parity(_config("process"), micro_dataset.reads, ranks)


def test_second_batch_reuses_resident_index(micro_dataset):
    """Consecutive batches: zero build counters, all ranks report a reuse hit."""
    index_reads, query_reads = _split(micro_dataset.reads,
                                      (3 * len(micro_dataset.reads)) // 4)
    queries = list(query_reads)
    config = _config("thread")
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


def test_query_batch_collective_rounds(micro_dataset, monkeypatch):
    """A reused batch makes, on every rank, exactly 3 ``allreduce`` calls
    (residency, the route schedule's and the overlap schedule's step
    agreement) and 2 blocking ``alltoallv`` calls (the alignment fetch);
    every other exchange is one superstep of those two schedules."""
    index_reads, query_reads = _split(micro_dataset.reads,
                                      (3 * len(micro_dataset.reads)) // 4)
    calls: dict[int, list[tuple]] = {rank: [] for rank in range(RANKS)}
    allreduce = SimCommunicator.allreduce
    alltoallv = SimCommunicator.alltoallv
    alltoallv_start = SimCommunicator.alltoallv_start

    def spy_allreduce(self, value, op="sum"):
        result = allreduce(self, value, op)
        calls[self.rank].append(("allreduce", op, np.asarray(result).tolist()))
        return result

    def spy_alltoallv(self, send, label=None):
        calls[self.rank].append(("alltoallv", label))
        return alltoallv(self, send, label=label)

    def spy_alltoallv_start(self, send, label=None):
        # alltoallv delegates to alltoallv_start, so every exchange lands here.
        calls[self.rank].append(("alltoallv_start", label))
        return alltoallv_start(self, send, label=label)

    try:
        pipeline = DibellaPipeline(config=_config("thread"),
                                   topology=Topology.single_node(RANKS))
        pipeline.build_index(index_reads)
        monkeypatch.setattr(SimCommunicator, "allreduce", spy_allreduce)
        monkeypatch.setattr(SimCommunicator, "alltoallv", spy_alltoallv)
        monkeypatch.setattr(SimCommunicator, "alltoallv_start", spy_alltoallv_start)
        result = pipeline.run_query_batch(query_reads)
    finally:
        _cleanup()
    assert result.counters["index_reuse_hits"] == RANKS
    for rank, made in calls.items():
        reductions = [call for call in made if call[0] == "allreduce"]
        assert [call[1] for call in reductions] == ["min", "max", "max"], rank
        residency, route_steps, overlap_steps = (call[2] for call in reductions)
        assert residency == [1]
        assert route_steps >= 1 and overlap_steps >= 1
        assert [call[1] for call in made if call[0] == "alltoallv"] == [
            "alignment:request", "alignment:response"]
        starts = [call[1] for call in made if call[0] == "alltoallv_start"]
        assert len(starts) == 2 + route_steps + overlap_steps, rank
        assert starts == (["query_route"] * route_steps
                          + ["query_overlap"] * overlap_steps
                          + ["alignment:request", "alignment:response"])


# ---------------------------------------------------------------------------
# One owner: the read cache lives beside the resident index
# ---------------------------------------------------------------------------

def _reset_read_caches_on_rank(comm) -> int:
    """Rank program: fresh read caches beside this rank's resident index."""
    reset_persistent_read_caches()
    return comm.rank


def _same_batch_twice(config: PipelineConfig, readset: ReadSet,
                      between=lambda: None) -> tuple:
    """Build, then serve one query batch twice (calling *between* in between)."""
    index_reads, query_reads = _split(readset, (3 * len(readset)) // 4)
    pipeline = DibellaPipeline(config=config, topology=Topology.single_node(RANKS))
    pipeline.build_index(index_reads)
    first = pipeline.run_query_batch(query_reads)
    between()
    second = pipeline.run_query_batch(query_reads)
    np.testing.assert_array_equal(_canonical(second.alignment_table()),
                                  _canonical(first.alignment_table()))
    for result in (first, second):
        assert result.counters["index_reuse_hits"] == RANKS
    assert first.counters["read_cache_fetch_hits"] == 0
    return first, second


@pytest.mark.parametrize("backend", [
    "thread", pytest.param("process", marks=pytest.mark.slow),
])
def test_repeated_batch_hits_the_resident_read_cache(micro_dataset, backend):
    """The second batch finds the index reads the first fetched: only the
    evicted query reads are fetched again, on either backend."""
    try:
        first, second = _same_batch_twice(_config(backend),
                                          micro_dataset.reads)
        hits = second.counters["read_cache_fetch_hits"]
        assert hits > 0
        assert (second.counters["remote_reads_fetched"] + hits
                == first.counters["remote_reads_fetched"])
    finally:
        _cleanup()


@pytest.mark.parametrize("backend", [
    "thread", pytest.param("process", marks=pytest.mark.slow),
])
def test_reset_read_caches_keeps_the_resident_index(micro_dataset, backend):
    """reset_persistent_read_caches() empties the caches and keeps the index:
    the next batch is a reuse hit that fetches everything again."""
    def reset() -> None:
        if backend == "thread":
            reset_persistent_read_caches()
        else:
            spmd_run(RANKS, _reset_read_caches_on_rank, backend="process")

    try:
        first, second = _same_batch_twice(_config(backend),
                                          micro_dataset.reads, reset)
        assert second.counters["read_cache_fetch_hits"] == 0
        assert (second.counters["remote_reads_fetched"]
                == first.counters["remote_reads_fetched"])
    finally:
        _cleanup()


def test_read_cache_mb_accepts_only_zero():
    """Callers that spell out every knob may still pass the name, as 0.0."""
    assert PipelineConfig(read_cache_mb=0.0) == PipelineConfig()
    with pytest.raises(ValueError, match="read_cache_mb"):
        PipelineConfig(read_cache_mb=1.5)


def test_query_batch_without_build_raises(micro_dataset):
    pipeline = DibellaPipeline(config=_config("thread"),
                               topology=Topology.single_node(2))
    with pytest.raises(RuntimeError, match="build_index"):
        pipeline.run_query_batch(micro_dataset.reads)


def test_name_collision_with_index_reads_is_rejected(micro_dataset):
    index_reads, query_reads = _split(micro_dataset.reads, 20)
    config = _config("thread")
    try:
        pipeline = DibellaPipeline(config=config,
                                   topology=Topology.single_node(2))
        pipeline.build_index(index_reads)
        with pytest.raises(ValueError, match="name"):
            pipeline.run_query_batch(ReadSet([list(index_reads)[0]]))
    finally:
        _cleanup()


@pytest.mark.slow
def test_process_backend_batch_reuses_the_resident_index(micro_dataset, monkeypatch):
    """Process ranks are the rank pool: the batch after a build finds the
    resident index and its reads on every rank, in one launch, with no
    index read in its job."""
    index_reads, query_reads = _split(micro_dataset.reads,
                                      (3 * len(micro_dataset.reads)) // 4)
    launches = []
    real_spmd_run = pipeline_module.spmd_run

    def counting_spmd_run(*args, **kwargs):
        launches.append(args[1])
        return real_spmd_run(*args, **kwargs)

    monkeypatch.setattr(pipeline_module, "spmd_run", counting_spmd_run)
    try:
        pipeline = DibellaPipeline(config=_config("process"),
                                   topology=Topology.single_node(RANKS))
        pipeline.build_index(index_reads)
        result = pipeline.run_query_batch(query_reads)
        assert result.counters["index_reuse_hits"] == RANKS
        assert result.counters.get("index_build_runs", 0) == 0
        assert "index_reads_shipped" not in result.counters
        assert len(launches) == 2  # the build and the batch
    finally:
        _cleanup()


def test_alignment_service_coalesces_submissions(micro_dataset):
    """The service renames reads per submission and coalesces whole submissions."""
    index_reads, query_reads = _split(micro_dataset.reads,
                                      (3 * len(micro_dataset.reads)) // 4)
    queries = list(query_reads)
    assert len(queries) >= 4
    config = replace(_config("thread"), serve_batch_reads=len(queries))
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


def test_thread_service_shutdown_releases_the_resident_index(micro_dataset):
    """Thread-backend ranks keep their entries in this process: shutdown
    drops them, as it drops a process pool's workers."""
    index_reads, _query_reads = _split(micro_dataset.reads, 20)
    service = AlignmentService(index_reads, config=_config("thread"),
                               topology=Topology.single_node(2))
    try:
        service.build()
        assert stages_module._RESIDENT_INDEXES
        service.shutdown()
        assert not stages_module._RESIDENT_INDEXES
    finally:
        _cleanup()


def _resident_entries_on_rank(comm) -> int:
    """Rank program: how many resident entries this rank's process holds."""
    return len(stages_module._RESIDENT_INDEXES)


@pytest.mark.slow
def test_forked_pool_workers_start_without_resident_entries(micro_dataset):
    """Pool workers forked after thread ranks stored an index in this
    process start empty, so a process retry reports the index missing."""
    index_reads, _query_reads = _split(micro_dataset.reads, 20)
    try:
        shutdown_rank_pools()
        DibellaPipeline(config=_config("thread"),
                        topology=Topology.single_node(2)).build_index(index_reads)
        assert stages_module._RESIDENT_INDEXES
        assert spmd_run(2, _resident_entries_on_rank, backend="process") == [0, 0]
    finally:
        _cleanup()


def test_service_rejects_empty_inputs(micro_dataset):
    with pytest.raises(ValueError):
        AlignmentService(ReadSet([]))
    service = AlignmentService(micro_dataset.reads, config=_config("thread"))
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
    service = AlignmentService(index_reads, config=_config("process"),
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


def test_repeated_name_submission_is_rejected_at_admission(micro_dataset):
    """A submission naming one read twice fails at submit, and the good
    submission queued before it is still served."""
    index_reads, query_reads = _split(micro_dataset.reads,
                                      (3 * len(micro_dataset.reads)) // 4)
    queries = list(query_reads)
    service = AlignmentService(index_reads, config=_config("thread"),
                               topology=Topology.single_node(2))
    try:
        assert service.submit(queries[:2]) == 0
        with pytest.raises(ValueError, match="unique"):
            service.submit([queries[2], queries[2]])
        records = service.drain()
        assert [record.n_reads for record in records] == [2]
        assert records[0].query_names == [f"q0/{read.name}" for read in queries[:2]]
        assert records[0].result.counters["index_reuse_hits"] == 2
    finally:
        service.shutdown()
        _cleanup()


def test_query_batch_keeps_no_union_arena_alive(micro_dataset, monkeypatch):
    """The resident read cache views the index reads' arena, never a
    batch's union copy: once a batch returns, every union arena is gone."""
    arenas = []
    concat = ReadSet.concat.__func__

    def recording(cls, sets):
        union = concat(cls, sets)
        arenas.append(weakref.ref(union._arena))
        return union

    monkeypatch.setattr(ReadSet, "concat", classmethod(recording))
    index_reads, query_reads = _split(micro_dataset.reads,
                                      (3 * len(micro_dataset.reads)) // 4)
    pipeline = DibellaPipeline(config=_config("thread"), topology=Topology.single_node(2))
    try:
        pipeline.build_index(index_reads)
        for _ in range(2):
            result = pipeline.run_query_batch(query_reads)
            assert result.counters["remote_reads_fetched"] > 0
        gc.collect()
        assert len(arenas) == 2 * 3  # the parent's and each rank's, per batch
        assert all(arena() is None for arena in arenas)
    finally:
        _cleanup()


def test_non_acgt_read_fails_before_launch(micro_dataset):
    """A bad read is a ValueError naming it, raised in the parent before any
    rank runs — not a RankFailedError out of stage 1."""
    reads = list(micro_dataset.reads)
    reads[3] = _with_n(reads[3], "bad-read")
    with pytest.raises(ValueError, match="'bad-read'") as exc:
        run_dibella(ReadSet(reads), config=_config("thread"),
                    n_nodes=1, ranks_per_node=2)
    assert not isinstance(exc.value, RankFailedError)
    index_reads, query_reads = _split(micro_dataset.reads, 20)
    pipeline = DibellaPipeline(config=_config("thread"),
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


# ---------------------------------------------------------------------------
# Job shape: a batch ships its queries; the ranks keep the index reads
# ---------------------------------------------------------------------------

def _two_batch_session(config: PipelineConfig, readset: ReadSet,
                       between=lambda: None) -> tuple:
    """Build, serve two batches (calling *between* in between), return both."""
    index_reads, query_reads = _split(readset, (3 * len(readset)) // 4)
    queries = list(query_reads)
    half = len(queries) // 2
    pipeline = DibellaPipeline(config=config, topology=Topology.single_node(RANKS))
    pipeline.build_index(index_reads)
    first = pipeline.run_query_batch(ReadSet(queries[:half]))
    between()
    second = pipeline.run_query_batch(ReadSet(queries[half:]))
    return len(index_reads), first, second


def _assert_resent(config: PipelineConfig, readset: ReadSet, lose_state) -> None:
    """State lost between two batches without the pipeline knowing: the
    second batch reports the index missing, the build program rebuilds it
    on every rank (its job ships the index reads), and the relaunched batch
    reuses what the rebuild stored and matches an uninterrupted session bit
    for bit, with no rank failure."""
    try:
        _n_index, clean_first, clean_second = _two_batch_session(config, readset)
        _cleanup()
        failures = recovery_counters()["rank_failures_detected"]
        n_index, first, second = _two_batch_session(config, readset, lose_state)
        assert recovery_counters()["rank_failures_detected"] == failures
        for clean, got in ((clean_first, first), (clean_second, second)):
            np.testing.assert_array_equal(_canonical(got.alignment_table()),
                                          _canonical(clean.alignment_table()))
        assert "index_reads_shipped" not in first.counters
        assert first.counters["index_reuse_hits"] == RANKS
        assert second.counters["index_build_runs"] == RANKS
        assert second.counters["index_reuse_hits"] == RANKS
        assert second.counters["index_reads_shipped"] == n_index
        assert [stage.name for stage in second.stages] == [
            "hashtable", "query_route", "overlap", "alignment"]
        assert "rank_failures_detected" not in second.counters
    finally:
        _cleanup()


def test_lost_thread_state_is_resent(micro_dataset):
    _assert_resent(_config("thread"), micro_dataset.reads, reset_resident_indexes)


@pytest.mark.slow
def test_lost_pool_is_resent(micro_dataset):
    _assert_resent(_config("process"), micro_dataset.reads,
                   shutdown_rank_pools)


def test_thread_retry_reuses_the_resident_index(micro_dataset):
    """A thread rank's registry entry survives a failed batch intact: the
    service's retry reuses it on every rank, rebuilds nothing, and returns
    the science of a clean run."""
    index_reads, query_reads = _split(micro_dataset.reads,
                                      (3 * len(micro_dataset.reads)) // 4)
    topology = Topology.single_node(RANKS)
    sessions = {}
    try:
        for plan in (None, "exit:rank=1:stage=alignment:run=1"):
            service = AlignmentService(
                index_reads, topology=topology,
                config=_config("thread", fault_plan=plan, serve_max_retries=1))
            service.submit(query_reads)
            (sessions[plan],) = service.drain()
            service.shutdown()
    finally:
        _cleanup()
    clean, retried = sessions[None].result, sessions[plan].result
    assert retried.counters["query_batch_retries"] == 1
    assert retried.counters["index_reuse_hits"] == RANKS
    assert retried.counters.get("index_build_runs", 0) == 0
    assert "index_reads_shipped" not in retried.counters
    np.testing.assert_array_equal(_canonical(retried.alignment_table()),
                                  _canonical(clean.alignment_table()))


@pytest.mark.slow
def test_pooled_batch_job_ships_only_queries(micro_dataset, monkeypatch):
    """A pooled batch's job holds no index read, and its pickled size does
    not change when the index read set doubles."""
    reads = list(micro_dataset.reads)
    queries = ReadSet(reads[-4:])
    launches: list[tuple] = []
    real_spmd_run = pipeline_module.spmd_run

    def capturing_spmd_run(n_ranks, fn, *args, **kwargs):
        launches.append(args)
        return real_spmd_run(n_ranks, fn, *args, **kwargs)

    monkeypatch.setattr(pipeline_module, "spmd_run", capturing_spmd_run)
    sizes = []
    try:
        for n_index in (15, 30):
            index_reads = ReadSet(reads[:n_index])
            pipeline = DibellaPipeline(config=_config("process"),
                                       topology=Topology.single_node(RANKS))
            pipeline.build_index(index_reads)
            result = pipeline.run_query_batch(queries)
            assert result.counters["index_reuse_hits"] == RANKS
            assert "index_reads_shipped" not in result.counters
            args = launches[-1]
            shipped = [read.name for arg in args if isinstance(arg, ReadSet)
                       for read in arg]
            assert shipped == queries.names()
            job = pickle.dumps(args)
            assert not any(read.sequence.encode("ascii") in job
                           for read in index_reads)
            sizes.append(len(job))
    finally:
        _cleanup()
    assert sizes[0] == sizes[1]
