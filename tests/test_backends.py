"""Runtime-backend tests: process-backend collectives and thread/process parity.

The fast tier exercises the shared-memory process backend at the collective
level (same programs the thread-backend suite runs, plus error propagation
through process boundaries).  The slow tier runs the full pipeline under
both backends and asserts the *scientific output is identical* — the
distributed runtime is an implementation detail that must never change the
answer.
"""

import os
import time
from dataclasses import replace

import numpy as np
import pytest

from repro.mpisim.backend import (
    ProcessBackend,
    ThreadBackend,
    active_rank_pools,
    resolve_backend,
    shutdown_rank_pools,
)
from repro.mpisim.errors import (
    CollectiveMismatchError,
    CollectiveTimeoutError,
    RankFailedError,
)
from repro.mpisim.runtime import spmd_run
from repro.mpisim.tracing import CommTrace


def _shm_segments() -> list[str]:
    """Names of live POSIX shared-memory segments (empty off-POSIX)."""
    try:
        return [f for f in os.listdir("/dev/shm") if f.startswith("psm_")]
    except FileNotFoundError:  # pragma: no cover - non-POSIX-shm platform
        return []


class TestResolveBackend:
    def test_names(self):
        assert isinstance(resolve_backend("thread"), ThreadBackend)
        assert isinstance(resolve_backend("process"), ProcessBackend)
        assert isinstance(resolve_backend(None), ThreadBackend)

    def test_instance_passthrough(self):
        backend = ThreadBackend()
        assert resolve_backend(backend) is backend

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            resolve_backend("mpi")


def _collective_program(comm):
    """One program touching every collective with typed payloads."""
    total = comm.allreduce(comm.rank + 1, op="sum")
    peak = comm.allreduce(np.full(4, comm.rank, dtype=np.uint8), op="max")
    send = [np.full(comm.rank + 1, d, dtype=np.int64) for d in range(comm.size)]
    received = comm.alltoallv(send)
    assert all(received[s].size == s + 1 for s in range(comm.size))
    assert all((received[s] == comm.rank).all() for s in range(comm.size))
    labels = comm.alltoall([f"{comm.rank}->{d}" for d in range(comm.size)])
    broadcast = comm.bcast("hello" if comm.rank == 1 else None, root=1)
    gathered = comm.gather(comm.rank * 2, root=0)
    everyone = comm.allgather(comm.rank)
    comm.barrier()
    return (total, int(peak.max()), labels[0], broadcast, gathered, everyone)


class TestProcessCollectives:
    def test_full_collective_program(self):
        results = spmd_run(3, _collective_program, backend="process")
        for rank, (total, peak, label, broadcast, gathered, everyone) in enumerate(results):
            assert total == 6
            assert peak == 2
            assert label == f"0->{rank}"
            assert broadcast == "hello"
            assert everyone == [0, 1, 2]
            assert gathered == ([0, 2, 4] if rank == 0 else None)

    def test_matches_thread_backend(self):
        thread = spmd_run(3, _collective_program, backend="thread")
        process = spmd_run(3, _collective_program, backend="process")
        assert thread == process

    def test_single_rank(self):
        assert spmd_run(1, lambda comm: comm.allreduce(41) + 1, backend="process") == [42]

    def test_typed_arrays_roundtrip_exactly(self):
        def program(comm):
            matrix = np.arange(12, dtype=np.uint64).reshape(6, 2) + np.uint64(comm.rank)
            return comm.allgather(matrix)

        results = spmd_run(2, program, backend="process")
        for gathered in results:
            assert gathered[0].dtype == np.uint64
            assert gathered[0].shape == (6, 2)
            np.testing.assert_array_equal(gathered[1] - gathered[0], np.uint64(1))

    def test_results_in_rank_order(self):
        assert spmd_run(4, lambda comm: comm.rank ** 2, backend="process") == [0, 1, 4, 9]


class TestProcessErrorHandling:
    def test_rank_exception_propagates(self):
        def program(comm):
            if comm.rank == 1:
                raise RuntimeError("boom")
            comm.barrier()  # would deadlock without abort handling

        with pytest.raises(RankFailedError, match="rank 1") as err:
            spmd_run(3, program, backend="process")
        assert isinstance(err.value.__cause__, RuntimeError)

    def test_collective_mismatch_detected(self):
        def program(comm):
            if comm.rank == 0:
                comm.barrier()
            else:
                comm.allreduce(1)

        with pytest.raises(RankFailedError) as err:
            spmd_run(2, program, backend="process")
        assert isinstance(err.value.__cause__, CollectiveMismatchError)

    def test_untyped_payload_rejected(self):
        class Opaque:
            pass

        def program(comm):
            return comm.allgather(Opaque())

        with pytest.raises(RankFailedError) as err:
            spmd_run(2, program, backend="process")
        assert "typed collectives protocol" in str(err.value.__cause__)

    def test_barrier_timeout_raises_not_silent_none(self, monkeypatch):
        # A barrier that breaks with no originating rank failure (a stalled
        # rank exceeding the collective timeout) must surface as an error,
        # never as a successful [None, ...] result list.
        import time

        from repro.mpisim import communicator

        monkeypatch.setattr(communicator, "_BARRIER_TIMEOUT", 0.5)
        # Under DIBELLA_SANITIZE=1 runs the sanitizer watchdog governs the
        # wait instead; tighten it too so the stall still errors promptly.
        monkeypatch.setenv("DIBELLA_SANITIZE_TIMEOUT", "0.5")

        def program(comm):
            if comm.rank == 0:
                time.sleep(2.0)
            comm.barrier()
            return comm.rank

        with pytest.raises(RankFailedError, match="broken barrier|watchdog"):
            spmd_run(2, program, backend="process")

    def test_no_shared_memory_leaked(self):
        def program(comm):
            comm.alltoallv([np.arange(100, dtype=np.int64)] * comm.size)
            return comm.allreduce(1)

        spmd_run(3, program, backend="process")
        assert _shm_segments() == []


def _split_phase_program(comm):
    """Pipelined supersteps: start(i+1) is issued before finish(i)."""
    n_steps = 4
    sends = [
        [np.arange(step + d + comm.rank * 7, dtype=np.int64)
         for d in range(comm.size)]
        for step in range(n_steps)
    ]
    received = []
    handle = comm.alltoallv_start(sends[0])
    for step in range(n_steps):
        next_handle = (comm.alltoallv_start(sends[step + 1])
                       if step + 1 < n_steps else None)
        received.append([a.tolist() for a in comm.alltoallv_finish(handle)])
        handle = next_handle
    return received


def _sync_phase_program(comm):
    """The same exchanges as :func:`_split_phase_program`, bulk-synchronous."""
    n_steps = 4
    sends = [
        [np.arange(step + d + comm.rank * 7, dtype=np.int64)
         for d in range(comm.size)]
        for step in range(n_steps)
    ]
    return [[a.tolist() for a in comm.alltoallv(s)] for s in sends]


class TestSplitPhaseExchange:
    """The double-buffered alltoallv_start/alltoallv_finish protocol."""

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_matches_synchronous_alltoallv(self, backend):
        split = spmd_run(3, _split_phase_program, backend=backend)
        sync = spmd_run(3, _sync_phase_program, backend=backend)
        assert split == sync

    def test_thread_process_identical(self):
        assert (spmd_run(3, _split_phase_program, backend="thread")
                == spmd_run(3, _split_phase_program, backend="process"))

    def test_single_rank(self):
        results = spmd_run(1, _split_phase_program, backend="process")
        assert results == spmd_run(1, _sync_phase_program, backend="thread")

    def test_no_shared_memory_leaked(self):
        spmd_run(3, _split_phase_program, backend="process")
        assert _shm_segments() == []

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_trace_identical_to_synchronous(self, backend):
        split_trace, sync_trace = CommTrace(3), CommTrace(3)
        spmd_run(3, _split_phase_program, trace=split_trace, backend=backend)
        spmd_run(3, _sync_phase_program, trace=sync_trace, backend=backend)
        assert split_trace.summary() == sync_trace.summary()
        assert (split_trace.snapshot()["alltoallv_calls"]
                == sync_trace.snapshot()["alltoallv_calls"])

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_peer_failure_unblocks_finish(self, backend):
        def program(comm):
            handle = comm.alltoallv_start([np.zeros(1, dtype=np.int64)] * comm.size)
            if comm.rank == 1:
                raise RuntimeError("boom mid-exchange")
            comm.alltoallv_finish(handle)
            # Rank 1 never publishes its remaining supersteps, so without the
            # abort propagating through the handshake this would deadlock.
            h2 = comm.alltoallv_start([np.zeros(1, dtype=np.int64)] * comm.size)
            h3 = comm.alltoallv_start([np.zeros(1, dtype=np.int64)] * comm.size)
            comm.alltoallv_finish(h2)
            comm.alltoallv_finish(h3)

        with pytest.raises(RankFailedError, match="rank 1"):
            spmd_run(3, program, backend=backend)
        if backend == "process":
            assert _shm_segments() == []


def _interleaved_program(comm):
    """Blocking exchange and small collectives inside a split exchange's flight.

    Split exchange A holds a ring slot while blocking exchange B takes and
    releases the other, and an allreduce, an allgather and a bcast ride the
    blocking slot — under the sanitizer each op adds a congruence round
    there too.  Every rank sends ``rank * 100 + dst`` in ``dst + 1`` int64
    elements (A) and ``rank + 1`` (B).
    """
    comm.set_phase("interleaved")
    send_a = [np.full(d + 1, comm.rank * 100 + d, dtype=np.int64)
              for d in range(comm.size)]
    send_b = [np.full(comm.rank + 1, comm.rank, dtype=np.int64)
              for _ in range(comm.size)]
    handle = comm.alltoallv_start(send_a, label="a")
    received_b = comm.alltoallv(send_b, label="b")
    comm.set_phase("reduce")
    total = comm.allreduce(comm.rank + 1)
    ranks = comm.allgather(comm.rank)
    root_tag = comm.bcast(f"from {comm.rank}", root=1)
    received_a = comm.alltoallv_finish(handle)
    return ([a.tolist() for a in received_a], [b.tolist() for b in received_b],
            total, ranks, root_tag)


def _interleaved_expected(size: int) -> list:
    return [([[src * 100 + dst] * (dst + 1) for src in range(size)],
             [[src] * (src + 1) for src in range(size)],
             size * (size + 1) // 2, list(range(size)), "from 1")
            for dst in range(size)]


class TestInterleavedExchanges:
    """Blocking and split exchanges share one ring; small collectives ride
    the blocking slot beside it."""

    @pytest.mark.parametrize(
        ("backend", "sanitize"),
        [("thread", False), ("process", False),
         ("thread", True), ("process", True)],
        ids=["thread", "process", "thread-sanitize", "process-sanitize"])
    def test_blocking_exchange_inside_split_flight(self, backend, sanitize):
        trace = CommTrace(3)
        assert (spmd_run(3, _interleaved_program, trace=trace, backend=backend,
                         sanitize=sanitize)
                == _interleaved_expected(3))
        # 8 bytes per element: A sends dst + 1 elements to each dst, B sends
        # rank + 1 elements to every dst.
        a_bytes = 8 * 3 * sum(d + 1 for d in range(3))
        b_bytes = 8 * 3 * sum(r + 1 for r in range(3))
        traffic = trace.phase_traffic("interleaved")
        assert traffic.total_bytes == a_bytes + b_bytes
        assert traffic.collective_calls == 2
        assert trace.snapshot()["alltoallv_calls"] == 2
        assert trace.phase_traffic("reduce").collective_calls == 0

    def test_pooled_rerun(self):
        shutdown_rank_pools()
        try:
            for _ in range(2):
                assert (spmd_run(3, _interleaved_program, backend="process",
                                 pool=True)
                        == _interleaved_expected(3))
        finally:
            shutdown_rank_pools()
        assert _shm_segments() == []


def _raising_reducer(a, b):
    raise ValueError("reducer refuses")


def _raising_allreduce_program(comm):
    return comm.allreduce(comm.rank, op=_raising_reducer)


def _small_collectives_program(comm):
    comm.barrier()
    total = comm.allreduce(np.arange(4, dtype=np.int64) + comm.rank)
    root_sum = comm.reduce(comm.rank, root=2)
    gathered = comm.gather(comm.rank, root=0)
    everyone = comm.allgather(f"r{comm.rank}")
    broadcast = comm.bcast(np.full(3, 7, dtype=np.uint8) if comm.rank == 1
                           else None, root=1)
    return (total.tolist(), root_sum, gathered, everyone, broadcast.tolist())


class TestSmallCollectives:
    """The small collectives combine locally after one blocking-slot round."""

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_reducer_error_fails_the_run(self, backend):
        with pytest.raises(RankFailedError) as err:
            spmd_run(3, _raising_allreduce_program, backend=backend)
        assert isinstance(err.value.__cause__, ValueError)
        assert "reducer refuses" in str(err.value.__cause__)

    @pytest.mark.parametrize("pool", [False, True], ids=["unpooled", "pooled"])
    def test_no_shared_memory_leaked(self, pool):
        shutdown_rank_pools()
        try:
            results = spmd_run(3, _small_collectives_program,
                               backend="process", pool=pool)
        finally:
            shutdown_rank_pools()
        assert results == [
            ([3, 6, 9, 12], 3 if rank == 2 else None,
             [0, 1, 2] if rank == 0 else None, ["r0", "r1", "r2"], [7, 7, 7])
            for rank in range(3)
        ]
        assert _shm_segments() == []


def _late_publisher_program(comm):
    """Rank 1 publishes long after rank 0's exchange wait has timed out."""
    if comm.rank == 1:
        time.sleep(1.5)
    handle = comm.alltoallv_start([comm.rank] * comm.size)
    return comm.alltoallv_finish(handle)


class TestCollectiveTimeout:
    """A timed-out exchange wait is a typed failure of the rank that waited."""

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_timed_out_exchange_raises_typed_error(self, backend, monkeypatch):
        from repro.mpisim import communicator

        monkeypatch.setattr(communicator, "_BARRIER_TIMEOUT", 0.5)
        # Under DIBELLA_SANITIZE=1 the watchdog governs the wait instead.
        monkeypatch.setenv("DIBELLA_SANITIZE_TIMEOUT", "0.5")
        with pytest.raises(RankFailedError, match="rank 0") as err:
            spmd_run(2, _late_publisher_program, backend=backend)
        assert isinstance(err.value.__cause__, CollectiveTimeoutError)
        if backend == "process":
            assert _shm_segments() == []


def _pool_pid_program(comm):
    total = comm.allreduce(comm.rank + 1)
    received = comm.alltoallv([np.full(3, comm.rank, dtype=np.int64)] * comm.size)
    return (os.getpid(), total, [int(a[0]) for a in received])


def _pool_failing_program(comm):
    if comm.rank == 1:
        raise RuntimeError("pooled boom")
    comm.barrier()


class TestRankPool:
    """The persistent process-rank pool: reuse, eviction, clean shutdown."""

    @pytest.fixture(autouse=True)
    def _clean_pools(self):
        shutdown_rank_pools()
        yield
        shutdown_rank_pools()

    def test_consecutive_runs_reuse_rank_processes(self):
        first = spmd_run(3, _pool_pid_program, backend="process", pool=True)
        second = spmd_run(3, _pool_pid_program, backend="process", pool=True)
        assert [r[0] for r in first] == [r[0] for r in second]  # same PIDs
        assert [r[1:] for r in first] == [r[1:] for r in second]
        unpooled = spmd_run(3, _pool_pid_program, backend="process")
        assert [r[1:] for r in first] == [r[1:] for r in unpooled]
        assert active_rank_pools() == 1

    def test_split_phase_works_across_pooled_runs(self):
        # The engine's exchange sequence state must be re-armed between runs.
        first = spmd_run(3, _split_phase_program, backend="process", pool=True)
        second = spmd_run(3, _split_phase_program, backend="process", pool=True)
        assert first == second

    def test_failure_evicts_pool_and_next_run_recovers(self):
        baseline = spmd_run(3, _pool_pid_program, backend="process", pool=True)
        with pytest.raises(RankFailedError, match="pooled boom"):
            spmd_run(3, _pool_failing_program, backend="process", pool=True)
        assert active_rank_pools() == 0
        recovered = spmd_run(3, _pool_pid_program, backend="process", pool=True)
        assert [r[1:] for r in recovered] == [r[1:] for r in baseline]

    def test_shutdown_leaves_no_orphans_or_segments(self):
        import multiprocessing as mp

        spmd_run(3, _pool_pid_program, backend="process", pool=True)
        assert any(p.name.startswith("spmd-pool-rank-") for p in mp.active_children())
        shutdown_rank_pools()
        assert active_rank_pools() == 0
        deadline = time.monotonic() + 10.0
        while (any(p.name.startswith("spmd-pool-rank-") for p in mp.active_children())
               and time.monotonic() < deadline):
            time.sleep(0.05)
        assert not any(p.name.startswith("spmd-pool-rank-")
                       for p in mp.active_children())
        assert _shm_segments() == []

    def test_thread_backend_ignores_pool_flag(self):
        assert spmd_run(2, _pool_pid_program, backend="thread", pool=True) \
            == spmd_run(2, _pool_pid_program, backend="thread")
        assert active_rank_pools() == 0

    def test_unpicklable_job_raises_instead_of_hanging(self):
        # Queue.put pickles in a feeder thread whose failure is silent; the
        # pool must surface the pickling error in the caller (and stay
        # usable) instead of stranding the workers.
        with pytest.raises(TypeError, match="not picklable"):
            spmd_run(2, lambda comm: comm.allreduce(1),
                     backend="process", pool=True)
        assert spmd_run(2, _pool_pid_program, backend="process", pool=True)[0][1] == 3

    def test_dead_parked_worker_detected_not_hung(self):
        from repro.mpisim.backend import _POOLS

        baseline = spmd_run(3, _pool_pid_program, backend="process", pool=True)
        pool = next(iter(_POOLS.values()))
        victim = pool.workers[1]
        victim.terminate()  # dies while parked
        victim.join(timeout=10.0)
        with pytest.raises(RankFailedError, match="died while parked"):
            spmd_run(3, _pool_pid_program, backend="process", pool=True)
        assert active_rank_pools() == 0
        recovered = spmd_run(3, _pool_pid_program, backend="process", pool=True)
        assert [r[1:] for r in recovered] == [r[1:] for r in baseline]


class TestProcessTracing:
    def test_trace_merged_identically_to_thread(self):
        def program(comm):
            comm.set_phase("phase_a")
            comm.alltoallv([np.zeros(comm.rank + 1, dtype=np.int64)] * comm.size)
            comm.set_phase("phase_b")
            comm.alltoallv([np.ones(2, dtype=np.int64)] * comm.size)

        thread_trace, process_trace = CommTrace(3), CommTrace(3)
        spmd_run(3, program, trace=thread_trace, backend="thread")
        spmd_run(3, program, trace=process_trace, backend="process")
        assert thread_trace.summary() == process_trace.summary()
        for phase in thread_trace.phases():
            np.testing.assert_array_equal(
                thread_trace.phase_traffic(phase).volume,
                process_trace.phase_traffic(phase).volume,
            )

    def test_exchange_counts_alltoallv_calls(self):
        # The unified _exchange accounting: alltoall and alltoallv both count
        # (chunked supersteps rely on this).
        def program(comm):
            comm.set_phase("p")
            comm.alltoall(list(range(comm.size)))
            comm.alltoallv([np.zeros(1, dtype=np.int64)] * comm.size)

        trace = CommTrace(2)
        spmd_run(2, program, trace=trace, backend="thread")
        assert trace.phase_traffic("p").collective_calls == 2
        assert trace.snapshot()["alltoallv_calls"] == 2


@pytest.mark.slow
class TestPipelineParity:
    """End-to-end: both backends must produce bit-identical science."""

    @pytest.fixture(scope="class")
    def runs(self, micro_dataset, micro_config):
        from repro.core.driver import run_dibella

        thread = run_dibella(micro_dataset.reads,
                             config=replace(micro_config, backend="thread"),
                             n_nodes=1, ranks_per_node=3)
        process = run_dibella(micro_dataset.reads,
                              config=replace(micro_config, backend="process"),
                              n_nodes=1, ranks_per_node=3)
        return thread, process

    def test_overlap_pairs_identical(self, runs):
        thread, process = runs
        assert thread.overlap_pairs() == process.overlap_pairs()

    def test_per_rank_overlap_tables_identical(self, runs):
        thread, process = runs
        for t_table, p_table in zip(thread.overlap_tables(), process.overlap_tables()):
            np.testing.assert_array_equal(t_table.rid_a, p_table.rid_a)
            np.testing.assert_array_equal(t_table.rid_b, p_table.rid_b)
            np.testing.assert_array_equal(t_table.seed_offsets, p_table.seed_offsets)
            np.testing.assert_array_equal(t_table.seed_pos_a, p_table.seed_pos_a)
            np.testing.assert_array_equal(t_table.seed_pos_b, p_table.seed_pos_b)
            np.testing.assert_array_equal(t_table.seed_same_strand,
                                          p_table.seed_same_strand)

    def test_alignment_tables_identical(self, runs):
        thread, process = runs
        t_table, p_table = thread.alignment_table(), process.alignment_table()
        for column in t_table:
            np.testing.assert_array_equal(t_table[column], p_table[column])

    def test_all_counters_identical(self, runs):
        thread, process = runs
        assert thread.counters == process.counters

    def test_trace_volumes_identical(self, runs):
        thread, process = runs
        assert thread.trace.total_bytes() == process.trace.total_bytes()
        for phase in thread.trace.phases():
            np.testing.assert_array_equal(
                thread.trace.phase_traffic(phase).volume,
                process.trace.phase_traffic(phase).volume,
            )

    def test_chunked_exchange_invariant_under_chunk_size(self, micro_dataset,
                                                         micro_config):
        from dataclasses import replace

        from repro.core.driver import run_dibella

        monolithic = run_dibella(micro_dataset.reads,
                                 config=replace(micro_config, exchange_chunk_mb=None),
                                 ranks_per_node=2)
        streamed = run_dibella(micro_dataset.reads,
                               config=replace(micro_config, exchange_chunk_mb=0.001),
                               ranks_per_node=2)
        assert streamed.overlap_pairs() == monolithic.overlap_pairs()
        assert streamed.counters["pairs_generated"] == monolithic.counters["pairs_generated"]
        assert (streamed.counters["overlap_exchange_chunks"]
                > monolithic.counters["overlap_exchange_chunks"])
        # Same total exchange volume, more collective calls (per-chunk trace).
        assert (streamed.trace.phase_traffic("overlap_exchange").total_bytes
                == monolithic.trace.phase_traffic("overlap_exchange").total_bytes)
        assert (streamed.trace.phase_traffic("overlap_exchange").collective_calls
                > monolithic.trace.phase_traffic("overlap_exchange").collective_calls)

    def test_read_cache_counters_present(self, runs):
        thread, _process = runs
        assert thread.counters["read_cache_misses"] > 0
        assert thread.counters["read_cache_hits"] > 0


@pytest.mark.slow
class TestPipelineParityMatrix:
    """{thread, process} x {pool on/off} x {sanitizer off/on} must all
    produce bit-identical scientific output."""

    @pytest.fixture(autouse=True)
    def _clean_pool_state(self):
        from repro.core.stages import reset_persistent_read_caches

        shutdown_rank_pools()
        reset_persistent_read_caches()
        yield
        shutdown_rank_pools()
        reset_persistent_read_caches()

    @pytest.fixture(scope="class")
    def reference(self, micro_dataset, micro_config):
        from dataclasses import replace

        from repro.core.driver import run_dibella

        config = replace(micro_config, backend="thread", pool=False,
                         sanitize=False)
        return run_dibella(micro_dataset.reads, config=config,
                           n_nodes=1, ranks_per_node=3)

    @pytest.mark.parametrize("backend", ["thread", "process"])
    @pytest.mark.parametrize("pool", [False, True])
    @pytest.mark.parametrize("sanitize", [False, True])
    def test_matrix_bit_identical(self, micro_dataset, micro_config, reference,
                                  backend, pool, sanitize):
        from dataclasses import replace

        from repro.core.driver import run_dibella

        config = replace(micro_config, backend=backend, pool=pool,
                         sanitize=sanitize)
        result = run_dibella(micro_dataset.reads, config=config,
                             n_nodes=1, ranks_per_node=3)
        assert result.overlap_pairs() == reference.overlap_pairs()
        table, ref_table = result.alignment_table(), reference.alignment_table()
        for column in ref_table:
            np.testing.assert_array_equal(table[column], ref_table[column])
        for t_table, p_table in zip(result.overlap_tables(),
                                    reference.overlap_tables()):
            np.testing.assert_array_equal(t_table.rid_a, p_table.rid_a)
            np.testing.assert_array_equal(t_table.rid_b, p_table.rid_b)
            np.testing.assert_array_equal(t_table.seed_offsets, p_table.seed_offsets)
        assert (result.trace.phase_traffic("overlap_exchange").total_bytes
                == reference.trace.phase_traffic("overlap_exchange").total_bytes)

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_two_consecutive_pooled_runs(self, micro_dataset, micro_config, backend):
        """Second pooled run: bit-identical science, nonzero cross-run cache hits."""
        from repro.core.driver import run_dibella

        config = replace(micro_config, backend=backend, pool=True)
        cold = run_dibella(micro_dataset.reads, config=config,
                           n_nodes=1, ranks_per_node=3)
        warm = run_dibella(micro_dataset.reads, config=config,
                           n_nodes=1, ranks_per_node=3)
        assert warm.overlap_pairs() == cold.overlap_pairs()
        cold_table, warm_table = cold.alignment_table(), warm.alignment_table()
        for column in cold_table:
            np.testing.assert_array_equal(warm_table[column], cold_table[column])
        # The cold run had nothing cached; the warm run re-used every read the
        # cold run fetched, so it skipped all remote fetches.
        assert cold.counters["read_cache_fetch_hits"] == 0
        assert warm.counters["read_cache_fetch_hits"] > 0
        assert warm.counters["remote_reads_fetched"] == 0
        assert cold.counters["remote_reads_fetched"] > 0

    def test_pooled_runs_do_not_serve_stale_reads(self, micro_dataset,
                                                  small_dataset, micro_config):
        """A reused rank must never hit a cache built from a different read set."""
        from repro.core.driver import run_dibella

        config = replace(micro_config, backend="process", pool=True)
        run_dibella(micro_dataset.reads, config=config, n_nodes=1, ranks_per_node=3)
        other = run_dibella(small_dataset.reads, config=config,
                            n_nodes=1, ranks_per_node=3)
        fresh = run_dibella(small_dataset.reads,
                            config=replace(config, pool=False),
                            n_nodes=1, ranks_per_node=3)
        # Different dataset -> different generation tag -> cold caches.
        assert other.counters["read_cache_fetch_hits"] == 0
        assert other.overlap_pairs() == fresh.overlap_pairs()
        other_table, fresh_table = other.alignment_table(), fresh.alignment_table()
        for column in fresh_table:
            np.testing.assert_array_equal(other_table[column], fresh_table[column])

    def test_pool_shutdown_after_pipeline_leaves_nothing(self, micro_dataset,
                                                         micro_config):
        import multiprocessing as mp

        from repro.core.driver import run_dibella

        config = replace(micro_config, backend="process", pool=True)
        run_dibella(micro_dataset.reads, config=config, n_nodes=1, ranks_per_node=3)
        shutdown_rank_pools()
        deadline = time.monotonic() + 10.0
        while (any(p.name.startswith("spmd-pool-rank-") for p in mp.active_children())
               and time.monotonic() < deadline):
            time.sleep(0.05)
        assert not any(p.name.startswith("spmd-pool-rank-")
                       for p in mp.active_children())
        assert _shm_segments() == []

    def test_double_buffer_records_overlapped_time_when_multichunk(
            self, micro_dataset, micro_config):
        """With >1 chunk per rank, the schedule must attribute generation
        time to the overlapped bucket and count the chunks it overlapped;
        one chunk per shard has nothing to overlap."""
        from dataclasses import replace

        from repro.core.driver import run_dibella

        tiny = run_dibella(micro_dataset.reads,
                           config=replace(micro_config, exchange_chunk_mb=0.001),
                           n_nodes=1, ranks_per_node=2)
        whole = run_dibella(micro_dataset.reads,
                            config=replace(micro_config, exchange_chunk_mb=None),
                            n_nodes=1, ranks_per_node=2)
        assert tiny.overlap_pairs() == whole.overlap_pairs()
        assert tiny.counters["overlap_exchange_chunks"] > whole.counters[
            "overlap_exchange_chunks"]
        assert tiny.counters["overlap_chunks_overlapped"] > 0
        assert whole.counters["overlap_chunks_overlapped"] == 0
        assert tiny.stage("overlap").wall_overlapped_seconds.sum() > 0.0
        assert whole.stage("overlap").wall_overlapped_seconds.sum() == 0.0
