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

from repro.mpisim import backend as backend_module
from repro.mpisim.backend import (
    ProcessBackend,
    ThreadBackend,
    active_rank_pools,
    rank_pool_stats,
    resolve_backend,
    shutdown_rank_pools,
)
from repro.mpisim.errors import (
    CollectiveMismatchError,
    CollectiveTimeoutError,
    RankFailedError,
)
from repro.mpisim.runtime import spmd_run
from repro.mpisim.serialization import UnsupportedPayloadError
from repro.mpisim.tracing import CommTrace
from repro.seq.packing import PackedReadBlock


class TestResolveBackend:
    def test_names(self):
        assert isinstance(resolve_backend("thread"), ThreadBackend)
        assert isinstance(resolve_backend("process"), ProcessBackend)
        assert isinstance(resolve_backend(None), ThreadBackend)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            resolve_backend("mpi")


def _collective_program(comm):
    """One program touching every collective with typed payloads."""
    total = comm.allreduce(comm.rank + 1, op="sum")
    peak = comm.allreduce(np.full(4, comm.rank, dtype=np.uint8), op="max")
    low = comm.allreduce(comm.rank, op="min")
    send = [np.full(comm.rank + 1, d, dtype=np.int64) for d in range(comm.size)]
    received = comm.alltoallv(send)
    assert all(received[s].size == s + 1 for s in range(comm.size))
    assert all((received[s] == comm.rank).all() for s in range(comm.size))
    labels = comm.alltoallv([f"{comm.rank}->{d}" for d in range(comm.size)])
    handle = comm.alltoallv_start([comm.rank] * comm.size)
    everyone = comm.alltoallv_finish(handle)
    return (total, int(peak.max()), low, labels[0], everyone)


def _allreduce_plus_one(comm):
    return comm.allreduce(41) + 1


def _typed_matrix_program(comm):
    matrix = np.arange(12, dtype=np.uint64).reshape(6, 2) + np.uint64(comm.rank)
    return comm.alltoallv([matrix] * comm.size)


def _rank_squared(comm):
    return comm.rank ** 2


class TestProcessCollectives:
    def test_full_collective_program(self):
        results = spmd_run(3, _collective_program, backend="process")
        for rank, (total, peak, low, label, everyone) in enumerate(results):
            assert total == 6
            assert peak == 2
            assert low == 0
            assert label == f"0->{rank}"
            assert everyone == [0, 1, 2]

    def test_matches_thread_backend(self):
        thread = spmd_run(3, _collective_program, backend="thread")
        process = spmd_run(3, _collective_program, backend="process")
        assert thread == process

    def test_single_rank(self):
        assert spmd_run(1, _allreduce_plus_one, backend="process") == [42]

    def test_typed_arrays_roundtrip_exactly(self):
        results = spmd_run(2, _typed_matrix_program, backend="process")
        for gathered in results:
            assert gathered[0].dtype == np.uint64
            assert gathered[0].shape == (6, 2)
            np.testing.assert_array_equal(gathered[1] - gathered[0], np.uint64(1))

    def test_results_in_rank_order(self):
        assert spmd_run(4, _rank_squared, backend="process") == [0, 1, 4, 9]


def _rank_one_raises_program(comm):
    if comm.rank == 1:
        raise RuntimeError("boom")
    comm.allreduce(0)  # would deadlock without abort handling


def _mismatched_allreduce_program(comm):
    if comm.rank == 0:
        comm.allreduce(1, op="max")
    else:
        comm.allreduce(1)


class _Opaque:
    pass


def _untyped_payload_program(comm):
    return comm.alltoallv([_Opaque()] * comm.size)


def _stalled_rank_program(comm):
    if comm.rank == 0:
        time.sleep(2.0)
    comm.allreduce(0)
    return comm.rank


def _exchange_then_reduce_program(comm):
    comm.alltoallv([np.arange(100, dtype=np.int64)] * comm.size)
    return comm.allreduce(1)


class TestProcessErrorHandling:
    def test_rank_exception_propagates(self):
        with pytest.raises(RankFailedError, match="rank 1") as err:
            spmd_run(3, _rank_one_raises_program, backend="process")
        assert isinstance(err.value.__cause__, RuntimeError)

    def test_collective_mismatch_detected(self):
        with pytest.raises(RankFailedError) as err:
            spmd_run(2, _mismatched_allreduce_program, backend="process")
        assert isinstance(err.value.__cause__, CollectiveMismatchError)

    def test_untyped_payload_rejected(self):
        with pytest.raises(RankFailedError) as err:
            spmd_run(2, _untyped_payload_program, backend="process")
        assert "typed collectives protocol" in str(err.value.__cause__)

    def test_barrier_timeout_raises_not_silent_none(self, monkeypatch):
        # A collective wait that breaks with no originating rank failure (a stalled
        # rank exceeding the collective timeout) must surface as an error,
        # never as a successful [None, ...] result list.
        from repro.mpisim import communicator

        monkeypatch.setattr(communicator, "_BARRIER_TIMEOUT", 0.5)
        # Under DIBELLA_SANITIZE=1 runs the sanitizer watchdog governs the
        # wait instead; tighten it too so the stall still errors promptly.
        monkeypatch.setenv("DIBELLA_SANITIZE_TIMEOUT", "0.5")
        # Workers forked before the patch would wait out the old timeout;
        # the failed run evicts the pool forked with it.
        shutdown_rank_pools()

        with pytest.raises(RankFailedError, match="broken barrier|watchdog"):
            spmd_run(2, _stalled_rank_program, backend="process")

    def test_no_shared_memory_leaked(self, new_shm_segments):
        spmd_run(3, _exchange_then_reduce_program, backend="process")
        # The pool holds its arenas until it shuts down.
        shutdown_rank_pools()
        assert new_shm_segments() == []


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


def _peer_failure_program(comm):
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

    def test_no_shared_memory_leaked(self, new_shm_segments):
        spmd_run(3, _split_phase_program, backend="process")
        shutdown_rank_pools()
        assert new_shm_segments() == []

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_trace_identical_to_synchronous(self, backend):
        split_trace, sync_trace = CommTrace(3), CommTrace(3)
        spmd_run(3, _split_phase_program, trace=split_trace, backend=backend)
        spmd_run(3, _sync_phase_program, trace=sync_trace, backend=backend)
        assert split_trace.summary() == sync_trace.summary()
        assert (split_trace.snapshot()["alltoallv_calls"]
                == sync_trace.snapshot()["alltoallv_calls"])

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_peer_failure_unblocks_finish(self, new_shm_segments, backend):
        with pytest.raises(RankFailedError, match="rank 1"):
            spmd_run(3, _peer_failure_program, backend=backend)
        if backend == "process":
            # The failure evicted the pool, reclaiming its arenas.
            assert new_shm_segments() == []


def _interleaved_program(comm):
    """Blocking exchange and allreduces inside a split exchange's flight.

    Split exchange A holds a ring slot while blocking exchange B takes and
    releases the other, and three allreduces ride the blocking slot — under
    the sanitizer each op adds a congruence round there too.  Every rank sends ``rank * 100 + dst`` in ``dst + 1`` int64
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
    peak = comm.allreduce(comm.rank, op="max")
    tags = comm.allreduce(f"r{comm.rank}")
    received_a = comm.alltoallv_finish(handle)
    return ([a.tolist() for a in received_a], [b.tolist() for b in received_b],
            total, peak, tags)


def _interleaved_expected(size: int) -> list:
    return [([[src * 100 + dst] * (dst + 1) for src in range(size)],
             [[src] * (src + 1) for src in range(size)],
             size * (size + 1) // 2, size - 1,
             "".join(f"r{src}" for src in range(size)))
            for dst in range(size)]


class TestInterleavedExchanges:
    """Blocking and split exchanges share one ring; allreduces ride the
    blocking slot beside it."""

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

    def test_pooled_rerun(self, new_shm_segments):
        shutdown_rank_pools()
        try:
            for _ in range(2):
                assert (spmd_run(3, _interleaved_program, backend="process")
                        == _interleaved_expected(3))
        finally:
            shutdown_rank_pools()
        assert new_shm_segments() == []


def _raising_reducer(a, b):
    raise ValueError("reducer refuses")


def _raising_allreduce_program(comm):
    return comm.allreduce(comm.rank, op=_raising_reducer)


def _small_collectives_program(comm):
    comm.allreduce(0)
    total = comm.allreduce(np.arange(4, dtype=np.int64) + comm.rank)
    peak = comm.allreduce(comm.rank, op="max")
    low = comm.allreduce(np.full(3, 7 + comm.rank, dtype=np.uint8), op="min")
    tags = comm.allreduce(f"r{comm.rank}")
    return (total.tolist(), peak, low.tolist(), tags)


class TestSmallCollectives:
    """An allreduce combines locally after one blocking-slot round."""

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_reducer_error_fails_the_run(self, backend):
        with pytest.raises(RankFailedError) as err:
            spmd_run(3, _raising_allreduce_program, backend=backend)
        assert isinstance(err.value.__cause__, ValueError)
        assert "reducer refuses" in str(err.value.__cause__)

    @pytest.mark.parametrize("warm", [False, True], ids=["unpooled", "pooled"])
    def test_no_shared_memory_leaked(self, new_shm_segments, warm):
        """The pool's shutdown reclaims every arena, whether the run launched
        the pool (``unpooled``) or reused one an earlier run left parked
        (``pooled``)."""
        shutdown_rank_pools()
        try:
            if warm:
                spmd_run(3, _small_collectives_program, backend="process")
            results = spmd_run(3, _small_collectives_program,
                               backend="process")
        finally:
            shutdown_rank_pools()
        assert results == [([3, 6, 9, 12], 2, [7, 7, 7], "r0r1r2")] * 3
        assert new_shm_segments() == []


def _late_publisher_program(comm):
    """Rank 1 publishes long after rank 0's exchange wait has timed out."""
    if comm.rank == 1:
        time.sleep(1.5)
    handle = comm.alltoallv_start([comm.rank] * comm.size)
    return comm.alltoallv_finish(handle)


class TestCollectiveTimeout:
    """A timed-out exchange wait is a typed failure of the rank that waited."""

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_timed_out_exchange_raises_typed_error(self, new_shm_segments, backend, monkeypatch):
        from repro.mpisim import communicator

        monkeypatch.setattr(communicator, "_BARRIER_TIMEOUT", 0.5)
        # Under DIBELLA_SANITIZE=1 the watchdog governs the wait instead.
        monkeypatch.setenv("DIBELLA_SANITIZE_TIMEOUT", "0.5")
        # Fork the ranks after the patch; the failed run evicts them.
        shutdown_rank_pools()
        with pytest.raises(RankFailedError, match="rank 0") as err:
            spmd_run(2, _late_publisher_program, backend=backend)
        assert isinstance(err.value.__cause__, CollectiveTimeoutError)
        if backend == "process":
            assert new_shm_segments() == []


def _pool_pid_program(comm):
    total = comm.allreduce(comm.rank + 1)
    received = comm.alltoallv([np.full(3, comm.rank, dtype=np.int64)] * comm.size)
    return (os.getpid(), total, [int(a[0]) for a in received])


def _pool_failing_program(comm):
    if comm.rank == 1:
        raise RuntimeError("pooled boom")
    comm.allreduce(0)


class TestRankPool:
    """The persistent process-rank pool: reuse, eviction, clean shutdown."""

    @pytest.fixture(autouse=True)
    def _clean_pools(self):
        shutdown_rank_pools()
        yield
        shutdown_rank_pools()

    def test_consecutive_runs_reuse_rank_processes(self):
        first = spmd_run(3, _pool_pid_program, backend="process")
        second = spmd_run(3, _pool_pid_program, backend="process")
        assert [r[0] for r in first] == [r[0] for r in second]  # same PIDs
        assert [r[1:] for r in first] == [r[1:] for r in second]
        threads = spmd_run(3, _pool_pid_program, backend="thread")
        assert [r[1:] for r in first] == [r[1:] for r in threads]
        assert active_rank_pools() == 1

    @pytest.mark.parametrize("pool", [False, True])
    def test_pool_keyword_is_ignored(self, pool):
        """``pool=`` is a compatibility keyword: either value runs on the
        rank pool, reusing the workers of the run before."""
        first = spmd_run(3, _pool_pid_program, backend="process")
        again = spmd_run(3, _pool_pid_program, backend="process", pool=pool)
        assert [r[0] for r in again] == [r[0] for r in first]
        assert [r[1:] for r in again] == [r[1:] for r in first]
        assert rank_pool_stats() == [{"n_ranks": 3, "runs_completed": 2,
                                      "forks_amortised": 3}]

    def test_one_pool_is_parked_across_rank_counts(self, new_shm_segments):
        """A run at another rank count shuts the parked pool down first: after
        runs at 1, 2 and 3 ranks, one pool of 3 workers is parked, and the
        earlier pools' arenas are reclaimed."""
        import multiprocessing as mp

        for n_ranks in (1, 2, 3):
            spmd_run(n_ranks, _pool_pid_program, backend="process")
        assert active_rank_pools() == 1
        assert rank_pool_stats() == [{"n_ranks": 3, "runs_completed": 1,
                                      "forks_amortised": 0}]
        workers = [p for p in mp.active_children()
                   if p.name.startswith("spmd-pool-rank-")]
        assert sorted(p.pid for p in workers) == sorted(
            p.pid for p in backend_module._POOL.workers)
        arenas = {name for name, _gen in
                  backend_module._POOL.engine.arena_table().values()}
        assert set(new_shm_segments()) <= arenas

    def test_one_shot_runs_reuse_workers(self, micro_dataset, micro_config):
        """Two one-shot process runs land on the same worker processes and
        report identical counters: a one-shot run keeps nothing between
        runs."""
        from repro.core.driver import run_dibella

        config = replace(micro_config, backend="process")
        runs, pids = [], []
        for _ in range(2):
            runs.append(run_dibella(micro_dataset.reads, config=config,
                                    n_nodes=1, ranks_per_node=2))
            pids.append([proc.pid for proc in backend_module._POOL.workers])
        assert pids[0] == pids[1]
        assert runs[0].counters == runs[1].counters
        assert runs[0].overlap_pairs() == runs[1].overlap_pairs()

    def test_split_phase_works_across_pooled_runs(self):
        # The engine's exchange sequence state must be re-armed between runs.
        first = spmd_run(3, _split_phase_program, backend="process")
        second = spmd_run(3, _split_phase_program, backend="process")
        assert first == second

    def test_failure_evicts_pool_and_next_run_recovers(self):
        baseline = spmd_run(3, _pool_pid_program, backend="process")
        with pytest.raises(RankFailedError, match="pooled boom"):
            spmd_run(3, _pool_failing_program, backend="process")
        assert active_rank_pools() == 0
        recovered = spmd_run(3, _pool_pid_program, backend="process")
        assert [r[1:] for r in recovered] == [r[1:] for r in baseline]

    def test_shutdown_leaves_no_orphans_or_segments(self, new_shm_segments):
        import multiprocessing as mp

        spmd_run(3, _pool_pid_program, backend="process")
        assert any(p.name.startswith("spmd-pool-rank-") for p in mp.active_children())
        shutdown_rank_pools()
        assert active_rank_pools() == 0
        deadline = time.monotonic() + 10.0
        while (any(p.name.startswith("spmd-pool-rank-") for p in mp.active_children())
               and time.monotonic() < deadline):
            time.sleep(0.05)
        assert not any(p.name.startswith("spmd-pool-rank-")
                       for p in mp.active_children())
        assert new_shm_segments() == []

    def test_thread_backend_ignores_pool_flag(self):
        assert spmd_run(2, _pool_pid_program, backend="thread", pool=True) \
            == spmd_run(2, _pool_pid_program, backend="thread")
        assert active_rank_pools() == 0

    def test_unpicklable_job_raises_instead_of_hanging(self):
        # Queue.put pickles in a feeder thread whose failure is silent; the
        # pool must surface the pickling error in the caller (and stay
        # usable) instead of stranding the workers.
        with pytest.raises(TypeError, match="not picklable"):
            spmd_run(2, lambda comm: comm.allreduce(1), backend="process")
        assert spmd_run(2, _pool_pid_program, backend="process")[0][1] == 3

    def test_dead_parked_worker_detected_not_hung(self):
        baseline = spmd_run(3, _pool_pid_program, backend="process")
        pool = backend_module._POOL
        victim = pool.workers[1]
        victim.terminate()  # dies while parked
        victim.join(timeout=10.0)
        with pytest.raises(RankFailedError, match="died while parked"):
            spmd_run(3, _pool_pid_program, backend="process")
        assert active_rank_pools() == 0
        recovered = spmd_run(3, _pool_pid_program, backend="process")
        assert [r[1:] for r in recovered] == [r[1:] for r in baseline]


def _many_small_collectives_program(comm, n_calls):
    total = 0
    for step in range(n_calls):
        received = comm.alltoallv([np.arange(4, dtype=np.int64) + step]
                                  * comm.size)
        total += comm.allreduce(int(received[0][0]))
    return total


def _growing_exchange_program(comm, big_elements):
    """Small exchanges, then one exchange of *big_elements* int64 per
    destination in the same ring slot (superstep 2 reuses superstep 0's)."""
    small = comm.alltoallv([np.full(4, comm.rank, dtype=np.int64)] * comm.size)
    comm.alltoallv([np.zeros(1, dtype=np.int64)] * comm.size)
    big = comm.alltoallv([np.arange(big_elements, dtype=np.int64) + comm.rank
                          + 10 * d for d in range(comm.size)])
    return ([a.tolist() for a in small],
            [(int(a.size), int(a.sum())) for a in big])


def _slot_reuse_program(comm):
    """An array received in superstep 0 survives supersteps 1 and 2, the
    latter rewriting the same ring slot with other values of the same size."""
    first = comm.alltoallv([np.full(8, comm.rank * 10 + d, dtype=np.int64)
                            for d in range(comm.size)])
    kept = [a.copy() for a in first]
    comm.alltoallv([np.full(8, -1, dtype=np.int64)] * comm.size)
    comm.alltoallv([np.full(8, -2, dtype=np.int64)] * comm.size)
    return all(np.array_equal(a, b) for a, b in zip(first, kept))


def _pool_engine(n_ranks):
    pool = backend_module._POOL
    assert pool.n_ranks == n_ranks
    return pool.engine


class TestArenas:
    """The process engine's long-lived per-(rank, slot) arenas."""

    @pytest.fixture(autouse=True)
    def _clean_pools(self):
        shutdown_rank_pools()
        yield
        shutdown_rank_pools()

    def test_small_calls_keep_every_arena(self, new_shm_segments):
        first = spmd_run(2, _many_small_collectives_program, 200,
                         backend="process")
        table = _pool_engine(2).arena_table()
        # One creation per (rank, slot), then 200 calls without growing.
        assert {gen for _name, gen in table.values()} == {1}
        assert {name for name, _gen in table.values()} <= set(new_shm_segments())
        second = spmd_run(2, _many_small_collectives_program, 200,
                          backend="process")
        assert _pool_engine(2).arena_table() == table
        assert first == second == spmd_run(2, _many_small_collectives_program,
                                           200, backend="thread")

    def test_oversized_payload_grows_its_slot_once(self):
        from repro.mpisim.backend import _ARENA_MIN_BYTES

        big_elements = _ARENA_MIN_BYTES // 8  # one arena's worth per peer
        results = spmd_run(2, _growing_exchange_program, big_elements,
                           backend="process")
        assert results == spmd_run(2, _growing_exchange_program, big_elements,
                                   backend="thread")
        table = _pool_engine(2).arena_table()
        # Ring slot 0 carried supersteps 0 and 2 and grew once; slot 1 and
        # the blocking slot kept their first arena.
        assert [table[(rank, 0)][1] for rank in range(2)] == [2, 2]
        assert [table[(rank, 1)][1] for rank in range(2)] == [1, 1]

    @pytest.mark.parametrize("warm", [False, True], ids=["unpooled", "pooled"])
    def test_received_arrays_are_not_arena_views(self, warm):
        """Received arrays survive slot reuse on a freshly launched pool
        (``unpooled``) and on arenas an earlier run left parked (``pooled``)."""
        if warm:
            spmd_run(2, _slot_reuse_program, backend="process")
            table = _pool_engine(2).arena_table()
        assert spmd_run(2, _slot_reuse_program,
                        backend="process") == [True, True]
        if warm:
            assert _pool_engine(2).arena_table() == table

    def test_arena_over_retain_limit_dropped_at_run_end(self):
        from repro.mpisim.backend import _RETAIN_BYTES

        big_elements = 2 * _RETAIN_BYTES // 8
        spmd_run(2, _growing_exchange_program, big_elements,
                 backend="process")
        table = _pool_engine(2).arena_table()
        # The grown slot-0 arenas are gone and unnamed; the small slot-1
        # arenas stay for the next run.
        assert [table[(rank, 0)] for rank in range(2)] == [("", 2), ("", 2)]
        for rank in range(2):
            name = table[(rank, 1)][0]
            assert os.stat(f"/dev/shm/{name}").st_size <= _RETAIN_BYTES
        # The next run grows slot 0 again and still matches the threads.
        assert (spmd_run(2, _growing_exchange_program, big_elements,
                         backend="process")
                == spmd_run(2, _growing_exchange_program, big_elements,
                            backend="thread"))


#: The array one rank sends its peer in the one-copy check (8 MB).
_TRACED_BYTES = 8 << 20


def _traced_start_program(comm):
    """Python-heap bytes traced while an 8 MB array is published to the
    peer.  The arena is grown by a first exchange of the same size, so the
    traced call only encodes and writes into shared memory."""
    import tracemalloc

    big = np.arange(_TRACED_BYTES // 8, dtype=np.int64) + comm.rank
    send = [np.empty(0, dtype=np.int64) if dst == comm.rank else big
            for dst in range(comm.size)]
    comm.alltoallv(send)
    tracemalloc.start()
    try:
        handle = comm.alltoallv_start(send)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    received = comm.alltoallv_finish(handle)
    peer = received[1 - comm.rank]
    return peak, bool(np.array_equal(peer, big - comm.rank + (1 - comm.rank)))


def _typed_payloads(rank):
    """One of every array shape and dtype family the wire format carries,
    and a read block, varied by the sending *rank*."""
    return [
        np.array([True, False, rank == 1]),
        np.arange(5, dtype=np.float16) / 4 + rank,
        np.array(["2020-01-01", "2021-06-30"], dtype="datetime64[D]") + rank,
        np.arange(4, dtype=">u4") + rank,
        np.array(3.5 + rank),
        np.empty((0, 3), dtype=np.int32),
        (np.arange(24, dtype=np.int64).reshape(4, 6) + rank)[:, ::2],
        PackedReadBlock(rids=np.array([3, 9 + rank], dtype=np.int64),
                        lengths=np.array([5, 2], dtype=np.int64),
                        packed=np.array([0b00011011, 0b11100100, rank], dtype=np.uint8)),
    ]


def _typed_payload_program(comm):
    """The received payloads, and whether every array a peer sent arrived
    as a C-order array owning its data (not a view of the arena)."""
    received = comm.alltoallv([_typed_payloads(comm.rank)] * comm.size)
    arrays = [array for src, payload in enumerate(received) if src != comm.rank
              for array in payload if isinstance(array, np.ndarray)]
    return received, all(a.flags.c_contiguous and a.flags.owndata for a in arrays)


def _self_untyped_payload_program(comm):
    return comm.alltoallv([_Opaque() if dst == comm.rank else 0
                           for dst in range(comm.size)])


def _assert_same_array(got, expected):
    assert got.dtype == expected.dtype and got.shape == expected.shape
    np.testing.assert_array_equal(got, expected)


class TestZeroStagingTransport:
    """The process engine writes array data straight from the sender's
    buffer into its arena, copies it out once on the receiving side, and
    hands the self-addressed payload back by reference."""

    @pytest.fixture(autouse=True)
    def _clean_pools(self):
        shutdown_rank_pools()
        yield
        shutdown_rank_pools()

    def test_publish_stages_no_copy_of_the_array(self):
        """Staging the array (``tobytes`` and a joined blob) would trace
        2x its size; writing it from its own buffer traces next to nothing."""
        for peak, delivered in spmd_run(2, _traced_start_program, backend="process"):
            assert delivered
            assert peak < _TRACED_BYTES // 8

    def test_typed_arrays_and_read_blocks_cross_the_arena(self):
        for received, owned in spmd_run(2, _typed_payload_program, backend="process"):
            assert owned
            for src in range(2):
                payload, expected_payload = received[src], _typed_payloads(src)
                assert len(payload) == len(expected_payload)
                for got, expected in zip(payload, expected_payload):
                    if isinstance(expected, PackedReadBlock):
                        for field in ("rids", "lengths", "packed"):
                            _assert_same_array(getattr(got, field), getattr(expected, field))
                    else:
                        _assert_same_array(got, expected)

    def test_self_addressed_untyped_payload_still_raises(self):
        with pytest.raises(RankFailedError) as err:
            spmd_run(2, _self_untyped_payload_program, backend="process")
        assert isinstance(err.value.__cause__, UnsupportedPayloadError)


def _two_phase_program(comm):
    comm.set_phase("phase_a")
    comm.alltoallv([np.zeros(comm.rank + 1, dtype=np.int64)] * comm.size)
    comm.set_phase("phase_b")
    comm.alltoallv([np.ones(2, dtype=np.int64)] * comm.size)


class TestProcessTracing:
    def test_trace_merged_identically_to_thread(self):
        thread_trace, process_trace = CommTrace(3), CommTrace(3)
        spmd_run(3, _two_phase_program, trace=thread_trace, backend="thread")
        spmd_run(3, _two_phase_program, trace=process_trace, backend="process")
        assert thread_trace.summary() == process_trace.summary()
        for phase in thread_trace.phases():
            np.testing.assert_array_equal(
                thread_trace.phase_traffic(phase).volume,
                process_trace.phase_traffic(phase).volume,
            )

    def test_exchange_counts_alltoallv_calls(self):
        # Split and blocking exchanges both count one Alltoallv call
        # (chunked supersteps rely on this).
        def program(comm):
            comm.set_phase("p")
            comm.alltoallv_finish(comm.alltoallv_start(list(range(comm.size))))
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
    """{thread, process} x {sanitizer off/on} must all produce bit-identical
    scientific output (process ranks always run on the rank pool)."""

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

        config = replace(micro_config, backend="thread", sanitize=False)
        return run_dibella(micro_dataset.reads, config=config,
                           n_nodes=1, ranks_per_node=3)

    @pytest.mark.parametrize("backend", ["thread", "process"])
    @pytest.mark.parametrize("sanitize", [False, True])
    def test_matrix_bit_identical(self, micro_dataset, micro_config, reference,
                                  backend, sanitize):
        from dataclasses import replace

        from repro.core.driver import run_dibella

        config = replace(micro_config, backend=backend, sanitize=sanitize)
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
        """Second pooled one-shot run: bit-identical science, and the same
        remote fetches — a one-shot run keeps no read cache between runs."""
        from repro.core.driver import run_dibella

        config = replace(micro_config, backend=backend)
        first = run_dibella(micro_dataset.reads, config=config,
                            n_nodes=1, ranks_per_node=3)
        second = run_dibella(micro_dataset.reads, config=config,
                             n_nodes=1, ranks_per_node=3)
        assert second.overlap_pairs() == first.overlap_pairs()
        first_table, second_table = first.alignment_table(), second.alignment_table()
        for column in first_table:
            np.testing.assert_array_equal(second_table[column], first_table[column])
        assert first.counters["remote_reads_fetched"] > 0
        assert (second.counters["remote_reads_fetched"]
                == first.counters["remote_reads_fetched"])
        for result in (first, second):
            assert result.counters["read_cache_fetch_hits"] == 0

    def test_pooled_runs_do_not_serve_stale_reads(self, micro_dataset,
                                                  small_dataset, micro_config):
        """A reused rank must never hit a cache built from a different read set."""
        from repro.core.driver import run_dibella

        config = replace(micro_config, backend="process")
        run_dibella(micro_dataset.reads, config=config, n_nodes=1, ranks_per_node=3)
        other = run_dibella(small_dataset.reads, config=config,
                            n_nodes=1, ranks_per_node=3)
        shutdown_rank_pools()  # the reference runs on freshly forked workers
        fresh = run_dibella(small_dataset.reads, config=config,
                            n_nodes=1, ranks_per_node=3)
        # A one-shot run aligns with a fresh cache.
        assert other.counters["read_cache_fetch_hits"] == 0
        assert other.overlap_pairs() == fresh.overlap_pairs()
        other_table, fresh_table = other.alignment_table(), fresh.alignment_table()
        for column in fresh_table:
            np.testing.assert_array_equal(other_table[column], fresh_table[column])

    def test_pool_shutdown_after_pipeline_leaves_nothing(self, new_shm_segments, micro_dataset,
                                                         micro_config):
        import multiprocessing as mp

        from repro.core.driver import run_dibella

        config = replace(micro_config, backend="process")
        run_dibella(micro_dataset.reads, config=config, n_nodes=1, ranks_per_node=3)
        shutdown_rank_pools()
        deadline = time.monotonic() + 10.0
        while (any(p.name.startswith("spmd-pool-rank-") for p in mp.active_children())
               and time.monotonic() < deadline):
            time.sleep(0.05)
        assert not any(p.name.startswith("spmd-pool-rank-")
                       for p in mp.active_children())
        assert new_shm_segments() == []

    def test_double_buffer_records_overlapped_time_when_multichunk(
            self, micro_dataset, micro_config):
        """With >1 chunk per rank, the schedule must attribute generation
        time to the overlapped bucket and count the chunks it overlapped;
        one chunk has nothing to overlap."""
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
