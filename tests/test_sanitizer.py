"""Runtime sanitizer tests (``spmd_run(..., sanitize=True)`` / DIBELLA_SANITIZE).

Three layers:

* negative — inject each bug class the sanitizer exists for (rank-divergent
  collective, dtype-mismatched exchange, split-phase lifecycle violations)
  and pin that both backends fail loudly with the descriptive error instead
  of deadlocking or silently corrupting;
* watchdog — a rank that never joins a collective turns into a prompt
  :class:`CollectiveTimeoutError` carrying the wedged rank's recent
  collective trace (instead of a ten-minute stall);
* happy path — sanitized runs are bit-identical to unsanitized ones, at the
  toy-program level and through the full pipeline (``config.sanitize``
  plumbing included), and a failed sanitized run leaves no shared-memory
  segments or orphaned rank processes behind.
"""

from __future__ import annotations

import multiprocessing as mp
import time
from dataclasses import replace

import numpy as np
import pytest

from repro.core.driver import run_dibella
from repro.mpisim.backend import shutdown_rank_pools
from repro.mpisim.communicator import ExchangeHandle
from repro.mpisim.errors import (
    CollectiveMismatchError,
    CollectiveTimeoutError,
    RankFailedError,
    SegmentStateError,
)
from repro.mpisim.runtime import spmd_run
from repro.mpisim.tracing import CommTrace

BACKENDS = ("thread", "process")


# ---------------------------------------------------------------------------
# Rank programs (module-level so the process backend can run them)
# ---------------------------------------------------------------------------

def _happy_program(comm):
    """One program touching every sanitized surface with congruent payloads."""
    comm.allreduce(0)
    total = comm.allreduce(comm.rank + 1)
    send = [np.arange(comm.rank + d, dtype=np.int64) for d in range(comm.size)]
    sync = comm.alltoallv(send, label="sync")
    handle = comm.alltoallv_start(send, label="split")
    split = comm.alltoallv_finish(handle)
    label = comm.allreduce(comm.rank, op="max")
    return (total, label,
            sum(int(block.sum()) for block in sync),
            sum(int(block.sum()) for block in split))


def _divergent_program(comm):
    if comm.rank == 0:
        comm.allreduce(1)
    else:
        comm.allreduce(1, op="max")


def _dtype_mismatch_program(comm):
    dtype = np.float64 if comm.rank == 1 else np.int64
    send = [np.zeros(2, dtype=dtype) for _ in range(comm.size)]
    return [block.dtype.str for block in comm.alltoallv(send, label="pairs")]


def _forged_handle(backend: str) -> ExchangeHandle:
    """A handle for split-phase superstep 5, which no rank ever started."""
    token = (1, 5, None if backend == "thread" else b"")  # (slot, seq, own)
    return ExchangeHandle(op_name="alltoallv[ok]", token=token)


def _consume_before_publish_program(comm, backend):
    send = [np.zeros(1, dtype=np.int64)] * comm.size
    handle = comm.alltoallv_start(send, label="ok")
    comm.alltoallv_finish(handle)
    # Every rank must be past the legitimate read before any rank aborts,
    # or abort-time segment reclamation races a slower rank's valid fetch.
    comm.allreduce(0)
    comm.alltoallv_finish(_forged_handle(backend))


def _double_finish_program(comm):
    send = [np.zeros(1, dtype=np.int64)] * comm.size
    handle = comm.alltoallv_start(send, label="ok")
    comm.alltoallv_finish(handle)
    comm.allreduce(0)
    comm.alltoallv_finish(handle)


def _watchdog_program(comm):
    comm.allreduce(comm.rank)  # lands in the collective trace dump
    if comm.rank != 0:
        comm.allreduce(0)  # rank 0 never joins: the watchdog must fire
    return comm.rank


# ---------------------------------------------------------------------------
# Negative: injected bugs fail loudly on both backends
# ---------------------------------------------------------------------------

class TestInjectedBugs:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_rank_divergent_collective_named(self, backend):
        with pytest.raises(RankFailedError) as err:
            spmd_run(3, _divergent_program, backend=backend, sanitize=True)
        cause = err.value.__cause__
        assert isinstance(cause, CollectiveMismatchError)
        assert "congruence" in str(cause)
        # The error names who called what, by rank.
        assert "allreduce:sum" in str(cause) and "allreduce:max" in str(cause)
        assert "rank(s) [0]" in str(cause)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_dtype_mismatched_exchange_named(self, backend):
        with pytest.raises(RankFailedError) as err:
            spmd_run(3, _dtype_mismatch_program, backend=backend, sanitize=True)
        cause = err.value.__cause__
        assert isinstance(cause, CollectiveMismatchError)
        assert "<f8" in str(cause) and "<i8" in str(cause)
        assert "rank(s) [1]" in str(cause)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_dtype_mismatch_is_silent_without_sanitize(self, backend):
        # The bug class SL-sanitize exists for: without the sanitizer the
        # mismatched exchange "succeeds" and the corruption flows downstream.
        results = spmd_run(3, _dtype_mismatch_program, backend=backend,
                           sanitize=False)
        assert any("<f8" in dtype for dtypes in results for dtype in dtypes)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_consume_before_publish_guarded(self, backend):
        with pytest.raises(RankFailedError) as err:
            spmd_run(3, _consume_before_publish_program, backend,
                     backend=backend, sanitize=True)
        cause = err.value.__cause__
        assert isinstance(cause, SegmentStateError)
        assert "never started" in str(cause)
        assert "read-before-publish" in str(cause)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_double_finish_guarded(self, backend):
        with pytest.raises(RankFailedError) as err:
            spmd_run(3, _double_finish_program, backend=backend, sanitize=True)
        cause = err.value.__cause__
        assert isinstance(cause, SegmentStateError)
        assert "twice" in str(cause)


# ---------------------------------------------------------------------------
# Watchdog: hangs become prompt, traced errors
# ---------------------------------------------------------------------------

class TestWatchdog:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_missing_rank_times_out_with_trace(self, backend, monkeypatch):
        monkeypatch.setenv("DIBELLA_SANITIZE_TIMEOUT", "1")
        # Workers forked before the patch would keep the 60 s default; the
        # failed run evicts the pool forked with it.
        shutdown_rank_pools()
        start = time.monotonic()
        with pytest.raises(RankFailedError) as err:
            spmd_run(2, _watchdog_program, backend=backend, sanitize=True)
        elapsed = time.monotonic() - start
        cause = err.value.__cause__
        assert isinstance(cause, CollectiveTimeoutError)
        assert "watchdog" in str(cause)
        # The dump carries the wedged rank's recent collectives.
        assert "allreduce" in str(cause)
        assert elapsed < 30.0  # prompt, not the 600 s engine default

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_watchdog_silent_on_healthy_run(self, backend, monkeypatch):
        # A tight watchdog must not fire when every rank participates.
        monkeypatch.setenv("DIBELLA_SANITIZE_TIMEOUT", "30")
        shutdown_rank_pools()  # fork the ranks with the patched watchdog
        try:
            results = spmd_run(3, _happy_program, backend=backend, sanitize=True)
        finally:
            shutdown_rank_pools()  # later tests must not inherit it
        assert len(results) == 3


# ---------------------------------------------------------------------------
# Happy path: sanitize is observation-only
# ---------------------------------------------------------------------------

class TestBitIdentity:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_program_results_and_trace_identical(self, backend):
        trace_off = CommTrace(3)
        trace_on = CommTrace(3)
        plain = spmd_run(3, _happy_program, backend=backend,
                         trace=trace_off, sanitize=False)
        sanitized = spmd_run(3, _happy_program, backend=backend,
                             trace=trace_on, sanitize=True)
        assert plain == sanitized
        # The congruence digests ride outside trace accounting: identical
        # volumes, op names and message counts either way.
        assert trace_off.summary() == trace_on.summary()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_pipeline_bit_identical_under_sanitize(self, micro_dataset,
                                                   micro_config, backend):
        # Both runs may land on the same pooled process ranks: a one-shot
        # run keeps no read cache between runs, so the counters compare.
        config = replace(micro_config, backend=backend)
        plain = run_dibella(micro_dataset.reads, config=config,
                            n_nodes=1, ranks_per_node=2)
        sanitized = run_dibella(micro_dataset.reads,
                                config=replace(config, sanitize=True),
                                n_nodes=1, ranks_per_node=2)
        assert sanitized.counters == plain.counters
        assert sanitized.n_alignments == plain.n_alignments
        assert sanitized.n_overlap_pairs == plain.n_overlap_pairs


# ---------------------------------------------------------------------------
# Abort hygiene: a sanitizer failure reclaims everything (PR 3 extension)
# ---------------------------------------------------------------------------

class TestAbortCleanup:
    @pytest.fixture(autouse=True)
    def _clean_pools(self):
        shutdown_rank_pools()
        yield
        shutdown_rank_pools()

    def test_failure_leaves_no_segments_or_workers(self, new_shm_segments):
        with pytest.raises(RankFailedError):
            spmd_run(3, _consume_before_publish_program, "process",
                     backend="process", sanitize=True)
        deadline = time.monotonic() + 10.0
        while (any(p.name.startswith("spmd-") for p in mp.active_children())
               and time.monotonic() < deadline):
            time.sleep(0.05)
        assert not any(p.name.startswith("spmd-") for p in mp.active_children())
        assert new_shm_segments() == []

    def test_pooled_failure_evicts_pool_and_cleans_up(self, new_shm_segments):
        with pytest.raises(RankFailedError):
            spmd_run(3, _divergent_program, backend="process", sanitize=True)
        deadline = time.monotonic() + 10.0
        while (any(p.name.startswith("spmd-pool-rank-")
                   for p in mp.active_children())
               and time.monotonic() < deadline):
            time.sleep(0.05)
        assert not any(p.name.startswith("spmd-pool-rank-")
                       for p in mp.active_children())
        assert new_shm_segments() == []
        # The pool recovers: a fresh sanitized run on new workers succeeds.
        results = spmd_run(3, _happy_program, backend="process", sanitize=True)
        assert len(results) == 3
