"""Fault-injection and rank-failure recovery tests (``--fault-plan``).

Four layers (see ``docs/fault-tolerance.md``):

* grammar — the ``FaultPlan`` parser accepts the documented specs, rejects
  malformed ones at parse time, and binds run ordinals in launch order;
* runtime — injected kills/exits/delays fire at the exact superstep asked
  for, the thread backend rejects kill plans, and a randomized chaos sweep
  (hypothesis) pins that every (rank x superstep x action) combination ends
  in either bit-identical results or a typed :class:`RankFailedError` —
  never a hang, never orphaned processes or shared-memory segments;
* pool hygiene — a worker killed mid-``alltoallv_start`` (half-published
  split-phase segments) or while parked never wedges ``shutdown_rank_pools``
  and leaves nothing behind; the next pooled run lands on a fresh pool and
  the respawn is counted;
* service — the :class:`AlignmentService` retries failed builds/batches up
  to ``serve_max_retries`` with bit-identical science, surfaces retry
  exhaustion as the original :class:`RankFailedError`, and refuses work
  after shutdown.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import signal
import time

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from repro.core.config import PipelineConfig
from repro.core.service import AlignmentService
from repro.mpisim import (
    FaultPlan,
    InjectedFaultError,
    RankFailedError,
    recovery_counters,
    reset_recovery_counters,
    shutdown_rank_pools,
    spmd_run,
)
from repro.mpisim import backend as backend_module
from repro.mpisim.faults import FaultSpec, RunFaults, resolve_run_faults
from repro.mpisim.topology import Topology
from repro.seq.kmer import KmerSpec


def _await_no_workers(prefix: str = "spmd-") -> None:
    """Poll until no rank process with *prefix* survives (bounded)."""
    deadline = time.monotonic() + 10.0
    while (any(p.name.startswith(prefix) for p in mp.active_children())
           and time.monotonic() < deadline):
        time.sleep(0.05)
    assert not any(p.name.startswith(prefix) for p in mp.active_children())


# ---------------------------------------------------------------------------
# Rank programs (module-level so the process backend can run them)
# ---------------------------------------------------------------------------

def _chaos_program(comm, xs):
    """A short schedule touching every collective kind the faults can hit."""
    comm.allreduce(0)                                       # superstep 0
    total = comm.allreduce(xs[comm.rank])                   # superstep 1
    send = [np.arange(comm.rank + d + 1, dtype=np.int64)
            for d in range(comm.size)]
    sync = comm.alltoallv(send, label="sync")               # superstep 2
    handle = comm.alltoallv_start(send, label="split")      # superstep 3
    split = comm.alltoallv_finish(handle)
    tag = comm.allreduce(comm.rank, op="max")               # superstep 4
    return (total, tag,
            sum(int(block.sum()) for block in sync),
            sum(int(block.sum()) for block in split))


def _growth_program(comm):
    """Small supersteps, then one whose payload outgrows its ring slot's arena."""
    comm.allreduce(0)                                               # superstep 0
    small = comm.alltoallv([np.arange(4, dtype=np.int64)] * comm.size)  # 1: slot 0
    comm.alltoallv([np.arange(4, dtype=np.int64)] * comm.size)      # 2: slot 1
    big = comm.alltoallv([np.full(1 << 18, comm.rank, dtype=np.int64)]
                         * comm.size)                               # 3: slot 0 grows
    return comm.allreduce(int(big[0][0]) + int(small[0][1]))        # superstep 4


_CHAOS_XS = [3, 4]
#: _chaos_program's fault-free output for 2 ranks over _CHAOS_XS, computed
#: once on the thread backend and pinned against every recovered run.
_CHAOS_BASELINE = None


def _chaos_baseline():
    global _CHAOS_BASELINE
    if _CHAOS_BASELINE is None:
        _CHAOS_BASELINE = spmd_run(2, _chaos_program, _CHAOS_XS,
                                   backend="thread")
    return _CHAOS_BASELINE


# ---------------------------------------------------------------------------
# Grammar: parsing, validation, run binding
# ---------------------------------------------------------------------------

class TestFaultPlanGrammar:
    def test_parse_roundtrip(self):
        plan = FaultPlan.parse(
            "kill:rank=2:step=3; delay:rank=1:op=alltoallv[overlap]:ms=500; "
            "exit:rank=0:stage=alignment:run=1"
        )
        assert [spec.describe() for spec in plan.specs] == [
            "kill:rank=2:step=3",
            "delay:rank=1:op=alltoallv[overlap]:ms=500",
            "exit:rank=0:stage=alignment:run=1",
        ]
        assert plan.has_kill

    @pytest.mark.parametrize("bad", [
        "",                            # no specs at all
        "explode:rank=0",              # unknown action
        "kill:step=3",                 # missing rank
        "kill:rank=0:rank=1",          # duplicate field
        "kill:rank=0:when=now",        # unknown field
        "kill:rank=0:step",            # field without value
        "delay:rank=0",                # delay needs ms
        "kill:rank=-1",                # negative rank
        "kill:rank=zero",              # non-integer rank
    ])
    def test_malformed_plans_rejected_at_parse(self, bad):
        with pytest.raises(ValueError):
            FaultPlan.parse(bad)

    def test_spec_matching_criteria(self):
        spec = FaultSpec(action="exit", rank=1, step=2, op="alltoallv",
                         stage="alignment")
        assert spec.matches("alltoallv[overlap]", "alignment_exchange", 2)
        assert not spec.matches("alltoallv[overlap]", "alignment_exchange", 3)
        assert not spec.matches("allreduce", "alignment_exchange", 2)
        assert not spec.matches("alltoallv[overlap]", "bloom_exchange", 2)

    def test_run_binding_order_and_default(self):
        plan = FaultPlan.parse("exit:rank=0; kill:rank=1:run=2")
        run0 = plan.bind_next_run()
        assert [s.action for s in run0.specs] == ["exit"]  # run defaults to 0
        assert plan.bind_next_run() is None                # run 1: nothing
        run2 = plan.bind_next_run()
        assert [s.action for s in run2.specs] == ["kill"]
        assert run2.has_kill and not run0.has_kill

    def test_resolve_run_faults_forms(self):
        assert resolve_run_faults(None) is None
        assert resolve_run_faults(RunFaults(())) is None
        bound = resolve_run_faults("exit:rank=0")
        assert isinstance(bound, RunFaults) and len(bound.specs) == 1
        assert resolve_run_faults(bound) is bound
        with pytest.raises(TypeError):
            resolve_run_faults(42)

    def test_injector_only_for_targeted_ranks(self):
        bound = resolve_run_faults("exit:rank=1")
        assert bound.injector(0) is None
        assert bound.injector(1) is not None


# ---------------------------------------------------------------------------
# Runtime: thread-backend rejection, exact firing, chaos sweep
# ---------------------------------------------------------------------------

class TestThreadBackend:
    def test_kill_plan_rejected_with_clear_error(self):
        with pytest.raises(ValueError, match="thread backend cannot inject"):
            spmd_run(2, _chaos_program, _CHAOS_XS, backend="thread",
                     faults="kill:rank=1:step=1")

    def test_kill_plan_rejected_at_config_time(self):
        with pytest.raises(ValueError, match="kill"):
            PipelineConfig(kmer=KmerSpec(k=15), backend="thread",
                           fault_plan="kill:rank=0:step=1")

    def test_exit_fault_is_typed_and_located(self):
        with pytest.raises(RankFailedError) as err:
            spmd_run(2, _chaos_program, _CHAOS_XS, backend="thread",
                     faults="exit:rank=1:step=2")
        cause = err.value.__cause__
        assert isinstance(cause, InjectedFaultError)
        assert "rank 1" in str(cause) and "superstep 2" in str(cause)

    def test_delay_fault_is_bit_identical(self):
        delayed = spmd_run(2, _chaos_program, _CHAOS_XS, backend="thread",
                           faults="delay:rank=0:step=1:ms=50")
        assert delayed == _chaos_baseline()

    def test_op_criterion_hits_split_phase(self):
        with pytest.raises(RankFailedError) as err:
            spmd_run(2, _chaos_program, _CHAOS_XS, backend="thread",
                     faults="exit:rank=0:op=alltoallv[split]")
        assert "superstep 3" in str(err.value.__cause__)


class TestChaosSweep:
    """Randomized (rank x superstep x action) sweep on the process backend.

    Recovery contract under any injected fault: the run either completes
    with bit-identical results (the fault targeted a superstep past the
    schedule, or was a pure delay) or raises a typed
    :class:`RankFailedError` — and either way nothing leaks: no orphaned
    rank processes, no shared-memory segments.
    """

    # No shrink phase: each example spawns rank processes and may wait up to
    # 10 s for them to exit, so shrinking a failure would take minutes.
    @settings(max_examples=8, deadline=None, derandomize=True,
              phases=(Phase.explicit, Phase.reuse, Phase.generate))
    @given(rank=st.integers(min_value=0, max_value=1),
           step=st.integers(min_value=0, max_value=6),
           action=st.sampled_from(["kill", "exit", "delay"]))
    def test_recovers_cleanly_or_fails_typed(self, new_shm_segments, rank, step, action):
        plan = f"{action}:rank={rank}:step={step}"
        if action == "delay":
            plan += ":ms=50"
        try:
            results = spmd_run(2, _chaos_program, _CHAOS_XS,
                               backend="process", faults=plan)
        except RankFailedError as err:
            assert action in ("kill", "exit")
            if action == "exit":
                assert isinstance(err.__cause__, InjectedFaultError)
        else:
            # Completed: a delay, or a step ordinal past the schedule.
            assert results == _chaos_baseline()
            assert action == "delay" or step >= 5
        # A completed run leaves its ranks parked in the pool (a failed one
        # evicted it); shutting down must leave nothing behind either way.
        shutdown_rank_pools()
        _await_no_workers("spmd-")
        assert new_shm_segments() == []

    def test_kill_is_detected_and_counted(self, new_shm_segments):
        reset_recovery_counters()
        with pytest.raises(RankFailedError) as err:
            spmd_run(2, _chaos_program, _CHAOS_XS, backend="process",
                     faults="kill:rank=1:step=2")
        assert "exited with code -9" in str(err.value.__cause__)
        assert recovery_counters()["rank_failures_detected"] == 1
        _await_no_workers("spmd-")
        assert new_shm_segments() == []


# ---------------------------------------------------------------------------
# Pool hygiene: deaths never wedge shutdown, segments are reclaimed
# ---------------------------------------------------------------------------

class TestPoolFailureHygiene:
    @pytest.fixture(autouse=True)
    def _clean_pools(self):
        shutdown_rank_pools()
        reset_recovery_counters()
        yield
        shutdown_rank_pools()

    def test_kill_mid_split_phase_then_shutdown(self, new_shm_segments):
        """Regression: a worker killed inside ``alltoallv_start`` leaves
        half-published split-phase segments; eviction + shutdown must
        reclaim them without wedging on the dead waiter."""
        with pytest.raises(RankFailedError):
            spmd_run(2, _chaos_program, _CHAOS_XS, backend="process",
                     faults="kill:rank=1:op=alltoallv[split]")
        start = time.monotonic()
        shutdown_rank_pools()  # already evicted: must be a prompt no-op
        assert time.monotonic() - start < 30.0
        _await_no_workers("spmd-pool-rank-")
        assert new_shm_segments() == []
        # A fresh pool recovers.  The deliberate shutdown above reset the
        # eviction lineage, so this is a cold start, not a counted respawn
        # (the respawn accounting is pinned by
        # test_parked_worker_death_detected_on_next_run).
        results = spmd_run(2, _chaos_program, _CHAOS_XS, backend="process")
        assert results == _chaos_baseline()
        counters = recovery_counters()
        assert counters["rank_failures_detected"] >= 1
        assert counters["pool_respawns"] == 0

    def test_parked_worker_killed_then_shutdown_prompt(self, new_shm_segments):
        """Regression: SIGKILL a *parked* worker, then shutdown.  The old
        sentinel+barrier path would wedge inside multiprocessing's notify
        handshake (a dead process stays registered as a waiter)."""
        spmd_run(2, _chaos_program, _CHAOS_XS, backend="process")
        victims = [p for p in mp.active_children()
                   if p.name.startswith("spmd-pool-rank-")]
        assert victims, "pooled run left no parked workers"
        os.kill(victims[0].pid, signal.SIGKILL)
        deadline = time.monotonic() + 10.0
        while victims[0].is_alive() and time.monotonic() < deadline:
            time.sleep(0.05)
        start = time.monotonic()
        shutdown_rank_pools()
        assert time.monotonic() - start < 30.0
        _await_no_workers("spmd-pool-rank-")
        assert new_shm_segments() == []

    @pytest.mark.parametrize("plan", [
        "kill:rank=1:step=3",   # rank 0 grows its arena, its peer dies
        "kill:rank=0:step=4",   # killed while holding the grown arena
    ])
    def test_kill_around_arena_growth_leaves_nothing(self, new_shm_segments, plan):
        """Every arena is named in the metadata before data lands in it,
        so the parent reclaims grown and replaced arenas alike."""
        with pytest.raises(RankFailedError):
            spmd_run(2, _growth_program, backend="process", faults=plan)
        shutdown_rank_pools()
        _await_no_workers("spmd-")
        assert new_shm_segments() == []

    def test_parked_worker_death_detected_on_next_run(self, new_shm_segments):
        spmd_run(2, _chaos_program, _CHAOS_XS, backend="process")
        victims = [p for p in mp.active_children()
                   if p.name.startswith("spmd-pool-rank-")]
        os.kill(victims[0].pid, signal.SIGKILL)
        deadline = time.monotonic() + 10.0
        while victims[0].is_alive() and time.monotonic() < deadline:
            time.sleep(0.05)
        with pytest.raises(RankFailedError, match="died while parked"):
            spmd_run(2, _chaos_program, _CHAOS_XS, backend="process")
        assert recovery_counters()["rank_failures_detected"] >= 1
        # The next pooled run starts a counted fresh pool and succeeds.
        results = spmd_run(2, _chaos_program, _CHAOS_XS, backend="process")
        assert results == _chaos_baseline()
        assert recovery_counters()["pool_respawns"] == 2
        # The recovered pool keeps its arenas for its lifetime; every live
        # segment must be one of them, so nothing of the evicted pool
        # survives, and its shutdown reclaims them all.
        pool = backend_module._POOL
        arenas = {name for name, _gen in pool.engine.arena_table().values()}
        assert set(new_shm_segments()) <= arenas
        shutdown_rank_pools()
        assert new_shm_segments() == []


# ---------------------------------------------------------------------------
# Service: retry-until-recovered, exhaustion, lifecycle guards
# ---------------------------------------------------------------------------

def _service_workload(dataset):
    """(index reads, query reads) split of a session-scoped dataset."""
    reads = dataset.reads
    n_index = max(1, int(len(reads) * 0.8))
    index = reads.subset(range(n_index))
    queries = [reads[rid] for rid in range(n_index, len(reads))]
    assert queries, "dataset too small to leave query reads"
    return index, queries


def _science(result) -> dict:
    """The science-only view of a result: alignment table + accept counts.

    Recovery legitimately perturbs bookkeeping counters (``index_build_runs``,
    ``read_cache_*``, the ``RECOVERY_COUNTERS``); the alignments must not
    move a bit.
    """
    table = result.alignment_table()
    return {
        "n_alignments": result.n_alignments,
        "accepted": result.counters.get("accepted_alignments", 0),
        "table": {key: value.tolist() for key, value in table.items()},
    }


class TestServiceErrorPaths:
    @pytest.fixture(autouse=True)
    def _clean_pools(self):
        shutdown_rank_pools()
        reset_recovery_counters()
        yield
        shutdown_rank_pools()

    @pytest.fixture()
    def workload(self, micro_dataset):
        return _service_workload(micro_dataset)

    def _config(self, **overrides) -> PipelineConfig:
        return PipelineConfig(kmer=KmerSpec(k=15), coverage_hint=12.0,
                              error_rate_hint=0.08, backend="thread",
                              **overrides)

    def test_submission_after_shutdown_raises(self, workload):
        index, queries = workload
        service = AlignmentService(index, config=self._config(),
                                   topology=Topology(1, 2))
        service.shutdown()
        with pytest.raises(RuntimeError, match="shut down"):
            service.submit(queries)
        with pytest.raises(RuntimeError, match="shut down"):
            service.build()
        with pytest.raises(RuntimeError, match="shut down"):
            service.drain()

    def test_empty_submission_rejected(self, workload):
        index, _queries = workload
        service = AlignmentService(index, config=self._config(),
                                   topology=Topology(1, 2))
        with pytest.raises(ValueError, match="empty query read set"):
            service.submit([])
        service.shutdown()

    def test_retry_exhaustion_surfaces_rank_failure(self, workload):
        index, queries = workload
        # Faults on runs 1 and 2 (the first batch and its only retry) with
        # one retry allowed: recovery must give up and re-raise.
        config = self._config(
            fault_plan="exit:rank=0:step=0:run=1;exit:rank=0:step=0:run=2",
            serve_max_retries=1)
        service = AlignmentService(index, config=config,
                                   topology=Topology(1, 2))
        service.submit(queries)
        with pytest.raises(RankFailedError) as err:
            service.drain()
        assert isinstance(err.value.__cause__, InjectedFaultError)
        service.shutdown()

    def test_zero_retries_disables_recovery(self, workload):
        index, queries = workload
        config = self._config(fault_plan="exit:rank=0:step=0:run=1",
                              serve_max_retries=0)
        service = AlignmentService(index, config=config,
                                   topology=Topology(1, 2))
        service.submit(queries)
        with pytest.raises(RankFailedError):
            service.drain()
        service.shutdown()

    def test_recovered_batch_counters_and_latency_stats(self, workload):
        index, queries = workload
        clean = AlignmentService(index, config=self._config(),
                                 topology=Topology(1, 2))
        clean.submit(queries)
        baseline = clean.drain()[0]
        clean.shutdown()
        shutdown_rank_pools()

        config = self._config(fault_plan="exit:rank=0:step=1:run=1",
                              serve_max_retries=2)
        service = AlignmentService(index, config=config,
                                   topology=Topology(1, 2))
        service.submit(queries)
        record = service.drain()[0]
        counters = record.result.counters
        assert counters["query_batch_retries"] == 1
        assert counters["recovery_seconds"] >= 1
        assert _science(record.result) == _science(baseline.result)
        stats = service.latency_stats()
        assert stats["batches"] == 1.0
        assert stats["reads"] == float(len(queries))
        assert stats["p50_seconds"] > 0.0
        # The retried attempt is inside the recorded latency.
        assert record.wall_seconds >= stats["p50_seconds"] * 0.5
        service.shutdown()


    def test_op_targeted_exit_retried_bit_identical(self, workload):
        """An ``op=``-targeted exit in the first batch's query routing is
        retried once by the service, with science equal to a clean run."""
        index, queries = workload
        clean = AlignmentService(index, config=self._config(),
                                 topology=Topology(1, 2))
        clean.submit(queries)
        baseline = clean.drain()[0]
        clean.shutdown()
        shutdown_rank_pools()

        config = self._config(
            fault_plan="exit:rank=0:op=alltoallv[query_route]:run=1",
            serve_max_retries=2)
        service = AlignmentService(index, config=config,
                                   topology=Topology(1, 2))
        service.submit(queries)
        record = service.drain()[0]
        assert record.result.counters["query_batch_retries"] == 1
        assert _science(record.result) == _science(baseline.result)
        service.shutdown()


@pytest.mark.slow
class TestServeKillRecovery:
    """Acceptance pins: a pooled process-backend serve session survives a
    SIGKILLed rank — during the index build and during a query batch — with
    bit-identical alignments and nonzero recovery counters."""

    @pytest.fixture(autouse=True)
    def _clean_pools(self):
        shutdown_rank_pools()
        reset_recovery_counters()
        yield
        shutdown_rank_pools()

    def _run_session(self, micro_dataset, fault_plan, n_batches=1):
        """Build, then drain *n_batches* batches of the same queries."""
        index, queries = _service_workload(micro_dataset)
        config = PipelineConfig(kmer=KmerSpec(k=15), coverage_hint=12.0,
                                error_rate_hint=0.08, backend="process",
                                fault_plan=fault_plan, serve_max_retries=2)
        service = AlignmentService(index, config=config,
                                   topology=Topology(1, 2))
        build = service.build()
        records = []
        for _ in range(n_batches):
            service.submit(queries)
            records += service.drain()
        service.shutdown()
        return build, records

    def test_kill_during_build_recovers_bit_identical(self, new_shm_segments, micro_dataset):
        _build0, (clean,) = self._run_session(micro_dataset, None)
        shutdown_rank_pools()
        reset_recovery_counters()
        build, (record,) = self._run_session(micro_dataset,
                                             "kill:rank=1:step=1:run=0")
        assert build.counters["rank_failures_detected"] >= 1
        assert build.counters["pool_respawns"] == 2
        assert build.counters["recovery_seconds"] >= 1
        assert _science(record.result) == _science(clean.result)
        _await_no_workers("spmd-pool-rank-")
        assert new_shm_segments() == []

    def test_kill_during_batch_recovers_bit_identical(self, new_shm_segments, micro_dataset):
        _build0, (clean,) = self._run_session(micro_dataset, None)
        shutdown_rank_pools()
        reset_recovery_counters()
        _build, (record, after) = self._run_session(
            micro_dataset, "kill:rank=0:step=2:run=1", n_batches=2)
        counters = record.result.counters
        assert counters["rank_failures_detected"] >= 1
        assert counters["pool_respawns"] == 2
        assert counters["query_batch_retries"] == 1
        assert counters["recovery_seconds"] >= 1
        # The retry shipped the index reads and rebuilt on both ranks.
        assert counters["index_build_runs"] == 2
        n_index = len(_service_workload(micro_dataset)[0])
        assert counters["index_reads_shipped"] == n_index
        assert _science(record.result) == _science(clean.result)
        # The next batch reuses the rebuilt index and ships no index read.
        assert after.result.counters["index_reuse_hits"] == 2
        assert "index_reads_shipped" not in after.result.counters
        assert "index_build_runs" not in after.result.counters
        assert _science(after.result) == _science(clean.result)
        _await_no_workers("spmd-pool-rank-")
        assert new_shm_segments() == []
