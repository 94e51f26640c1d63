"""Unified superstep scheduler tests.

Two layers:

* scheduler-level — toy SPMD programs driving
  :class:`repro.core.supersteps.SuperstepSchedule` directly, pinning the
  payloads each step delivers and the trace bytes/calls it records against
  known values (and against one blocking ``alltoallv`` per step) on both
  runtime backends;
* pipeline-level (slow tier) — every streamed stage overlapping its
  supersteps, a many- against a one-superstep pair exchange (same science,
  same wire volumes), the ``{thread, process} × {sanitizer off/on}``
  parity matrix, and the bloom stash release accounting.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import PipelineConfig
from repro.core.counters import SCHEDULE_FLAG_COUNTERS
from repro.core.supersteps import ScheduleOutcome, StageTimer, SuperstepSchedule
from repro.mpisim.errors import CollectiveMismatchError, RankFailedError
from repro.mpisim.runtime import spmd_run
from repro.mpisim.tracing import CommTrace


# ---------------------------------------------------------------------------
# Scheduler-level: toy SPMD programs
# ---------------------------------------------------------------------------

def _toy_send(rank: int, size: int, step: int) -> list[np.ndarray]:
    """Rank *rank*'s step-*step* payloads: rank r has r + 1 local steps."""
    if step > rank:
        return [np.empty(0, dtype=np.int64) for _ in range(size)]
    return [np.arange(step + dst + rank * 10, dtype=np.int64)
            for dst in range(size)]


def _expected_payloads(size: int) -> list[list[list[list[int]]]]:
    """Per rank, per step, per source: what the toy programs must consume."""
    return [[[list(range(step + dst + src * 10)) if step <= src else []
              for src in range(size)]
             for step in range(size)]
            for dst in range(size)]


def _expected_toy_bytes(size: int) -> int:
    return 8 * sum(step + dst + src * 10
                   for src in range(size) for step in range(src + 1)
                   for dst in range(size))


def _single_hop_program(comm):
    """Unequal local step counts; returns consumed payloads + outcome."""
    timer = StageTimer()
    consumed = []

    def consume(step, received):
        consumed.append([np.asarray(a).tolist() for a in received])

    comm.set_phase("agree")
    schedule = SuperstepSchedule(comm, timer, comm.rank + 1, label="toy")
    comm.set_phase("toy")
    outcome = schedule.run(
        lambda step: _toy_send(comm.rank, comm.size, step), consume)
    return consumed, (outcome.n_supersteps, outcome.steps_overlapped)


def _blocking_program(comm):
    """The same supersteps as one blocking ``alltoallv`` each."""
    comm.set_phase("agree")
    n_steps = comm.allreduce(comm.rank + 1, op="max")
    comm.set_phase("toy")
    return [[a.tolist() for a in comm.alltoallv(
                _toy_send(comm.rank, comm.size, step), label="toy")]
            for step in range(n_steps)]


class TestSuperstepSchedule:
    """The schedule delivers one blocking ``alltoallv``'s payloads per step."""

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_single_hop_split_matches_sync(self, backend):
        split = spmd_run(3, _single_hop_program, backend=backend)
        assert [payloads for payloads, _ in split] == _expected_payloads(3)
        assert (spmd_run(3, _blocking_program, backend=backend)
                == _expected_payloads(3))

    def test_single_hop_thread_process_identical(self):
        assert (spmd_run(3, _single_hop_program, backend="thread")
                == spmd_run(3, _single_hop_program, backend="process"))

    def test_step_count_agreement_and_overlap_accounting(self):
        results = spmd_run(3, _single_hop_program, backend="thread")
        for _payloads, (n_supersteps, overlapped) in results:
            assert n_supersteps == 3  # max over ranks' 1..3 local steps
            assert overlapped == 2    # every step but the first overlapped

    @pytest.mark.parametrize("backend", ["thread", "process"])
    @pytest.mark.parametrize("program", [_single_hop_program])
    def test_trace_identical_to_synchronous(self, backend, program):
        split_trace, sync_trace = CommTrace(3), CommTrace(3)
        spmd_run(3, program, trace=split_trace, backend=backend)
        spmd_run(3, _blocking_program, trace=sync_trace, backend=backend)
        assert split_trace.summary() == sync_trace.summary()
        toy = split_trace.phase_traffic("toy")
        assert toy.total_bytes == _expected_toy_bytes(3)
        assert toy.collective_calls == 3
        assert split_trace.snapshot()["alltoallv_calls"] == 3
        assert sync_trace.snapshot()["alltoallv_calls"] == 3

    def test_overlapped_time_recorded_only_for_overlapped_steps(self):
        def program(comm, n_steps):
            timer = StageTimer()
            schedule = SuperstepSchedule(comm, timer, n_steps)
            schedule.run(
                lambda step: [np.zeros(4, dtype=np.int64)] * comm.size,
                lambda step, received: None,
            )
            return timer.overlapped_seconds

        assert all(t > 0.0 for t in spmd_run(2, program, 3))
        assert all(t == 0.0 for t in spmd_run(2, program, 1))

    def test_single_rank(self):
        split = spmd_run(1, _single_hop_program)
        assert [p for p, _ in split] == _expected_payloads(1)

    def test_outcome_without_steps(self):
        def program(comm):
            outcome = SuperstepSchedule(comm, StageTimer(), 0).run(
                lambda step: [], lambda step, received: None)
            return outcome

        assert spmd_run(2, program) == [ScheduleOutcome(0, 0)] * 2


def _label_mismatch_program(comm, split):
    """Ranks 0 and 1 exchange under different labels, blocking or split."""
    label = "stage_a" if comm.rank == 0 else "stage_b"
    send = [np.zeros(1, dtype=np.int64)] * comm.size
    if not split:
        comm.alltoallv(send, label=label)
        return
    schedule = SuperstepSchedule(comm, StageTimer(), 1, label=label)
    schedule.run(lambda step: send, lambda step, received: None)


class TestPhaseLabelledExchanges:
    """Colliding schedules (ranks in different phases) must raise, not mix."""

    @pytest.mark.parametrize("backend", ["thread", "process"])
    @pytest.mark.parametrize("split", [False, True])
    def test_label_mismatch_detected(self, backend, split):
        """Both entry points: a blocking ``alltoallv`` and a schedule."""
        with pytest.raises(RankFailedError) as err:
            spmd_run(2, _label_mismatch_program, split, backend=backend)
        assert isinstance(err.value.__cause__, CollectiveMismatchError)

    def test_matching_labels_pass(self):
        def program(comm):
            received = []
            schedule = SuperstepSchedule(comm, StageTimer(), 1, label="same")
            schedule.run(
                lambda step: [np.full(2, comm.rank, dtype=np.int64)] * comm.size,
                lambda step, payloads: received.extend(
                    np.asarray(p).tolist() for p in payloads),
            )
            return received

        assert spmd_run(2, program) == [[[0, 0], [1, 1]]] * 2


# ---------------------------------------------------------------------------
# Pipeline-level: many supersteps vs one, and the parity matrix
# ---------------------------------------------------------------------------

def _assert_science_identical(result, reference):
    assert result.overlap_pairs() == reference.overlap_pairs()
    table, ref_table = result.alignment_table(), reference.alignment_table()
    for column in ref_table:
        np.testing.assert_array_equal(table[column], ref_table[column])
    for r_table, f_table in zip(result.overlap_tables(),
                                reference.overlap_tables()):
        np.testing.assert_array_equal(r_table.rid_a, f_table.rid_a)
        np.testing.assert_array_equal(r_table.rid_b, f_table.rid_b)
        np.testing.assert_array_equal(r_table.seed_offsets, f_table.seed_offsets)
        np.testing.assert_array_equal(r_table.seed_pos_a, f_table.seed_pos_a)
        np.testing.assert_array_equal(r_table.seed_pos_b, f_table.seed_pos_b)


def _assert_counters_identical(result, reference):
    keys = set(result.counters) | set(reference.counters)
    for key in keys - SCHEDULE_FLAG_COUNTERS:
        assert result.counters.get(key) == reference.counters.get(key), key


@pytest.fixture(scope="module")
def streaming_config(micro_config) -> PipelineConfig:
    """Many supersteps in every streamed stage: small read batches and tiny
    pair chunks."""
    from dataclasses import replace

    return replace(micro_config, batch_reads=8, exchange_chunk_mb=0.001)


@pytest.mark.slow
class TestStageScheduleEquivalence:
    """Every streamed stage overlaps its supersteps, and the superstep count
    of the pair exchange is a schedule change only."""

    def test_all_stages_overlap_their_supersteps(self, micro_dataset,
                                                 streaming_config):
        from dataclasses import replace

        from repro.core.driver import run_dibella

        streamed = run_dibella(micro_dataset.reads, config=streaming_config,
                               n_nodes=1, ranks_per_node=3)
        # Each k-mer stage is one schedule: n supersteps, one Alltoallv call
        # each, n - 1 overlapped on each of the 3 ranks (counters are summed
        # over ranks).
        for stage in ("bloom", "hashtable"):
            calls = streamed.trace.phase_traffic(f"{stage}_exchange").collective_calls
            assert calls > 1
            assert streamed.counters[f"{stage}_steps_overlapped"] == 3 * (calls - 1)
        for stage, steps in (("bloom", "steps"), ("hashtable", "steps"),
                             ("overlap", "chunks")):
            assert streamed.counters[f"{stage}_{steps}_overlapped"] > 0
            assert streamed.stage(stage).wall_overlapped_seconds.sum() > 0.0

        # One pair-exchange superstep: same science and pair payload bytes,
        # fewer calls, nothing overlapped in the overlap stage.
        single = run_dibella(
            micro_dataset.reads,
            config=replace(streaming_config, exchange_chunk_mb=None),
            n_nodes=1, ranks_per_node=3)
        _assert_science_identical(streamed, single)
        assert (streamed.counters["overlap_payload_bytes"]
                == single.counters["overlap_payload_bytes"])
        assert single.trace.phase_traffic("overlap_exchange").collective_calls == 1
        assert single.counters["overlap_chunks_overlapped"] == 0
        assert single.stage("overlap").wall_overlapped_seconds.sum() == 0.0


@pytest.mark.slow
class TestSuperstepParityMatrix:
    """{thread, process} × {sanitizer off/on} over many supersteps:
    bit-identical tables, counters, traces and alignment results."""

    @pytest.fixture(scope="class")
    def reference(self, micro_dataset, streaming_config):
        from dataclasses import replace

        from repro.core.driver import run_dibella

        config = replace(streaming_config, backend="thread", sanitize=False)
        return run_dibella(micro_dataset.reads, config=config,
                           n_nodes=1, ranks_per_node=3)

    @pytest.mark.parametrize("backend", ["thread", "process"])
    @pytest.mark.parametrize("sanitize", [False, True])
    def test_matrix_bit_identical(self, micro_dataset, streaming_config,
                                  reference, backend, sanitize):
        from dataclasses import replace

        from repro.core.driver import run_dibella

        config = replace(streaming_config, backend=backend, sanitize=sanitize)
        result = run_dibella(micro_dataset.reads, config=config,
                             n_nodes=1, ranks_per_node=3)
        _assert_science_identical(result, reference)
        _assert_counters_identical(result, reference)
        for phase in reference.trace.phases():
            np.testing.assert_array_equal(
                result.trace.phase_traffic(phase).volume,
                reference.trace.phase_traffic(phase).volume,
            )


@pytest.mark.slow
class TestBloomStashRelease:
    """The HLL pre-pass stash is consumed and freed per superstep."""

    def test_peak_below_total_with_multiple_batches(self, micro_dataset,
                                                    micro_config):
        from dataclasses import replace

        from repro.core.driver import run_dibella

        config = replace(micro_config, batch_reads=8)
        result = run_dibella(micro_dataset.reads, config=config,
                             n_nodes=1, ranks_per_node=3)
        total = result.counters["bloom_stash_total_bytes"]
        peak = result.counters["bloom_stash_peak_bytes"]
        assert total > 0
        # The released schedule never carries the whole stash through a
        # superstep — the old whole-stage retention held `total` until the
        # stage ended.
        assert 0 < peak < total

    def test_single_batch_stash_is_fully_released(self, micro_dataset,
                                                  micro_config):
        from dataclasses import replace

        from repro.core.driver import run_dibella

        config = replace(micro_config, batch_reads=10_000)
        result = run_dibella(micro_dataset.reads, config=config,
                             n_nodes=1, ranks_per_node=3)
        assert result.counters["bloom_stash_total_bytes"] > 0
        assert result.counters["bloom_stash_peak_bytes"] == 0
