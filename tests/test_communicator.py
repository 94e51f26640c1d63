"""Unit tests for the simulated SPMD runtime (communicator + launcher)."""

import numpy as np
import pytest

from repro.mpisim.collectives import bucket_by_destination, payload_nbytes
from repro.mpisim.errors import CollectiveMismatchError, RankFailedError
from repro.mpisim.runtime import spmd_run
from repro.mpisim.tracing import CommTrace


class TestPayloadSizing:
    def test_numpy(self):
        assert payload_nbytes(np.zeros(10, dtype=np.int64)) == 80

    def test_strings_and_bytes(self):
        assert payload_nbytes("hello") == 5
        assert payload_nbytes(b"abc") == 3

    def test_none_is_free(self):
        assert payload_nbytes(None) == 0

    def test_scalars(self):
        assert payload_nbytes(7) == 8
        assert payload_nbytes(3.5) == 8

    def test_containers_are_monotone(self):
        small = payload_nbytes([1, 2])
        big = payload_nbytes([1, 2, 3, 4, 5])
        assert big > small

    def test_dict(self):
        assert payload_nbytes({"a": 1}) > 0


class TestBucketing:
    def test_bucket_1d(self):
        values = np.array([10, 20, 30, 40])
        dests = np.array([1, 0, 1, 0])
        buckets = bucket_by_destination(values, dests, 2)
        np.testing.assert_array_equal(buckets[0], [20, 40])
        np.testing.assert_array_equal(buckets[1], [10, 30])

    def test_bucket_2d_preserves_rows(self):
        values = np.arange(12).reshape(4, 3)
        dests = np.array([2, 0, 2, 1])
        buckets = bucket_by_destination(values, dests, 3)
        np.testing.assert_array_equal(buckets[2], values[[0, 2]])

    def test_bucket_all_rows_covered(self):
        rng = np.random.default_rng(0)
        values = rng.integers(0, 100, size=50)
        dests = rng.integers(0, 4, size=50)
        buckets = bucket_by_destination(values, dests, 4)
        assert sum(b.size for b in buckets) == 50

    def test_bucket_invalid(self):
        with pytest.raises(ValueError):
            bucket_by_destination(np.arange(3), np.array([0, 5, 1]), 2)
        with pytest.raises(ValueError):
            bucket_by_destination(np.arange(3), np.array([0, 1]), 2)


class TestCollectives:
    def test_allreduce_sum_and_max(self):
        def program(comm):
            return comm.allreduce(comm.rank + 1, op="sum"), comm.allreduce(comm.rank, op="max")

        results = spmd_run(4, program)
        assert all(r == (10, 3) for r in results)

    def test_allgather(self):
        # Every rank's value to every rank: MPI_Allgather's case.
        def program(comm):
            return comm.alltoallv([comm.rank] * comm.size)

        assert spmd_run(3, program) == [[0, 1, 2]] * 3

    def test_alltoall(self):
        # One object payload per destination: MPI_Alltoall's case.
        def program(comm):
            send = [f"{comm.rank}->{d}" for d in range(comm.size)]
            return comm.alltoallv(send)

        results = spmd_run(3, program)
        assert results[1] == ["0->1", "1->1", "2->1"]

    def test_alltoallv_transposes_payloads(self):
        def program(comm):
            send = [np.full(comm.rank + 1, d, dtype=np.int64) for d in range(comm.size)]
            received = comm.alltoallv(send)
            # Received chunk from source s has length s+1 and is filled with my rank.
            assert all(received[s].size == s + 1 for s in range(comm.size))
            assert all((received[s] == comm.rank).all() for s in range(comm.size))
            return sum(r.size for r in received)

        results = spmd_run(4, program)
        assert results == [10, 10, 10, 10]

    def test_alltoallv_wrong_length(self):
        def program(comm):
            return comm.alltoallv([None])  # wrong number of payloads

        with pytest.raises(RankFailedError):
            spmd_run(2, program)

    def test_single_rank_fast_path(self):
        def program(comm):
            return comm.allreduce(41) + 1

        assert spmd_run(1, program) == [42]


class TestErrorHandling:
    def test_rank_exception_propagates(self):
        def program(comm):
            if comm.rank == 1:
                raise RuntimeError("boom")
            comm.allreduce(0)  # would deadlock without abort handling
            return comm.rank

        with pytest.raises(RankFailedError, match="rank 1"):
            spmd_run(3, program)

    def test_collective_mismatch_detected(self):
        def program(comm):
            if comm.rank == 0:
                comm.allreduce(1, op="max")
            else:
                comm.allreduce(1)
            return None

        with pytest.raises(RankFailedError) as err:
            spmd_run(2, program)
        assert isinstance(err.value.__cause__, CollectiveMismatchError)

    def test_unknown_reduction(self):
        def program(comm):
            return comm.allreduce(1, op="median")

        with pytest.raises(RankFailedError):
            spmd_run(2, program)

    def test_n_ranks_validation(self):
        with pytest.raises(ValueError):
            spmd_run(0, lambda comm: None)


class TestTracingIntegration:
    def test_alltoallv_bytes_recorded(self):
        trace = CommTrace(2)

        def program(comm):
            comm.set_phase("test_phase")
            send = [np.zeros(10, dtype=np.int64), np.zeros(5, dtype=np.int64)]
            comm.alltoallv(send)
            return None

        spmd_run(2, program, trace=trace)
        traffic = trace.phase_traffic("test_phase")
        # Each rank sends 80 bytes to rank 0 and 40 bytes to rank 1.
        assert traffic.volume[0, 0] == 80
        assert traffic.volume[0, 1] == 40
        assert traffic.volume[1, 1] == 40
        assert traffic.collective_calls == 1

    def test_results_in_rank_order(self):
        results = spmd_run(6, lambda comm: comm.rank ** 2)
        assert results == [0, 1, 4, 9, 16, 25]
