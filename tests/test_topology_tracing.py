"""Unit tests for repro.mpisim.topology and repro.mpisim.tracing."""

import numpy as np
import pytest

from repro.mpisim.topology import Topology
from repro.mpisim.tracing import CommTrace, PhaseTraffic


class TestTopology:
    def test_basic(self):
        topo = Topology(n_nodes=4, ranks_per_node=8)
        assert topo.n_ranks == 32
        assert topo.node_of(0) == 0
        assert topo.node_of(7) == 0
        assert topo.node_of(8) == 1
        assert topo.node_of(31) == 3

    def test_ranks_on_node(self):
        topo = Topology(n_nodes=2, ranks_per_node=3)
        assert list(topo.ranks_on_node(1)) == [3, 4, 5]

    def test_same_node(self):
        topo = Topology(n_nodes=2, ranks_per_node=2)
        assert topo.same_node(0, 1)
        assert not topo.same_node(1, 2)

    def test_internode_mask(self):
        topo = Topology(n_nodes=2, ranks_per_node=2)
        mask = topo.internode_mask()
        assert mask.shape == (4, 4)
        assert not mask[0, 1]
        assert mask[0, 2]

    def test_single_node_constructor(self):
        topo = Topology.single_node(6)
        assert topo.n_nodes == 1
        assert topo.n_ranks == 6

    def test_validation(self):
        with pytest.raises(ValueError):
            Topology(n_nodes=0, ranks_per_node=1)
        topo = Topology(n_nodes=1, ranks_per_node=2)
        with pytest.raises(ValueError):
            topo.node_of(5)
        with pytest.raises(ValueError):
            topo.ranks_on_node(3)


class TestPhaseTraffic:
    def test_accumulators(self):
        traffic = PhaseTraffic(n_ranks=3)
        traffic.volume[0, 1] = 100
        traffic.volume[1, 2] = 50
        assert traffic.total_bytes == 150
        np.testing.assert_array_equal(traffic.per_rank_sent(), [100, 50, 0])
        np.testing.assert_array_equal(traffic.per_rank_received(), [0, 100, 50])


class TestCommTrace:
    def test_record_and_summarise(self):
        trace = CommTrace(n_ranks=2)
        trace.set_phase(0, "alpha")
        trace.set_phase(1, "alpha")
        trace.record_send(0, [0, 10])
        trace.record_send(1, [20, 0])
        traffic = trace.phase_traffic("alpha")
        assert traffic.total_bytes == 30
        assert traffic.volume[0, 1] == 10
        assert traffic.volume[1, 0] == 20
        assert trace.total_bytes() == 30

    def test_phases_are_separate(self):
        trace = CommTrace(n_ranks=2)
        trace.set_phase(0, "a")
        trace.record_send(0, [0, 1])
        trace.set_phase(0, "b")
        trace.record_send(0, [0, 2])
        assert trace.phase_traffic("a").total_bytes == 1
        assert trace.phase_traffic("b").total_bytes == 2
        assert trace.phases() == ["a", "b"]

    def test_default_phase(self):
        trace = CommTrace(n_ranks=2)
        trace.record_send(0, [0, 5])
        assert trace.phase_traffic("default").total_bytes == 5

    def test_wrong_shape_rejected(self):
        trace = CommTrace(n_ranks=2)
        with pytest.raises(ValueError):
            trace.record_send(0, [1, 2, 3])

    def test_alltoallv_counter(self):
        trace = CommTrace(n_ranks=2)
        assert trace.record_alltoallv_call() == 1
        assert trace.record_alltoallv_call() == 2

    def test_collective_call_counter(self):
        trace = CommTrace(n_ranks=2)
        trace.record_collective_call("x")
        trace.record_collective_call("x")
        assert trace.phase_traffic("x").collective_calls == 2

    def test_summary(self):
        trace = CommTrace(n_ranks=2)
        trace.set_phase(0, "p")
        trace.record_send(0, [0, 7])
        summary = trace.summary()
        assert summary["p"]["total_bytes"] == 7.0
        assert summary["p"]["total_messages"] == 1.0
