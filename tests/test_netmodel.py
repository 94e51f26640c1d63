"""Unit tests for repro.netmodel (platforms, cost model, projection)."""

import numpy as np
import pytest

from repro.mpisim.topology import Topology
from repro.mpisim.tracing import CommTrace, PhaseTraffic
from repro.netmodel.costmodel import ComputeCostModel, CostModel, ExchangeCostModel
from repro.netmodel.platform import PLATFORMS, get_platform, table1_rows
from repro.netmodel.projection import project_pipeline, project_stage


class TestPlatforms:
    def test_registry_contents(self):
        assert list(PLATFORMS) == ["cori", "edison", "titan", "aws"]
        cori = get_platform("cori")
        # Table 1 values.
        assert cori.cores_per_node == 32
        assert cori.freq_ghz == 2.3
        assert cori.bw_node_mbps == 113.0
        assert get_platform("edison").cores_per_node == 24
        assert get_platform("titan").cores_per_node == 16

    def test_case_insensitive_and_unknown(self):
        assert get_platform("CORI") is get_platform("cori")
        with pytest.raises(KeyError):
            get_platform("summit")

    def test_node_compute_power_ordering(self):
        # Cori > Edison > Titan ~ AWS, as the paper's single-node rates show.
        power = {k: p.node_compute_power for k, p in PLATFORMS.items()}
        assert power["cori"] > power["edison"] > power["titan"]
        assert abs(power["titan"] - power["aws"]) / power["titan"] < 0.25

    def test_table1_rows(self):
        rows = table1_rows()
        assert len(rows) == 4
        assert {"platform", "cores_per_node", "bw_node_mbps"} <= set(rows[0])


class _FakeStage:
    """Minimal stage record for projection tests."""

    def __init__(self, name, work, items, phases, first=False, work_unit="generic"):
        self.name = name
        self.items = items
        self.work_unit = work_unit
        self.work_per_rank = np.asarray(work, dtype=np.float64)
        self.local_bytes_per_rank = np.full(len(work), 1e9)
        self.exchange_phases = phases
        self.includes_first_alltoallv = first


class TestComputeModel:
    def test_more_nodes_is_faster(self):
        model = ComputeCostModel()
        platform = get_platform("cori")
        total_work = 8e7  # same workload strong-scaled over 2 vs 8 nodes
        t2 = model.compute_time(np.full(2, total_work / 2), "generic", platform,
                                Topology(2, 1), local_bytes_per_rank=np.full(2, 1e9))
        t8 = model.compute_time(np.full(8, total_work / 8), "generic", platform,
                                Topology(8, 1), local_bytes_per_rank=np.full(8, 1e9))
        assert t8 < t2

    def test_imbalance_raises_time(self):
        model = ComputeCostModel()
        platform = get_platform("cori")
        balanced = model.compute_time(np.array([1e6, 1e6]), "generic", platform,
                                      Topology(2, 1), np.full(2, 1e9))
        skewed = model.compute_time(np.array([2e6, 0.0]), "generic", platform,
                                    Topology(2, 1), np.full(2, 1e9))
        assert skewed > balanced

    def test_cache_factor_superlinear(self):
        model = ComputeCostModel()
        platform = get_platform("cori")
        assert model.cache_factor(1e5, platform) > model.cache_factor(1e10, platform)
        assert model.cache_factor(1e10, platform) == pytest.approx(1.0)

    def test_faster_platform_is_faster(self):
        model = ComputeCostModel()
        work = np.full(4, 1e7)
        topo = Topology(4, 1)
        t_cori = model.compute_time(work, "generic", get_platform("cori"), topo)
        t_titan = model.compute_time(work, "generic", get_platform("titan"), topo)
        assert t_cori < t_titan

    def test_work_scale_linear(self):
        model = ComputeCostModel()
        platform = get_platform("edison")
        work = np.full(4, 1e6)
        topo = Topology(4, 1)
        base = model.compute_time(work, "generic", platform, topo)
        scaled = model.compute_time(work, "generic", platform, topo, work_scale=10.0)
        assert scaled == pytest.approx(10 * base)

    def test_zero_work(self):
        model = ComputeCostModel()
        assert model.compute_time(np.zeros(2), "generic", get_platform("aws"),
                                  Topology(2, 1)) == 0.0

    def test_shape_mismatch(self):
        model = ComputeCostModel()
        with pytest.raises(ValueError):
            model.compute_time(np.zeros(3), "generic", get_platform("aws"), Topology(2, 1))


class TestExchangeModel:
    def _traffic(self, n_ranks, volume):
        traffic = PhaseTraffic(n_ranks=n_ranks)
        traffic.volume[:] = volume
        traffic.messages[:] = (np.asarray(volume) > 0).astype(np.int64)
        traffic.collective_calls = 1
        return traffic

    def test_offnode_charged_at_network_rate(self):
        model = ExchangeCostModel()
        platform = get_platform("titan")
        # Two nodes, one rank each; 100 MB crossing between them.
        volume = np.array([[0, 100e6], [100e6, 0]])
        t = model.exchange_time(self._traffic(2, volume), platform, Topology(2, 1))
        expected_volume_term = 100e6 / (platform.effective_alltoall_bw_mbps * 1e6)
        assert t >= expected_volume_term

    def test_intranode_much_cheaper_than_offnode(self):
        model = ExchangeCostModel()
        platform = get_platform("cori")
        volume = np.array([[0, 50e6], [50e6, 0]])
        same_node = model.exchange_time(self._traffic(2, volume), platform, Topology(1, 2))
        cross_node = model.exchange_time(self._traffic(2, volume), platform, Topology(2, 1))
        assert same_node < cross_node

    def test_first_alltoallv_penalty(self):
        model = ExchangeCostModel()
        platform = get_platform("cori")
        volume = np.array([[0, 10e6], [10e6, 0]])
        base = model.exchange_time(self._traffic(2, volume), platform, Topology(2, 1))
        with_penalty = model.exchange_time(self._traffic(2, volume), platform,
                                           Topology(2, 1), includes_first_alltoallv=True)
        assert with_penalty > base

    def test_empty_traffic_is_free(self):
        model = ExchangeCostModel()
        assert model.exchange_time(PhaseTraffic(n_ranks=2), get_platform("aws"),
                                   Topology(2, 1)) == 0.0

    def test_aws_slower_than_cori(self):
        model = ExchangeCostModel()
        volume = np.array([[0, 50e6], [50e6, 0]])
        t_cori = model.exchange_time(self._traffic(2, volume), get_platform("cori"),
                                     Topology(2, 1))
        t_aws = model.exchange_time(self._traffic(2, volume), get_platform("aws"),
                                    Topology(2, 1))
        assert t_aws > t_cori

    def test_shape_mismatch(self):
        model = ExchangeCostModel()
        with pytest.raises(ValueError):
            model.exchange_time(PhaseTraffic(n_ranks=3), get_platform("aws"), Topology(2, 1))


class TestProjection:
    def _setup(self):
        topo = Topology(2, 1)
        trace = CommTrace(2)
        trace.set_phase(0, "phase_a")
        trace.set_phase(1, "phase_a")
        trace.record_send(0, [0, 1_000_000])
        trace.record_send(1, [1_000_000, 0])
        trace.record_collective_call("phase_a")
        stages = [
            _FakeStage("stage1", [1e6, 1e6], items=2_000_000, phases=["phase_a"], first=True),
            _FakeStage("stage2", [5e5, 5e5], items=1_000_000, phases=["missing_phase"]),
        ]
        return stages, trace, topo

    def test_project_pipeline_structure(self):
        stages, trace, topo = self._setup()
        projection = project_pipeline(stages, trace, get_platform("cori"), topo,
                                      platform_key="cori")
        assert projection.platform == "cori"
        assert [s.stage for s in projection.stages] == ["stage1", "stage2"]
        assert projection.total_seconds > 0
        assert projection.stage("stage1").exchange_seconds > 0
        # The missing phase contributes no exchange time.
        assert projection.stage("stage2").exchange_seconds == 0.0
        with pytest.raises(KeyError):
            projection.stage("nope")

    def test_breakdown_sums_to_100(self):
        stages, trace, topo = self._setup()
        projection = project_pipeline(stages, trace, get_platform("aws"), topo)
        breakdown = projection.breakdown()
        total_pct = sum(v["compute_pct"] + v["exchange_pct"] for v in breakdown.values())
        assert total_pct == pytest.approx(100.0)

    def test_scale_extrapolation(self):
        stages, trace, topo = self._setup()
        base = project_stage(stages[0], trace, get_platform("cori"), topo)
        scaled = project_stage(stages[0], trace, get_platform("cori"), topo, scale=100.0)
        assert scaled.compute_seconds == pytest.approx(100 * base.compute_seconds)
        assert scaled.items == 100 * base.items
        # Throughput stays in the same ballpark (latency terms are not scaled).
        assert (scaled.items / scaled.total_seconds
                >= base.items / base.total_seconds)

    def test_model_bundle_defaults(self):
        model = CostModel()
        assert isinstance(model.compute, ComputeCostModel)
        assert isinstance(model.exchange, ExchangeCostModel)
