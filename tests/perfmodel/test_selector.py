"""Strategy selection against Eq. 10 + capacity constraints."""

import pytest

from repro.comm.cost import NcclCostModel
from repro.config import DGX_A100_CLUSTER, MOE_GPT3_XL
from repro.hardware.device import A100_SXM_40GB
from repro.hardware.topology import ClusterTopology
from repro.memory.footprint import FootprintModel
from repro.memory.strategies import STRATEGIES
from repro.perfmodel.cost import HardwareRates, PerfModel
from repro.perfmodel.selector import StrategySelector


def make_selector(world=64, capacity=None):
    topo = ClusterTopology(DGX_A100_CLUSTER)
    comm = NcclCostModel(topo, world)
    rates = HardwareRates.from_cluster(A100_SXM_40GB, comm)
    return StrategySelector(
        PerfModel(MOE_GPT3_XL, rates),
        footprint=FootprintModel(MOE_GPT3_XL, world),
        device_capacity=capacity,
    )


class TestSelection:
    def test_selected_is_argmin(self):
        sel = make_selector()
        res = sel.select(8192, 4)
        feasible = {k: v for k, v in res.costs.items() if k != "none"}
        assert res.cost == min(feasible.values())
        assert res.strategy.name in feasible

    def test_none_excluded_by_default(self):
        res = make_selector().select(8192, 4)
        assert res.strategy.name != "none"
        assert "none" not in res.costs

    def test_memory_constraint_changes_choice(self):
        """When 'none' does not fit, a reuse strategy must be selected."""
        sel = make_selector()
        none_bytes = sel.memory_bytes(STRATEGIES["none"], 16384, 8)
        reuse_bytes = sel.memory_bytes(STRATEGIES["S4"], 16384, 8)
        assert reuse_bytes < none_bytes
        tight = make_selector(capacity=(none_bytes + reuse_bytes) // 2)
        res = tight.select(16384, 8)
        assert res.strategy.reuses_memory

    def test_nothing_fits_raises(self):
        tiny = make_selector(capacity=1)
        with pytest.raises(MemoryError):
            tiny.select(16384, 8)

    def test_n1_cannot_reuse(self):
        sel = make_selector()
        with pytest.raises(MemoryError):
            sel.select(8192, 1)  # no reuse strategy valid at n=1

    def test_memory_bytes_without_footprint(self):
        topo = ClusterTopology(DGX_A100_CLUSTER)
        rates = HardwareRates.from_cluster(A100_SXM_40GB, NcclCostModel(topo, 8))
        sel = StrategySelector(PerfModel(MOE_GPT3_XL, rates))
        assert sel.memory_bytes(STRATEGIES["S1"], 4096, 4) == 0
        assert sel.fits(STRATEGIES["S1"], 4096, 4)


class TestWorldSizeSensitivity:
    def test_comm_heavy_worlds_avoid_s2(self):
        """Fig. 13: at large N communication dominates, so strategies
        adding comm + PCIe traffic (S2) lose to recompute-based ones."""
        sel = make_selector(world=64)
        res = sel.select(16384, 4)
        costs = res.costs
        assert costs["S2"] >= costs["S4"]

    def test_selection_cost_consistency(self):
        sel = make_selector(world=8)
        res = sel.select(8192, 4)
        # Reported cost equals the model's cost for that strategy.
        direct = sel.perf_model.iteration_cost(res.strategy, 8192, 4)
        assert res.cost == pytest.approx(direct)
