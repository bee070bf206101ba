"""Property: "increasing k is an equivalence of increasing B" (Sec. IV-A).

Under uniform routing a top-k workload routes B*k dispatch rows, exactly
what a k=1 workload at batch B*k routes — so the perf model must price
the two identically, to the last bit, in every pricing layer: the stage
costs, the simulated makespan (warm and cold evaluator paths), and the
closed-form Eq. 10 iteration cost.
"""

import pytest

from repro.comm.cost import NcclCostModel
from repro.config import DGX_A100_CLUSTER, MOE_GPT3_S, MOE_GPT3_XL
from repro.hardware.device import A100_SXM_40GB
from repro.hardware.topology import ClusterTopology
from repro.memory.strategies import STRATEGIES
from repro.perfmodel.cost import HardwareRates, PerfModel
from repro.perfmodel.workload import WorkloadSpec
from repro.pipeline.schedule import MoEStageCosts
from repro.systems.base import SystemContext
from tests.oracles import ColdEvaluator

BATCHES = (1024, 4096, 16384, 16383)  # include a non-divisible point
KS = (2, 4)


class TestTopKEqualsBatchScaling:
    @pytest.mark.parametrize("spec", [MOE_GPT3_S, MOE_GPT3_XL],
                             ids=lambda s: s.name)
    def test_stage_costs_match(self, spec):
        comm = NcclCostModel(ClusterTopology(DGX_A100_CLUSTER), 64)
        for batch in BATCHES:
            for k in KS:
                at_k = MoEStageCosts.compute(
                    spec, batch, 4, A100_SXM_40GB, comm,
                    workload=WorkloadSpec(top_k=k),
                )
                at_kb = MoEStageCosts.compute(
                    spec, batch * k, 4, A100_SXM_40GB, comm,
                    workload=WorkloadSpec(top_k=1),
                )
                assert at_k == at_kb, (spec.name, batch, k)

    def test_makespans_match_in_warm_and_cold_paths(self):
        ctx = SystemContext(world_size=64)
        cold = SystemContext(world_size=64)
        cold.evaluator = ColdEvaluator(cold)
        for evaluator in (ctx.evaluator, cold.evaluator):
            for strategy in ("none", "S1", "S4"):
                for batch in (4096, 16383):
                    a = evaluator.makespan(
                        MOE_GPT3_XL, batch, 4, strategy,
                        workload=WorkloadSpec(top_k=2),
                    )
                    b = evaluator.makespan(
                        MOE_GPT3_XL, 2 * batch, 4, strategy,
                        workload=WorkloadSpec(top_k=1),
                    )
                    assert a == b, (strategy, batch, type(evaluator).__name__)

    def test_eq10_iteration_costs_match(self):
        comm = NcclCostModel(ClusterTopology(DGX_A100_CLUSTER), 64)
        rates = HardwareRates.from_cluster(A100_SXM_40GB, comm)
        k2 = PerfModel(MOE_GPT3_XL, rates, workload=WorkloadSpec(top_k=2),
                       world_size=64)
        k1 = PerfModel(MOE_GPT3_XL, rates, workload=WorkloadSpec(top_k=1),
                       world_size=64)
        for name, strategy in STRATEGIES.items():
            for batch in BATCHES:
                assert k2.iteration_cost(strategy, batch, 4) == \
                    k1.iteration_cost(strategy, 2 * batch, 4), (name, batch)

    def test_holds_through_the_sweep_axes(self):
        """End to end: a top_k=2 timeline scenario prices exactly like
        the doubled-batch k=1 scenario (workload-neutral otherwise)."""
        from repro.sweep import Scenario, evaluate_timeline

        base = dict(system="timeline", spec="GPT-XL", world_size=64, n=4,
                    strategy="S1")
        at_k2 = evaluate_timeline(Scenario(**base, batch=8192, top_k=2))
        at_2b = evaluate_timeline(Scenario(**base, batch=16384, top_k=1))
        assert at_k2["makespan"] == at_2b["makespan"]

    def test_equivalence_needs_uniform_routing(self):
        """The paper's claim is for balanced gating: skew breaks it."""
        ctx = SystemContext(world_size=64)
        a = ctx.evaluator.makespan(
            MOE_GPT3_XL, 8192, 4, "none",
            workload=WorkloadSpec(top_k=2, imbalance=4.0),
        )
        b = ctx.evaluator.makespan(
            MOE_GPT3_XL, 16384, 4, "none",
            workload=WorkloadSpec(top_k=1),
        )
        assert a > b
