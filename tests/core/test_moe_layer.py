"""The public MoELayer: configuration resolution, equivalence across
execution modes, adaptive component wiring."""

import struct

import numpy as np
import pytest

import repro
from repro.systems.base import SystemContext
from repro.tensor import Tensor, no_grad
from tests.oracles import ColdEvaluator

from tests.conftest import make_inputs, make_layer, scalar_loss


class TestConstruction:
    def test_paper_api_flags(self):
        layer = make_layer()
        assert layer.pipeline and not layer.memory_reuse

    def test_experts_divisibility(self):
        with pytest.raises(ValueError):
            repro.MoELayer(d_model=8, d_hidden=16, num_experts=6, world_size=4)

    def test_invalid_strategy_early(self):
        with pytest.raises(KeyError):
            make_layer(strategy="S9", memory_reuse=True)

    def test_num_params_counts_gate_and_experts(self):
        layer = make_layer()
        expected = 16 * 8 + 8 * (16 * 32 + 32 + 32 * 16 + 16)
        assert layer.num_params == expected

    def test_parameters_require_grad(self):
        assert all(p.requires_grad for p in make_layer().parameters())

    def test_defaults_are_the_paper_flags(self):
        """Sec. IV-C's snippet: pipelining and memory reuse on, n and
        the strategy left to Algorithm 1 and the Eq. 10 selector."""
        layer = repro.MoELayer(d_model=8, d_hidden=16, num_experts=4, world_size=2)
        assert layer.pipeline and layer.memory_reuse
        assert layer.fixed_partitions is None and layer.fixed_strategy is None
        assert layer.candidate_partitions == (1, 2, 4, 8)

    def test_num_partitions_validated(self):
        with pytest.raises(ValueError, match="num_partitions"):
            make_layer(num_partitions=0)

    def test_candidates_sorted_and_capacity_multiple_covers_them(self):
        layer = make_layer(candidate_partitions=(4, 1, 4, 2), num_partitions=3)
        assert layer.candidate_partitions == (1, 2, 4)
        assert layer.capacity_multiple == 12  # lcm(1, 2, 4, 3)

    def test_seed_determines_every_parameter(self):
        a, b, c = make_layer(seed=3), make_layer(seed=3), make_layer(seed=4)
        for p, q in zip(a.parameters(), b.parameters()):
            np.testing.assert_array_equal(p.data, q.data)
        assert any(
            not np.array_equal(p.data, q.data)
            for p, q in zip(a.parameters(), c.parameters())
        )

    def test_experts_are_initialised_independently(self):
        layer = make_layer()
        weights = [e.w1.data for row in layer.experts for e in row]
        assert len(weights) == 8
        for i, w in enumerate(weights):
            for other in weights[i + 1:]:
                assert not np.allclose(w, other)


class TestConfigure:
    def test_pinned_everything(self):
        layer = make_layer(memory_reuse=True, num_partitions=4, strategy="S2")
        n, strat = layer.configure(32)
        assert (n, strat.name) == (4, "S2")

    def test_no_pipeline_forces_n1_none(self):
        layer = make_layer(pipeline=False, memory_reuse=True, num_partitions=None)
        n, strat = layer.configure(32)
        assert (n, strat.name) == (1, "none")

    def test_adaptive_n_uses_algorithm1(self):
        layer = make_layer(num_partitions=None, candidate_partitions=(1, 2, 4))
        n, _ = layer.configure(64)
        assert n in (1, 2, 4)
        assert layer.granularity_searcher.stats.searches == 1
        layer.configure(64)  # cache hit
        assert layer.granularity_searcher.stats.cache_hits == 1

    def test_adaptive_strategy_uses_selector(self):
        layer = make_layer(memory_reuse=True, num_partitions=4, strategy=None)
        _, strat = layer.configure(64)
        assert strat.name in ("S1", "S2", "S3", "S4")
        assert layer.last_selection is not None
        assert layer.last_selection.strategy.name == strat.name

    def test_reuse_disabled_at_n1(self):
        layer = make_layer(memory_reuse=True, num_partitions=1)
        _, strat = layer.configure(32)
        assert strat.name == "none"


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


def selection_bits(selector, batch: int, n: int):
    try:
        result = selector.select(batch, n)
    except MemoryError:
        return "oom"
    return (
        result.strategy.name, bits(result.cost), result.memory_bytes,
        sorted((name, bits(cost)) for name, cost in result.costs.items()),
    )


class TestTimingPath:
    """The adaptive components price through the layer's evaluator: the
    seed path (a fresh Op DAG and a recorded event-loop run per trial,
    an unmemoized selector) gives the same bits."""

    @pytest.mark.parametrize("world_size", [2, 8])
    def test_trials_and_selection_match_the_cold_path(self, world_size):
        layer = repro.MoELayer(
            d_model=128, d_hidden=512, num_experts=16, world_size=world_size,
            memory_reuse=True, candidate_partitions=(1, 2, 4, 8, 16),
            dtype=np.float32,
        )
        cold = ColdEvaluator(
            SystemContext(layer.cluster, layer.device, world_size)
        )
        workload = layer.timing_workload
        cold_selector = cold.build_selector(layer.spec, workload)
        for batch in (256, 4096, 65536, 1 << 20):
            for n in layer.candidate_partitions:
                trial = layer.granularity_searcher.evaluate(batch, n)
                seed = cold.makespan(layer.spec, batch, n, "none", workload=workload)
                assert bits(trial) == bits(seed), (batch, n)
                if n >= 2:
                    assert selection_bits(
                        layer.strategy_selector, batch, n
                    ) == selection_bits(cold_selector, batch, n), (batch, n)


class TestForward:
    def test_output_shapes(self):
        layer = make_layer()
        out = layer.forward(make_inputs(layer, batch=12))
        assert len(out.outputs) == 4
        assert all(o.shape == (12, 16) for o in out.outputs)

    def test_input_validation(self):
        layer = make_layer()
        xs = make_inputs(layer)
        with pytest.raises(ValueError):
            layer.forward(xs[:-1])
        bad = xs[:3] + [Tensor(np.zeros((5, 16)))]
        with pytest.raises(ValueError):
            layer.forward(bad)
        with pytest.raises(ValueError):
            layer.forward([Tensor(np.zeros((12, 17)))] * 4)

    def test_capacity_padded_to_lcm(self):
        layer = make_layer(candidate_partitions=(1, 2, 4), num_partitions=None)
        out = layer.forward(make_inputs(layer, batch=10))
        assert out.capacity % 4 == 0

    def test_gate_and_expert_grads_populated(self):
        layer = make_layer(memory_reuse=True, num_partitions=2, strategy="S3")
        xs = make_inputs(layer)
        out = layer.forward(xs)
        scalar_loss(out.outputs, out.aux_loss).backward()
        assert layer.gate.wg.grad is not None
        assert all(
            e.w1.grad is not None for row in layer.experts for e in row
        )

    def test_inference_under_no_grad(self):
        layer = make_layer(memory_reuse=True, num_partitions=2, strategy="S1")
        xs = make_inputs(layer, requires_grad=False)
        with no_grad():
            out = layer.forward(xs)
        assert not out.outputs[0].requires_grad
        assert len(layer.host_pool) == 0  # context discarded

    def test_world_size_one(self):
        layer = repro.MoELayer(
            d_model=8, d_hidden=16, num_experts=4, world_size=1,
            pipeline=True, memory_reuse=False, num_partitions=2, seed=0,
        )
        x = Tensor(np.random.default_rng(0).standard_normal((8, 8)),
                   requires_grad=True)
        out = layer.forward([x])
        scalar_loss(out.outputs).backward()
        assert x.grad is not None

    def test_zero_grad_clears_every_parameter(self):
        layer = make_layer(memory_reuse=True, num_partitions=2, strategy="S4")
        out = layer.forward(make_inputs(layer))
        scalar_loss(out.outputs, out.aux_loss).backward()
        layer.zero_grad()
        assert all(p.grad is None for p in layer.parameters())

    def test_dropped_tokens_get_zero_outputs(self):
        """A token over its expert's capacity skips the middle section:
        through the exchanges and the reuse ring its row stays zero."""
        layer = make_layer(capacity_factor=0.25, candidate_partitions=(1, 2),
                           memory_reuse=True, num_partitions=2, strategy="S4")
        out = layer.forward(make_inputs(layer, batch=32))
        assert out.dropped_tokens > 0
        for plan, o in zip(out.plans, out.outputs):
            kept = set(plan.token_ids.tolist())
            dropped = [t for t in range(32) if t not in kept]
            assert len(dropped) == plan.dropped
            np.testing.assert_array_equal(o.data[dropped], 0.0)
            assert np.all(np.any(o.data[sorted(kept)] != 0.0, axis=1))

    def test_drops_do_not_depend_on_the_granularity(self):
        """Capacity is padded to every candidate n, so the same tokens
        drop and the outputs agree whichever n runs."""
        runs = []
        for n in (1, 2, 4):
            layer = make_layer(capacity_factor=0.25,
                               candidate_partitions=(1, 2, 4), num_partitions=n)
            runs.append(layer.forward(make_inputs(layer, batch=32)))
        first = runs[0]
        assert first.dropped_tokens > 0
        for out in runs[1:]:
            assert out.capacity == first.capacity
            assert out.dropped_tokens == first.dropped_tokens
            for got, want in zip(out.outputs, first.outputs):
                np.testing.assert_allclose(got.data, want.data, atol=1e-12)

    def test_top_k2_runs(self):
        layer = make_layer(top_k=2, memory_reuse=False)
        out = layer.forward(make_inputs(layer))
        assert out.outputs[0].shape == (12, 16)


class TestModeEquivalence:
    """The library's core guarantee, as a user-facing contract."""

    @pytest.fixture(scope="class")
    def reference(self):
        layer = make_layer(pipeline=False, seed=42)
        xs = make_inputs(layer, seed=9)
        out = layer.forward(xs)
        scalar_loss(out.outputs, out.aux_loss).backward()
        return {
            "outputs": [o.data.copy() for o in out.outputs],
            "grads": [p.grad.copy() for p in layer.parameters()],
            "xgrads": [x.grad.copy() for x in xs],
        }

    @pytest.mark.parametrize(
        "kw",
        [
            dict(pipeline=True, memory_reuse=False, num_partitions=2),
            dict(pipeline=True, memory_reuse=False, num_partitions=8),
            dict(pipeline=True, memory_reuse=True, num_partitions=2, strategy="S1"),
            dict(pipeline=True, memory_reuse=True, num_partitions=4, strategy="S2"),
            dict(pipeline=True, memory_reuse=True, num_partitions=4, strategy="S3"),
            dict(pipeline=True, memory_reuse=True, num_partitions=8, strategy="S4"),
            dict(pipeline=True, memory_reuse=True, num_partitions=None, strategy=None),
        ],
    )
    def test_all_modes_match_reference(self, reference, kw):
        layer = make_layer(seed=42, **kw)
        xs = make_inputs(layer, seed=9)
        out = layer.forward(xs)
        scalar_loss(out.outputs, out.aux_loss).backward()
        for got, want in zip(out.outputs, reference["outputs"]):
            np.testing.assert_allclose(got.data, want, atol=1e-10)
        for got, want in zip(layer.parameters(), reference["grads"]):
            np.testing.assert_allclose(got.grad, want, atol=1e-10)
        for got, want in zip(xs, reference["xgrads"]):
            np.testing.assert_allclose(got.grad, want, atol=1e-10)

    def test_topk_equals_batch_scaling_claim(self):
        """Sec. IV-A: 'increasing k is an equivalence of increasing B' —
        k=2 routes 2B token-choices, matching the dispatch volume of a
        k=1 layer with doubled batch."""
        layer_k2 = make_layer(top_k=2, memory_reuse=False)
        out_k2 = layer_k2.forward(make_inputs(layer_k2, batch=12))
        layer_k1 = make_layer(top_k=1, memory_reuse=False)
        out_k1 = layer_k1.forward(make_inputs(layer_k1, batch=24))
        assert out_k2.capacity == out_k1.capacity
