"""Heterogeneous capability maps: specs, rank profiles, stragglers."""

import pytest

from repro.config import ClusterSpec, DGX_A100_CLUSTER
from repro.hardware.device import A100_SXM_40GB, V100_SXM_32GB
from repro.hardware.hetero import (
    DeviceRates,
    HeteroClusterSpec,
    STRAGGLER_KINDS,
    StragglerModel,
    UNIT_RATES,
    distinct_profiles,
)


def sim_profiles(spec, world=None):
    """The distinct (comp, mem) profiles a context runs the timeline at."""
    return distinct_profiles(spec.rank_profiles(world))


class TestDeviceRates:
    def test_unit_detection_and_tuple_order(self):
        assert UNIT_RATES.is_unit
        assert not DeviceRates(comp=0.5).is_unit
        # Tuple order must match engine kind indices (comp, comm, mem).
        assert DeviceRates(comp=0.1, comm=0.2, mem=0.3).as_tuple() == (0.1, 0.2, 0.3)

    def test_compose_multiplies(self):
        a = DeviceRates(comp=0.5, mem=0.8)
        b = DeviceRates(comm=0.25)
        c = a.compose(b)
        assert c == DeviceRates(comp=0.5, comm=0.25, mem=0.8)
        assert a.compose(UNIT_RATES) is a

    @pytest.mark.parametrize("kwargs", [{"comp": 0.0}, {"comm": -1.0}, {"mem": 0.0}])
    def test_positive_validation(self, kwargs):
        with pytest.raises(ValueError):
            DeviceRates(**kwargs)

    def test_unit_composes_to_the_other_side(self):
        slow = DeviceRates(comp=0.5)
        assert UNIT_RATES.compose(slow) is slow
        # Multipliers above 1.0 (a faster device) compose like any other.
        assert DeviceRates(comp=2.0).compose(slow).is_unit


class TestDistinctProfiles:
    def test_first_seen_order(self):
        slow, slower = DeviceRates(comp=0.5), DeviceRates(comp=0.25)
        profiles = (slower, UNIT_RATES, slow, slower, UNIT_RATES)
        assert distinct_profiles(profiles) == (slower, UNIT_RATES, slow)

    def test_all_unit_collapses_to_empty(self):
        assert distinct_profiles((UNIT_RATES,) * 4) == ()
        # Equal by value, not by identity.
        assert distinct_profiles((DeviceRates(), DeviceRates(1.0, 1.0, 1.0))) == ()

    def test_unit_is_kept_beside_a_slow_profile(self):
        slow = DeviceRates(mem=0.5)
        assert distinct_profiles((UNIT_RATES, slow)) == (UNIT_RATES, slow)


class TestHeteroClusterSpec:
    def test_degenerate_spec_is_homogeneous(self):
        spec = HeteroClusterSpec()
        assert sim_profiles(spec) == ()
        assert set(spec.rank_profiles()) == {UNIT_RATES}
        assert spec.link_overrides() is None
        assert spec.bottleneck_rates() == UNIT_RATES
        assert spec.min_memory_bytes() == A100_SXM_40GB.memory_bytes

    def test_device_spec_override_becomes_rate_ratio(self):
        spec = HeteroClusterSpec.of(devices={3: V100_SXM_32GB})
        assert len(sim_profiles(spec)) == 2
        assert spec.device_for(3) == V100_SXM_32GB
        assert spec.device_for(0) == A100_SXM_40GB
        rates = spec.rates_for(3)
        expected_comp = (
            V100_SXM_32GB.sustained_gemm_flops / A100_SXM_40GB.sustained_gemm_flops
        )
        assert rates.comp == pytest.approx(expected_comp)
        assert rates.comm == 1.0
        assert rates.mem == 1.0  # same PCIe generation
        assert spec.min_memory_bytes() == V100_SXM_32GB.memory_bytes

    def test_explicit_rates_compose_with_spec_ratio(self):
        spec = HeteroClusterSpec.of(
            devices={2: V100_SXM_32GB}, rates={2: DeviceRates(comp=0.5)}
        )
        ratio = spec.spec_ratio(2).comp
        assert spec.rates_for(2).comp == pytest.approx(0.5 * ratio)

    def test_sim_profiles_dedupe_and_strip_comm(self):
        spec = HeteroClusterSpec.of(
            rates={
                0: DeviceRates(comp=0.5),
                1: DeviceRates(comp=0.5),
                2: DeviceRates(comm=0.25),  # comm-only: unit profile
            }
        )
        profiles = sim_profiles(spec)
        # slow profile + the healthy default, comm stripped to 1.0.
        assert DeviceRates(comp=0.5) in profiles
        assert UNIT_RATES in profiles
        assert len(profiles) == 2

    def test_link_overrides_follow_comm_multipliers(self):
        spec = HeteroClusterSpec.of(rates={9: DeviceRates(comm=0.25)})
        ov = spec.link_overrides()
        assert ov.gpu(9) == 0.25
        assert ov.gpu(8) == 1.0
        # Rank 9 lives on node 1 (8 GPUs per node): its shared IB uplink
        # is dragged to the node's worst member.
        assert ov.node(1) == 0.25
        assert ov.node(0) == 1.0

    def test_world_limits_active_ranks(self):
        spec = HeteroClusterSpec.of(rates={32: DeviceRates(comp=0.5)})
        assert sim_profiles(spec, 16) == ()  # straggler outside the job
        assert len(sim_profiles(spec, 64)) == 2
        assert spec.bottleneck_rates(16) == UNIT_RATES
        assert spec.bottleneck_rates(64) == DeviceRates(comp=0.5)

    def test_key_is_stable_and_sensitive(self):
        a = HeteroClusterSpec.of(rates={0: DeviceRates(comp=0.5)})
        b = HeteroClusterSpec.of(rates={0: DeviceRates(comp=0.5)})
        c = HeteroClusterSpec.of(rates={0: DeviceRates(comp=0.4)})
        assert a.key() == b.key()
        assert a.key() != c.key()
        assert a.key() != HeteroClusterSpec().key()
        assert a == b and hash(a) == hash(b)

    def test_rank_validation(self):
        with pytest.raises(ValueError, match="outside"):
            HeteroClusterSpec.of(rates={64: DeviceRates(comp=0.5)})
        with pytest.raises(IndexError):
            HeteroClusterSpec().device_for(64)

    def test_duplicate_overrides_rejected(self):
        with pytest.raises(ValueError, match="duplicate device override for rank 1"):
            HeteroClusterSpec(
                device_overrides=((1, V100_SXM_32GB), (1, A100_SXM_40GB))
            )
        with pytest.raises(ValueError, match="duplicate rate override for rank 2"):
            HeteroClusterSpec(
                rate_overrides=((2, DeviceRates(comp=0.5)), (2, UNIT_RATES))
            )

    def test_override_order_is_canonical(self):
        slow, slower = DeviceRates(comp=0.5), DeviceRates(comp=0.25)
        a = HeteroClusterSpec(rate_overrides=((5, slow), (1, slower)))
        b = HeteroClusterSpec(rate_overrides=((1, slower), (5, slow)))
        assert a.rate_overrides == ((1, slower), (5, slow))
        assert a == b and a.key() == b.key()

    @pytest.mark.parametrize(
        "query",
        ["rank_profiles", "link_overrides", "bottleneck_rates", "min_memory_bytes"],
    )
    def test_world_size_bounds(self, query):
        spec = HeteroClusterSpec()
        for world in (0, 65):
            with pytest.raises(ValueError, match="world_size must be in"):
                getattr(spec, query)(world)

    def test_link_overrides_follow_the_active_world(self):
        spec = HeteroClusterSpec.of(rates={32: DeviceRates(comm=0.5)})
        assert spec.link_overrides(16) is None  # degraded rank outside the job
        ov = spec.link_overrides(64)
        assert ov.gpu(32) == 0.5
        assert ov.node(4) == 0.5  # rank 32 is node 4's first GPU

    def test_comm_only_rank_reaches_the_bottleneck_not_the_profiles(self):
        spec = HeteroClusterSpec.of(rates={5: DeviceRates(comm=0.25)})
        assert set(spec.rank_profiles()) == {UNIT_RATES}
        assert spec.bottleneck_rates() == DeviceRates(comm=0.25)


class TestStragglerModel:
    def test_kind_and_severity_validation(self):
        with pytest.raises(ValueError, match="unknown straggler"):
            StragglerModel("meteor-strike")
        with pytest.raises(ValueError, match="severity"):
            StragglerModel("single-slow-gpu", severity=0.0)
        with pytest.raises(ValueError, match="severity"):
            StragglerModel("single-slow-gpu", severity=1.5)

    @pytest.mark.parametrize("kind", STRAGGLER_KINDS)
    def test_severity_one_degenerates_to_uniform(self, kind):
        assert StragglerModel(kind, severity=1.0).build() == HeteroClusterSpec()

    def test_uniform_has_no_overrides(self):
        assert StragglerModel("uniform", severity=0.5).build() == HeteroClusterSpec()

    def test_single_slow_gpu_throttles_compute_only(self):
        spec = StragglerModel("single-slow-gpu", severity=0.5, target=7).build()
        assert spec.rates_for(7) == DeviceRates(comp=0.5)
        assert spec.rates_for(6).is_unit

    def test_slow_node_covers_the_whole_node(self):
        spec = StragglerModel("slow-node", severity=0.5, target=1).build()
        for rank in range(8, 16):
            assert spec.rates_for(rank) == DeviceRates(comp=0.5, mem=0.5)
        assert spec.rates_for(0).is_unit
        assert spec.rates_for(16).is_unit

    def test_degraded_link_throttles_comm_only(self):
        spec = StragglerModel("degraded-link", severity=0.25, target=3).build()
        assert spec.rates_for(3) == DeviceRates(comm=0.25)
        assert sim_profiles(spec) == ()  # comm-only: no comp/mem profile
        assert spec.link_overrides().gpu(3) == 0.25

    def test_random_jitter_is_seeded_and_bounded(self):
        a = StragglerModel("random-jitter", severity=0.6, seed=11).build()
        b = StragglerModel("random-jitter", severity=0.6, seed=11).build()
        c = StragglerModel("random-jitter", severity=0.6, seed=12).build()
        assert a == b
        assert a != c
        world = a.cluster.world_size
        comps = [a.rates_for(r).comp for r in range(world)]
        assert all(0.6 <= comp <= 1.0 for comp in comps)
        assert len(set(comps)) > 1  # genuinely jittered

    def test_two_slow_gpus_hit_the_target_and_its_antipode(self):
        spec = StragglerModel("two-slow-gpus", severity=0.5, target=3).build()
        world = spec.cluster.world_size
        other = (3 + world // 2) % world
        assert spec.rates_for(3) == DeviceRates(comp=0.5)
        assert spec.rates_for(other) == DeviceRates(comp=0.5)
        healthy = [r for r in range(world) if r not in (3, other)]
        assert all(spec.rates_for(r).is_unit for r in healthy)

    def test_two_slow_gpus_needs_two_ranks(self):
        tiny = ClusterSpec(num_nodes=1, gpus_per_node=1)
        with pytest.raises(ValueError, match="world_size >= 2"):
            StragglerModel("two-slow-gpus", severity=0.5).build(tiny)

    def test_slow_gpu_degraded_link_splits_the_faults(self):
        """Compute fault on the target, comm fault on its neighbour —
        no single-victim rescale can describe this cluster."""
        spec = StragglerModel(
            "slow-gpu-degraded-link", severity=0.5, target=7
        ).build()
        assert spec.rates_for(7) == DeviceRates(comp=0.5)
        assert spec.rates_for(8) == DeviceRates(comm=0.5)
        assert spec.rates_for(6).is_unit
        assert spec.link_overrides().gpu(8) == 0.5
        assert spec.link_overrides().gpu(7) == 1.0

    def test_slow_gpu_degraded_link_wraps_at_the_world_edge(self):
        small = ClusterSpec(num_nodes=1, gpus_per_node=4)
        spec = StragglerModel(
            "slow-gpu-degraded-link", severity=0.5, target=3
        ).build(small)
        assert spec.rates_for(3) == DeviceRates(comp=0.5)
        assert spec.rates_for(0) == DeviceRates(comm=0.5)

    def test_composed_kinds_price_worse_than_their_parts(self):
        """A composition must cost at least as much as the single-fault
        kind it extends, end to end through the sweep."""
        from repro.sweep import Scenario, evaluate_timeline

        base = dict(system="timeline", spec="GPT-S", world_size=8,
                    batch=2048, n=2, strategy="S1", severity=0.5)
        single = evaluate_timeline(
            Scenario(**base, straggler="single-slow-gpu")
        )
        double = evaluate_timeline(
            Scenario(**base, straggler="two-slow-gpus")
        )
        combo = evaluate_timeline(
            Scenario(**base, straggler="slow-gpu-degraded-link")
        )
        assert double["makespan"] >= single["makespan"]
        assert combo["makespan"] >= single["makespan"]

    def test_target_outside_cluster_rejected(self):
        small = ClusterSpec(num_nodes=1, gpus_per_node=4)
        with pytest.raises(ValueError, match="outside"):
            StragglerModel("single-slow-gpu", severity=0.5, target=4).build(small)
        with pytest.raises(ValueError, match="node"):
            StragglerModel("slow-node", severity=0.5, target=1).build(small)

    def test_build_uses_the_given_cluster(self):
        spec = StragglerModel("single-slow-gpu", severity=0.5).build(
            DGX_A100_CLUSTER
        )
        assert spec.cluster == DGX_A100_CLUSTER
        assert spec.default_device == A100_SXM_40GB
