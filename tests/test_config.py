"""Model/cluster configuration and Table III presets."""

import dataclasses

import pytest

from repro.config import (
    ClusterSpec,
    DGX_A100_CLUSTER,
    MOE_BERT_L,
    MOE_GPT3_S,
    MOE_GPT3_XL,
    MoELayerSpec,
    get_preset,
)


class TestTableIIIPresets:
    """The exact Table III numbers."""

    def test_gpt3_s(self):
        assert (MOE_GPT3_S.d_model, MOE_GPT3_S.d_hidden) == (768, 3072)
        assert MOE_GPT3_S.num_experts == 64

    def test_gpt3_xl(self):
        assert (MOE_GPT3_XL.d_model, MOE_GPT3_XL.d_hidden) == (2048, 8192)

    def test_bert_l(self):
        assert (MOE_BERT_L.d_model, MOE_BERT_L.d_hidden) == (1024, 4096)

    def test_hidden_is_4x_model(self):
        # The paper's Table II assumes H = 4M for all three models.
        for spec in (MOE_GPT3_S, MOE_GPT3_XL, MOE_BERT_L):
            assert spec.d_hidden == 4 * spec.d_model

    def test_lookup_by_short_and_full_name(self):
        assert get_preset("GPT-S") is get_preset("MoE-GPT3-S")

    def test_unknown_preset(self):
        with pytest.raises(KeyError):
            get_preset("GPT-9000")


class TestMoELayerSpec:
    def test_param_counts_match_eq1_terms(self):
        spec = MoELayerSpec("t", d_model=10, d_hidden=40, num_experts=8)
        assert spec.gate_params == 8 * 10
        assert spec.expert_params == 2 * 40 * 10

    def test_validation(self):
        with pytest.raises(ValueError):
            MoELayerSpec("t", d_model=0, d_hidden=4)
        with pytest.raises(ValueError):
            MoELayerSpec("t", d_model=4, d_hidden=8, num_experts=2, top_k=3)
        with pytest.raises(ValueError):
            MoELayerSpec("t", d_model=4, d_hidden=8, activation="tanh")

    def test_expert_count_and_top_k_lower_bounds(self):
        with pytest.raises(ValueError, match="num_experts"):
            MoELayerSpec("t", d_model=4, d_hidden=8, num_experts=0)
        with pytest.raises(ValueError, match="top_k"):
            MoELayerSpec("t", d_model=4, d_hidden=8, top_k=0)

    def test_presets_are_immutable(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            MOE_GPT3_XL.top_k = 2
        with pytest.raises(dataclasses.FrozenInstanceError):
            DGX_A100_CLUSTER.num_nodes = 1

    def test_with_override(self):
        spec = MOE_GPT3_S.with_(top_k=2)
        assert spec.top_k == 2
        assert spec.d_model == MOE_GPT3_S.d_model


class TestClusterSpec:
    def test_paper_testbed_defaults(self):
        assert DGX_A100_CLUSTER.num_nodes == 8
        assert DGX_A100_CLUSTER.gpus_per_node == 8
        assert DGX_A100_CLUSTER.world_size == 64
        assert DGX_A100_CLUSTER.ib_gbitps == 200.0

    def test_node_ib_aggregates_every_nic(self):
        """Sec. V-A1's "1,600 Gbps InfiniBand" is 8 HDR NICs per node."""
        assert DGX_A100_CLUSTER.node_ib_gbitps == 1600.0
        assert ClusterSpec(ib_nics_per_node=1).node_ib_gbitps == 200.0

    def test_with_world_size_one_full_node(self):
        c = DGX_A100_CLUSTER.with_world_size(8)
        assert (c.num_nodes, c.gpus_per_node) == (1, 8)

    def test_with_world_size_small(self):
        c = DGX_A100_CLUSTER.with_world_size(4)
        assert c.num_nodes == 1 and c.gpus_per_node == 4

    def test_with_world_size_multi_node(self):
        c = DGX_A100_CLUSTER.with_world_size(32)
        assert c.num_nodes == 4 and c.world_size == 32

    def test_with_world_size_indivisible(self):
        with pytest.raises(ValueError):
            DGX_A100_CLUSTER.with_world_size(12)

    def test_validation(self):
        with pytest.raises(ValueError):
            ClusterSpec(num_nodes=0)
