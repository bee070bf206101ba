"""Model and cluster configuration.

Mirrors the paper's Table I (notation) and Table III (MoE layer specs):

=========  =======================================
Notation   Definition
=========  =======================================
M          model dimension (``d_model``)
H          hidden dimension (``d_hidden``)
B          batch size of tokens on one device
E          total number of experts
n          number of pipeline partitions
N          number of devices (GPUs)
=========  =======================================

``MoELayerSpec`` captures the static layer shape; the runtime batch size B
is passed per call because it is dynamic in MoE training (gating sends a
varying number of tokens to each expert).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

BYTES_PER_ELEM = 4  # fp32 accounting, matching the paper's byte-free formulas x4


@dataclass(frozen=True)
class MoELayerSpec:
    """Static shape of one MoE layer (paper Table III).

    Attributes
    ----------
    d_model:
        Token embedding dimension M.
    d_hidden:
        FFN hidden dimension H (H = 4*M for the paper's models).
    num_experts:
        Total number of experts E across the cluster.
    top_k:
        Number of experts each token is routed to (paper uses k=1).
    activation:
        Expert nonlinearity between the two linear layers.
    """

    name: str
    d_model: int
    d_hidden: int
    num_experts: int = 64
    top_k: int = 1
    activation: str = "gelu"

    def __post_init__(self) -> None:
        if self.d_model <= 0 or self.d_hidden <= 0:
            raise ValueError("d_model and d_hidden must be positive")
        if self.num_experts <= 0:
            raise ValueError("num_experts must be positive")
        if not 1 <= self.top_k <= self.num_experts:
            raise ValueError("top_k must be in [1, num_experts]")
        if self.activation not in ("gelu", "relu", "identity"):
            raise ValueError(f"unknown activation {self.activation!r}")

    # -- parameter counts (used by Eq. 1 memory accounting) ---------------
    @property
    def gate_params(self) -> int:
        """Parameters of the gating network: E * M (Eq. 1 first term)."""
        return self.num_experts * self.d_model

    @property
    def expert_params(self) -> int:
        """Parameters of a single expert FFN: 2 * H * M (Eq. 1 second term)."""
        return 2 * self.d_hidden * self.d_model

    def with_(self, **kwargs) -> "MoELayerSpec":
        """Return a copy with some fields replaced."""
        return replace(self, **kwargs)


# --- Table III presets ----------------------------------------------------
MOE_GPT3_S = MoELayerSpec("MoE-GPT3-S", d_model=768, d_hidden=3072, num_experts=64)
MOE_GPT3_XL = MoELayerSpec("MoE-GPT3-XL", d_model=2048, d_hidden=8192, num_experts=64)
MOE_BERT_L = MoELayerSpec("MoE-BERT-L", d_model=1024, d_hidden=4096, num_experts=64)

PRESETS: dict[str, MoELayerSpec] = {
    "GPT-S": MOE_GPT3_S,
    "GPT-XL": MOE_GPT3_XL,
    "BERT-L": MOE_BERT_L,
    "MoE-GPT3-S": MOE_GPT3_S,
    "MoE-GPT3-XL": MOE_GPT3_XL,
    "MoE-BERT-L": MOE_BERT_L,
}


def get_preset(name: str) -> MoELayerSpec:
    """Look up a Table III preset by short or full name."""
    try:
        return PRESETS[name]
    except KeyError:
        raise KeyError(
            f"unknown model preset {name!r}; available: {sorted(set(PRESETS))}"
        ) from None


@dataclass(frozen=True)
class ClusterSpec:
    """Cluster shape used by the timing layer.

    Defaults reproduce the paper's testbed: 8 DGX A100 nodes, 8 GPUs each,
    NVLink gen3 within a node and 200 Gbps HDR InfiniBand between nodes.
    """

    num_nodes: int = 8
    gpus_per_node: int = 8
    # A100 SXM 40GB characteristics
    gpu_memory_bytes: int = 40 * 1024**3
    gemm_tflops: float = 312.0  # bf16/fp16 tensor core peak
    gemm_efficiency: float = 0.45  # achievable fraction on MoE-sized GEMMs
    nvlink_gbps: float = 600.0  # GB/s unidirectional per GPU (NVLink3 aggregate)
    ib_gbitps: float = 200.0  # HDR InfiniBand per NIC, Gbit/s
    # DGX A100 carries 8 HDR NICs — the paper's "1,600 Gbps InfiniBand
    # network with adaptive routing" across machines (Sec. V-A1).
    ib_nics_per_node: int = 8
    pcie_gbps: float = 32.0  # PCIe gen4 x16 per GPU, for CPU offload, GB/s
    # Achieved fraction of line rate for fused NCCL All-to-All: many
    # small peer messages and fabric congestion keep the collective well
    # below wire speed, especially across nodes.  These factors are what
    # make 64-GPU MoE training communication-bound (Fig. 13).
    nccl_efficiency_intra: float = 0.6
    nccl_efficiency_inter: float = 0.35

    def __post_init__(self) -> None:
        if self.num_nodes < 1 or self.gpus_per_node < 1:
            raise ValueError("cluster must have at least one node and one GPU")

    @property
    def world_size(self) -> int:
        return self.num_nodes * self.gpus_per_node

    @property
    def node_ib_gbitps(self) -> float:
        """Aggregate InfiniBand rate out of one node (all NICs)."""
        return self.ib_gbitps * self.ib_nics_per_node

    def with_world_size(self, world_size: int) -> "ClusterSpec":
        """Resize the cluster keeping per-node GPU count when divisible."""
        if world_size <= self.gpus_per_node:
            return replace(self, num_nodes=1, gpus_per_node=world_size)
        if world_size % self.gpus_per_node:
            raise ValueError(
                f"world_size {world_size} not a multiple of gpus_per_node "
                f"{self.gpus_per_node}"
            )
        return replace(self, num_nodes=world_size // self.gpus_per_node)


DGX_A100_CLUSTER = ClusterSpec()
