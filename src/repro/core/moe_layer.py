"""The MPipeMoE layer — public API of the library.

Mirrors the paper's usage snippet (Sec. IV-C)::

    import repro
    layer = repro.MoELayer(d_model=1024, d_hidden=4096, top_k=1,
                           num_experts=64, world_size=8,
                           pipeline=True, memory_reuse=True)
    out = layer.forward([x_rank0, x_rank1, ...])   # one Tensor per rank

Execution paths:

* ``pipeline=False`` — the plain expert-parallel reference (FastMoE
  semantics): one fused All-to-All each way, pure autograd.
* ``pipeline=True, memory_reuse=False`` — PipeMoE: micro-batch
  pipelining at granularity n (adaptive via Algorithm 1 when
  ``num_partitions=None``); activations kept (strategy "none").
* ``pipeline=True, memory_reuse=True`` — MPipeMoE: shared ring buffers
  plus a restore strategy (adaptive via the Eq. 10 selector when
  ``strategy=None``).

All ranks live in-process: ``forward`` takes and returns one tensor per
rank, and expert parallelism (Fig. 1) is realised by the stacked
All-to-All exchanges inside.

The adaptive choices are priced by the timing layer the system models
use: one :class:`~repro.systems.base.SystemContext` for the layer's
cluster, device and world size, whose memoized evaluator answers every
Algorithm 1 trial (a makespan) and builds the Eq. 10 selector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.config import ClusterSpec, DGX_A100_CLUSTER, MoELayerSpec
from repro.core.dispatch import (
    DispatchPlan,
    capacity_for,
    combine_tokens,
    dispatch_tokens,
    plan_dispatch,
)
from repro.core.experts import ExpertFFN
from repro.core.gating import GateDecision, TopKGate
from repro.hardware.device import A100_SXM_40GB, DeviceSpec
from repro.memory.host_pool import HostBufferPool
from repro.memory.strategies import Strategy, get_strategy
from repro.perfmodel.workload import WorkloadSpec
from repro.pipeline.executor import PipelinedMoEMiddle, middle_autograd
from repro.pipeline.granularity import GranularitySearcher
from repro.pipeline.partition import pad_capacity
from repro.sim.memory_allocator import CachingAllocator
from repro.tensor import Tensor
from repro.tensor import functional as F
from repro.utils.seeding import derive_seed


@dataclass
class MoEOutput:
    """Result of one layer call."""

    outputs: list[Tensor]  # one (B, M) tensor per rank
    aux_loss: Tensor  # mean Switch load-balancing loss across ranks
    num_partitions: int
    strategy: str
    capacity: int
    dropped_tokens: int
    plans: list[DispatchPlan] = field(repr=False, default_factory=list)


class MoELayer:
    """Memory-efficient MoE layer with adaptive pipeline parallelism."""

    def __init__(
        self,
        d_model: int,
        d_hidden: int,
        num_experts: int = 64,
        top_k: int = 1,
        world_size: int = 1,
        pipeline: bool = True,
        memory_reuse: bool = True,
        num_partitions: int | None = None,
        strategy: str | None = None,
        capacity_factor: float = 1.0,
        activation: str = "gelu",
        candidate_partitions: tuple[int, ...] = (1, 2, 4, 8),
        cluster: ClusterSpec | None = None,
        device: DeviceSpec = A100_SXM_40GB,
        meter: CachingAllocator | None = None,
        seed: int = 0,
        dtype=np.float64,
    ) -> None:
        if num_experts % world_size:
            raise ValueError(
                f"num_experts ({num_experts}) must be divisible by world_size "
                f"({world_size}) for expert parallelism"
            )
        if num_partitions is not None and num_partitions < 1:
            raise ValueError("num_partitions must be >= 1")
        if strategy is not None:
            get_strategy(strategy)  # validate early
        self.spec = MoELayerSpec(
            name="custom",
            d_model=d_model,
            d_hidden=d_hidden,
            num_experts=num_experts,
            top_k=top_k,
            activation=activation,
        )
        self.world_size = world_size
        self.experts_per_rank = num_experts // world_size
        self.pipeline = pipeline
        self.memory_reuse = memory_reuse
        self.fixed_partitions = num_partitions
        self.fixed_strategy = strategy
        self.capacity_factor = capacity_factor
        self.candidate_partitions = tuple(sorted(set(candidate_partitions)))
        # Capacity is padded to a multiple of every granularity the layer
        # might pick, so routing (and therefore which tokens drop) is
        # *independent of n* — pipelined and sequential execution stay
        # token-for-token equivalent.
        self.capacity_multiple = math.lcm(
            *self.candidate_partitions, num_partitions or 1
        )
        self.meter = meter
        self.host_pool = HostBufferPool()
        self.dtype = dtype

        # Parameters: replicated gate + per-rank expert shards.
        self.gate = TopKGate(
            d_model, num_experts, top_k, seed=derive_seed(seed, "gate"), dtype=dtype
        )
        self.experts: list[list[ExpertFFN]] = [
            [
                ExpertFFN(
                    d_model,
                    d_hidden,
                    activation=activation,
                    seed=derive_seed(seed, "expert", r * self.experts_per_rank + e),
                    dtype=dtype,
                )
                for e in range(self.experts_per_rank)
            ]
            for r in range(world_size)
        ]

        # Timing-layer context for the adaptive components.  Imported
        # here, not at module level: the pricing stack under
        # repro.systems reaches repro.core through the pipeline package
        # init, so a module-level import would join repro.systems to
        # that import cycle.
        from repro.systems.base import SystemContext

        if cluster is None:
            cluster = DGX_A100_CLUSTER.with_world_size(world_size)
        self.cluster = cluster
        self.device = device
        # The default WorkloadSpec inherits this layer's top_k, so the
        # adaptive components price k routed rows per token — a k=1
        # layer resolves to the raw batch bit for bit.  (The executable
        # capacity_factor stays out: the timing layer prices what a
        # granularity trial would measure, dropped tokens included.)
        spec = self.spec
        workload = self.timing_workload = WorkloadSpec()
        evaluator = SystemContext(cluster, device, world_size).evaluator
        # Algorithm 1 trial: the simulated fw+bw makespan at (B, n).
        self.granularity_searcher = GranularitySearcher(
            evaluate=lambda b, n: evaluator.makespan(
                spec, b, n, "none", workload=workload
            ),
            candidates=self.candidate_partitions,
        )
        self.strategy_selector = evaluator.selector(spec, workload)
        self.last_selection = None

    # -- parameters ---------------------------------------------------------------
    def parameters(self) -> list[Tensor]:
        params = list(self.gate.parameters())
        for row in self.experts:
            for expert in row:
                params.extend(expert.parameters())
        return params

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    @property
    def num_params(self) -> int:
        return sum(p.size for p in self.parameters())

    # -- adaptive components ---------------------------------------------------------
    def configure(self, batch: int) -> tuple[int, Strategy]:
        """Resolve (n, strategy) for this batch size.

        Adaptive pieces only run when the corresponding knob is None;
        pinned values reproduce the paper's PipeMoE(n=k) / fixed-Sx
        ablations.
        """
        if not self.pipeline:
            n = 1
        elif self.fixed_partitions is not None:
            n = self.fixed_partitions
        else:
            n = self.granularity_searcher.configure(batch)

        if not self.memory_reuse or n < 2:
            strategy = get_strategy("none")
        elif self.fixed_strategy is not None:
            strategy = get_strategy(self.fixed_strategy)
        else:
            selection = self.strategy_selector.select(batch, n)
            self.last_selection = selection
            strategy = selection.strategy
        return n, strategy

    # -- forward -------------------------------------------------------------------
    def forward(self, xs: list[Tensor]) -> MoEOutput:
        """Run the MoE layer on one batch per rank.

        Every rank's input must be ``(B, d_model)`` with the same B (the
        collective buffers of expert parallelism are equal-shaped).
        """
        if len(xs) != self.world_size:
            raise ValueError(
                f"expected {self.world_size} per-rank inputs, got {len(xs)}"
            )
        batches = {x.shape[0] for x in xs}
        if len(batches) != 1:
            raise ValueError(f"all ranks must have equal batch sizes, got {batches}")
        batch = batches.pop()
        for x in xs:
            if x.ndim != 2 or x.shape[1] != self.spec.d_model:
                raise ValueError(
                    f"inputs must be (B, {self.spec.d_model}), got {x.shape}"
                )

        n, strategy = self.configure(batch)
        capacity = pad_capacity(
            capacity_for(
                batch, self.spec.num_experts, self.spec.top_k, self.capacity_factor
            ),
            math.lcm(self.capacity_multiple, n),
        )

        # Gate + dispatch per rank.
        decisions: list[GateDecision] = []
        plans: list[DispatchPlan] = []
        buffers: list[Tensor] = []
        for x in xs:
            decision = self.gate(x)
            plan = plan_dispatch(decision, self.spec.num_experts, capacity)
            flat = dispatch_tokens(x, plan)  # (E*C, M)
            buffers.append(
                F.reshape(
                    flat,
                    (self.world_size, self.experts_per_rank, capacity, self.spec.d_model),
                )
            )
            decisions.append(decision)
            plans.append(plan)

        ti_all = F.stack(buffers, axis=0)  # (W, W, EperR, C, M)

        # Middle: S -> C -> R.
        if self.pipeline:
            engine = PipelinedMoEMiddle(
                self.experts,
                num_partitions=n,
                strategy=strategy,
                meter=self.meter,
                host_pool=self.host_pool,
            )
            to_all = middle_autograd(ti_all, engine)
            if not to_all.requires_grad:
                engine.discard_context()
        else:
            to_all = self._reference_middle(ti_all)

        # Combine per rank.
        outputs = []
        for r in range(self.world_size):
            flat = F.reshape(
                to_all[r],
                (self.spec.num_experts * capacity, self.spec.d_model),
            )
            outputs.append(combine_tokens(flat, plans[r], decisions[r]))

        aux = decisions[0].aux_loss
        for d in decisions[1:]:
            aux = aux + d.aux_loss
        aux = aux * (1.0 / self.world_size)

        return MoEOutput(
            outputs=outputs,
            aux_loss=aux,
            num_partitions=n,
            strategy=strategy.name,
            capacity=capacity,
            dropped_tokens=sum(p.dropped for p in plans),
            plans=plans,
        )

    __call__ = forward

    def _reference_middle(self, ti_all: Tensor) -> Tensor:
        """Pure-autograd S -> C -> R (no pipelining): the test oracle path."""
        w, eper = self.world_size, self.experts_per_rank
        cap, m = ti_all.shape[3], ti_all.shape[4]
        tdi_all = F.transpose(ti_all, (1, 0, 2, 3, 4))  # S: exchange src<->dst
        per_rank_out = []
        for r in range(w):
            per_expert = []
            for e in range(eper):
                x = F.reshape(tdi_all[(r, slice(None), e)], (w * cap, m))
                y = self.experts[r][e].forward(x)
                per_expert.append(F.reshape(y, (w, cap, m)))
            # (EperR, W, C, M) -> (W, EperR, C, M)
            per_rank_out.append(F.transpose(F.stack(per_expert, axis=0), (1, 0, 2, 3)))
        tdo_all = F.stack(per_rank_out, axis=0)  # [dst, src, e, c, m]
        return F.transpose(tdo_all, (1, 0, 2, 3, 4))  # R: exchange back
