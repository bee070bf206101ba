"""Functional pipelined execution of the MoE middle section.

The *middle section* is everything between dispatch and combine in
Fig. 1: the first All-to-All (S), expert computation (C), and the second
All-to-All (R), micro-batch pipelined per Fig. 4(b).

Data layout
-----------
``ti_all`` has shape ``(W, W, EperR, C, M)``:

    ti_all[src, dst, e, slot, :]  — token that rank *src* sends to local
    expert *e* of rank *dst*, capacity slot *slot*.

The dispatch All-to-All for capacity slice ``sl`` is the axis-0/1
transpose ``ti_all[:, r, :, sl, :] -> tdi of rank r``; the return
All-to-All is the inverse transpose.  Running all ranks in one process
makes these exchanges exact array permutations, so the pipelined +
memory-reused execution can be tested for bitwise agreement with the
sequential reference.

Memory reuse
------------
With a reuse strategy, TDI / TM / TDO chunks live in
:class:`~repro.memory.buffer_pool.SharedBufferPool` ring slots that later
partitions *genuinely overwrite*.  The backward pass restores them per
the strategy (Table II):

* ``offload``  — fetch the copy stashed in the :class:`HostBufferPool`;
* ``recomm``   — redo the partition's All-to-All from ``ti_all`` (TI is
  a layer input and is always retained);
* ``recompute``— recompute ``TM = TDI @ W1 + b1`` from the restored TDI.

All device-side buffers are metered through an optional
:class:`~repro.sim.memory_allocator.CachingAllocator` so the achieved
peak can be compared against the Eq. 5/6 bound (Fig. 10).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.memory.buffer_pool import SharedBufferPool
from repro.memory.host_pool import HostBufferPool
from repro.memory.strategies import RestoreMethod, Strategy, get_strategy
from repro.pipeline.partition import partition_slices
from repro.sim.memory_allocator import CachingAllocator
from repro.tensor import Tensor
from repro.tensor.ops import _make

if TYPE_CHECKING:  # repro.core imports this module; annotations only
    from repro.core.experts import ExpertFFN, ExpertGrads


@dataclass
class MiddleContext:
    """Forward stash consumed by backward (contents depend on strategy)."""

    ti_all: np.ndarray
    slices: list[slice]
    # strategy "none": retained chunks per partition per rank
    tdi_kept: dict[tuple[int, int], np.ndarray] = field(default_factory=dict)
    tm_kept: dict[tuple[int, int], np.ndarray] = field(default_factory=dict)


class PipelinedMoEMiddle:
    """S -> C -> R over n micro-batch partitions with a reuse strategy.

    Parameters
    ----------
    experts:
        ``experts[r]`` is the list of local experts of rank r (all ranks'
        experts are visible because ranks share the process).
    num_partitions:
        Pipeline granularity n; requires ``n | C`` at call time.
    strategy:
        A Table II strategy name or object; "none" keeps activations.
    meter:
        Optional allocator metering *rank 0*'s device buffers (ranks are
        symmetric, so one rank's peak is the per-device footprint).
    host_pool:
        Offload target; required by strategies that offload.
    """

    def __init__(
        self,
        experts: Sequence[Sequence[ExpertFFN]],
        num_partitions: int,
        strategy: Strategy | str = "none",
        meter: CachingAllocator | None = None,
        host_pool: HostBufferPool | None = None,
    ) -> None:
        if num_partitions < 1:
            raise ValueError("num_partitions must be >= 1")
        self.experts = [list(row) for row in experts]
        self.world_size = len(self.experts)
        if self.world_size < 1:
            raise ValueError("need at least one rank of experts")
        per_rank = len(self.experts[0])
        if any(len(row) != per_rank for row in self.experts):
            raise ValueError("all ranks must host the same number of experts")
        self.experts_per_rank = per_rank
        self.n = num_partitions
        self.strategy = get_strategy(strategy) if isinstance(strategy, str) else strategy
        if self.strategy.reuses_memory and self.n < 2:
            raise ValueError("memory reuse needs n >= 2 (nothing to share at n=1)")
        if (
            RestoreMethod.OFFLOAD in (self.strategy.tdi, self.strategy.tm)
            and host_pool is None
        ):
            raise ValueError(f"strategy {self.strategy.name} requires a host_pool")
        self.meter = meter
        self.host_pool = host_pool
        self._ctx: MiddleContext | None = None
        self._pools: list[SharedBufferPool] | None = None
        self._none_handles: list[int] = []

    # ------------------------------------------------------------------ forward
    def forward(self, ti_all: np.ndarray) -> np.ndarray:
        """Run the pipelined middle; returns ``to_all`` of the same shape."""
        w, w2, eper, cap, m = self._check_input(ti_all)
        slices = partition_slices(cap, self.n)
        ctx = MiddleContext(ti_all=ti_all, slices=slices)
        chunk = cap // self.n
        to_all = np.zeros_like(ti_all)

        reuse = self.strategy.reuses_memory
        if reuse:
            self._pools = self._make_pools(w, eper, chunk, m, ti_all.dtype)

        for j, sl in enumerate(slices):
            for r in range(w):
                tdi = self._chunk_buffer("tdi", r, j, (w, eper, chunk, m), ti_all.dtype)
                # S_j: dispatch All-to-All (axis transpose).
                tdi[...] = ti_all[:, r, :, sl, :]
                tdo = self._chunk_buffer("tdo", r, j, (w, eper, chunk, m), ti_all.dtype)
                tm = self._chunk_buffer(
                    "tm", r, j, (eper, w * chunk, self._dh()), ti_all.dtype
                )
                # C_j: local experts.
                for e in range(eper):
                    x = tdi[:, e].reshape(w * chunk, m)
                    y, tm_pre = self.experts[r][e].forward_np(x)
                    tdo[:, e] = y.reshape(w, chunk, m)
                    tm[e] = tm_pre
                # R_j: return All-to-All.
                to_all[:, r, :, sl, :] = tdo
                self._stash(ctx, r, j, tdi, tm)
        self._ctx = ctx
        return to_all

    # ------------------------------------------------------------------ backward
    def backward(self, dto_all: np.ndarray) -> np.ndarray:
        """Backward through R, C, S for every partition; returns ``d ti_all``.

        Expert parameter gradients are folded into each expert's ``.grad``
        slots via :meth:`ExpertFFN.accumulate_grads`.
        """
        ctx = self._ctx
        if ctx is None:
            raise RuntimeError("backward called before forward")
        if dto_all.shape != ctx.ti_all.shape:
            raise ValueError(
                f"dto_all shape {dto_all.shape} != forward shape {ctx.ti_all.shape}"
            )
        w = self.world_size
        eper = self.experts_per_rank
        m = ctx.ti_all.shape[-1]
        cap = ctx.ti_all.shape[3]
        chunk = cap // self.n
        dti_all = np.zeros_like(ctx.ti_all)
        grad_acc: dict[tuple[int, int], ExpertGrads] = {}
        self._meter_backward_buffers(w, eper, chunk, m, ctx.ti_all.dtype)

        # Partitions are processed in pipeline order (Fig. 7's backward
        # timelines run B1..Bn left to right); order does not affect values.
        for j, sl in enumerate(ctx.slices):
            for r in range(w):
                # dR_j: gradient of the return All-to-All.
                dtdo = dto_all[:, r, :, sl, :]
                tdi = self._restore_tdi(ctx, r, j, (w, eper, chunk, m))
                dtdi = np.empty((w, eper, chunk, m), dtype=dto_all.dtype)
                for e in range(eper):
                    x = tdi[:, e].reshape(w * chunk, m)
                    tm_pre = self._restore_tm(ctx, r, j, e, x)
                    dy = dtdo[:, e].reshape(w * chunk, m)
                    dx, grads = self.experts[r][e].backward_np(x, tm_pre, dy)
                    dtdi[:, e] = dx.reshape(w, chunk, m)
                    key = (r, e)
                    if key in grad_acc:
                        grad_acc[key].add_(grads)
                    else:
                        grad_acc[key] = grads
                # dS_j: gradient of the dispatch All-to-All.
                dti_all[:, r, :, sl, :] = dtdi

        for (r, e), grads in grad_acc.items():
            self.experts[r][e].accumulate_grads(grads)

        self._release()
        self._ctx = None
        return dti_all

    def _meter_backward_buffers(self, w, eper, chunk, m, dtype) -> None:
        """Account for the gradient *temporary buffers* of Sec. II-B.

        The math writes gradients straight into ``dti_all``, but a real
        device holds per-partition dTDO / dTDI / dTM chunks: all n of
        them in flight without reuse (Eq. 4's M^pipe_buf = M^pipe_act),
        or 2/2/1 ring slots with reuse (Eq. 5 applies to buffers too).
        These handles are accounting-only and freed by :meth:`_release`.
        """
        if self.meter is None:
            return
        itemsize = np.dtype(dtype).itemsize
        grad_chunk = w * eper * chunk * m * itemsize
        dtm_chunk = eper * w * chunk * self._dh() * itemsize
        # Boundary gradients dTI / dTO are full (B, M) temporaries in any
        # mode — Eq. 5's savings cover only the partitioned middle tensors.
        for role in ("dTI", "dTO"):
            self._none_handles.append(
                self.meter.allocate(self.n * grad_chunk, label=role)
            )
        if self.strategy.reuses_memory:
            slots = [("dtdi", grad_chunk, 2), ("dtdo", grad_chunk, 2),
                     ("dtm", dtm_chunk, 1)]
            for role, nbytes, count in slots:
                for i in range(count):
                    self._none_handles.append(
                        self.meter.allocate(nbytes, label=f"{role}[{i}]")
                    )
        else:
            for j in range(self.n):
                for role, nbytes in (("dtdi", grad_chunk), ("dtdo", grad_chunk),
                                     ("dtm", dtm_chunk)):
                    self._none_handles.append(
                        self.meter.allocate(nbytes, label=f"{role}[p{j}]")
                    )

    def discard_context(self) -> None:
        """Drop the forward stash without running backward (inference path)."""
        self._release()
        self._ctx = None

    # ------------------------------------------------------------------ helpers
    def _dh(self) -> int:
        return self.experts[0][0].d_hidden

    def _check_input(self, ti_all: np.ndarray):
        if ti_all.ndim != 5:
            raise ValueError(
                "ti_all must be (W, W, experts_per_rank, capacity, d_model), "
                f"got ndim={ti_all.ndim}"
            )
        w, w2, eper, cap, m = ti_all.shape
        if w != self.world_size or w2 != self.world_size:
            raise ValueError(
                f"ti_all world dims {(w, w2)} != engine world {self.world_size}"
            )
        if eper != self.experts_per_rank:
            raise ValueError(
                f"ti_all has {eper} experts/rank, engine has {self.experts_per_rank}"
            )
        if cap % self.n:
            raise ValueError(f"capacity {cap} not divisible by n={self.n}")
        if m != self.experts[0][0].d_model:
            raise ValueError("d_model mismatch between ti_all and experts")
        return w, w2, eper, cap, m

    def _make_pools(self, w, eper, chunk, m, dtype) -> list[SharedBufferPool]:
        pools = []
        for r in range(w):
            pool = SharedBufferPool(
                allocator=self.meter if r == 0 else None, dtype=dtype
            )
            pool.create_role("tdi", (w, eper, chunk, m))
            pool.create_role("tdo", (w, eper, chunk, m))
            pool.create_role("tm", (eper, w * chunk, self._dh()))
            pools.append(pool)
        return pools

    def _chunk_buffer(self, role, rank, partition, shape, dtype) -> np.ndarray:
        if self.strategy.reuses_memory:
            return self._pools[rank].get(role, partition)
        buf = np.empty(shape, dtype=dtype)
        if self.meter is not None and rank == 0:
            self._none_handles.append(
                self.meter.allocate(buf.nbytes, label=f"{role}[p{partition}]")
            )
        return buf

    def _stash(self, ctx: MiddleContext, r: int, j: int, tdi, tm) -> None:
        strat = self.strategy
        if strat.tdi is RestoreMethod.KEEP:
            ctx.tdi_kept[(r, j)] = tdi
        elif strat.tdi is RestoreMethod.OFFLOAD:
            self.host_pool.offload(("tdi", r, j), tdi)
        # RECOMM keeps nothing: ti_all is retained by the caller.
        if strat.tm is RestoreMethod.KEEP:
            ctx.tm_kept[(r, j)] = tm
        elif strat.tm is RestoreMethod.OFFLOAD:
            self.host_pool.offload(("tm", r, j), tm)
        # RECOMPUTE keeps nothing.

    def _restore_tdi(self, ctx: MiddleContext, r: int, j: int, shape) -> np.ndarray:
        strat = self.strategy
        if strat.tdi is RestoreMethod.KEEP:
            return ctx.tdi_kept[(r, j)]
        if strat.tdi is RestoreMethod.OFFLOAD:
            return self.host_pool.fetch(("tdi", r, j))
        # Re-communication: redo S_j from TI (Fig. 7 S2/S4 backward).
        return np.ascontiguousarray(ctx.ti_all[:, r, :, ctx.slices[j], :])

    def _restore_tm(
        self, ctx: MiddleContext, r: int, j: int, e: int, x: np.ndarray
    ) -> np.ndarray:
        strat = self.strategy
        if strat.tm is RestoreMethod.KEEP:
            return ctx.tm_kept[(r, j)][e]
        if strat.tm is RestoreMethod.OFFLOAD:
            key = ("tm", r, j)
            # Fetch once per (rank, partition); keep for remaining experts.
            if key in self.host_pool:
                tm = self.host_pool.fetch(key, discard=(e == self.experts_per_rank - 1))
                if e < self.experts_per_rank - 1:
                    # Leave in pool for the next expert of this partition.
                    pass
                return tm[e] if tm.ndim == 3 else tm
            raise KeyError(f"TM for rank {r} partition {j} was not offloaded")
        # Recompute from (restored) TDI.
        return self.experts[r][e].recompute_tm(x)

    def _release(self) -> None:
        if self._pools is not None:
            for pool in self._pools:
                pool.release_all()
            self._pools = None
        if self.meter is not None:
            for handle in self._none_handles:
                self.meter.free(handle)
            self._none_handles.clear()
        if self.host_pool is not None:
            self.host_pool.clear()


# ---------------------------------------------------------------- autograd glue
def middle_autograd(ti_all: Tensor, engine: PipelinedMoEMiddle) -> Tensor:
    """Wrap the explicit engine as a single differentiable op.

    Parents are the stacked dispatch tensor and every expert parameter,
    so a ``loss.backward()`` through the MoE layer drives the engine's
    explicit backward — including activation restoration — and lands
    parameter gradients in the usual ``.grad`` slots.
    """
    params: list[Tensor] = [
        p for row in engine.experts for expert in row for p in expert.parameters()
    ]
    out_data = engine.forward(ti_all.data)

    def backward(g: np.ndarray):
        before = [None if p.grad is None else p.grad.copy() for p in params]
        for p in params:
            p.zero_grad()
        dti = engine.backward(g)
        param_grads = []
        for p, prev in zip(params, before):
            this = p.grad if p.grad is not None else np.zeros_like(p.data)
            param_grads.append(this)
            p.grad = prev  # restore; the tape will re-accumulate
        return (dti, *param_grads)

    return _make(out_data, (ti_all, *params), backward)


def reference_middle(
    ti_all: np.ndarray, experts: Sequence[Sequence[ExpertFFN]]
) -> np.ndarray:
    """Sequential (n=1, no reuse) forward of the middle — test oracle."""
    engine = PipelinedMoEMiddle(experts, num_partitions=1, strategy="none")
    return engine.forward(ti_all)
