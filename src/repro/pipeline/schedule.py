"""Timing-layer schedule construction (Fig. 4(b) and Fig. 7 timelines).

Builds the Op DAG of one MoE layer's forward and backward on a
representative device — all devices run the symmetric schedule, so one
device's three lanes (comp / comm / mem) determine the iteration time.

Stage durations come from :class:`MoEStageCosts`; lane interference is
applied by the :class:`~repro.sim.engine.SimEngine` at run time, which
is how the paper's mu/eta factors (Table II) enter the makespan.

Comm-lane FIFO order interleaves S and R ops ("we schedule S and R to
be executed in the alternative manner", Sec. III-D); mem-lane offload
(D) ops follow their producing stage and backward prefetch (H) ops are
enqueued ahead of need, matching Fig. 7(b)-(d).

The DAG *topology* depends only on ``(n, strategy, decomposed_comm,
sequential)`` — stage costs only scale op works.  So one cached
:class:`TimelineTemplate` is built per topology;
:func:`build_timeline` instantiates :class:`Op` objects from it, while
:func:`compile_timeline` pairs it with a
:class:`~repro.sim.engine.CompiledDag` so selector loops can re-price
the same schedule for thousands of scenarios without building Ops at
all.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.comm.cost import (
    NCCL_LATENCY,
    P2P_LATENCY,
    STRAGGLER_FACTOR,
    NcclCostModel,
)
from repro.config import MoELayerSpec
from repro.hardware.device import DeviceSpec
from repro.hardware.interference import StreamKind
from repro.memory.strategies import RestoreMethod, Strategy, get_strategy
from repro.sim.engine import CompiledDag, Op, SimEngine, SimResult, compile_dag

if TYPE_CHECKING:  # imported lazily at call time to stay cycle-free
    from repro.perfmodel.workload import WorkloadSpec

#: Activations travel in half precision on the wire/HBM in the paper's setup.
#: (Equal by contract to ``DTYPE_BYTES[TIMING_DTYPE]`` in
#: :mod:`repro.perfmodel.workload`, which cannot be imported here at
#: module scope without a cycle — a test pins the two together.)
TIMING_BYTES_PER_ELEM = 2

#: GEMM rows at which a kernel reaches ~50% of its saturated throughput.
#: Small micro-batches cannot fill the SMs — the cause of the GPU
#: under-utilisation at small B in Fig. 2 and of the fine-granularity
#: penalty in Fig. 12.  512 calibrates the adaptive-granularity bands to
#: the paper's (n=2 below 8k, n=4 to ~22k, n=8 beyond).
GEMM_SATURATION_ROWS = 512


def stage_volumes(spec: MoELayerSpec, b, bytes_per_elem) -> tuple:
    """Eq. 7-8 volumes of one ``b``-row micro-batch: ``(v_comp, v_comm)``.

    ``v_comp`` is one GEMM's 2*b*M*H FLOPs and ``v_comm`` one
    All-to-All's b*M*bytes, which Eq. 9 reuses as ``v_mem`` (one TDI
    PCIe copy).  Plain arithmetic: ints give floats, int64 arrays give
    float64 arrays.
    """
    m = spec.d_model
    return 2.0 * b * m * spec.d_hidden, 1.0 * (b * m * bytes_per_elem)


@dataclass(frozen=True)
class MoEStageCosts:
    """Unimpeded per-partition stage durations (seconds).

    ``b = B / n`` tokens per micro-batch; two GEMMs of 2*b*M*H FLOPs each
    per forward stage (Eq. 7), All-to-Alls of b*M elements (Eq. 8), and
    PCIe copies of b*M / b*H elements (Eq. 9 and the H/M scaling noted
    under Table II).
    """

    s_time: float  # one fine-grained All-to-All (S or R)
    c_fw_time: float  # expert forward: 2 GEMMs
    c_bw_time: float  # expert backward: 4 GEMMs
    recompute_time: float  # 1 GEMM restoring TM
    offload_tdi_time: float  # PCIe copy of a TDI chunk
    offload_tm_time: float  # PCIe copy of a TM chunk
    p2p_s_time: float  # decomposed (FasterMoE-style) exchange of same bytes

    @classmethod
    def compute(
        cls,
        spec: MoELayerSpec,
        batch: int,
        n: int,
        device: DeviceSpec,
        comm: NcclCostModel,
        gemm_derate: float = 1.0,
        workload: "WorkloadSpec | None" = None,
        rows_override: int | None = None,
    ) -> "MoEStageCosts":
        """Derive stage costs for per-device batch ``batch`` split n ways.

        ``gemm_derate`` scales compute throughput below the device's
        sustained rate — used to model baselines that do not hit the
        tensor-core path (Sec. V-C: "PipeMoE also takes advantage of
        Tensor Core").

        ``workload`` (a :class:`~repro.perfmodel.workload.WorkloadSpec`)
        makes the pricing routing-aware: the batch is replaced by the
        bottleneck device's routed row count (top-k fan-out, gating
        skew, per-expert capacity padding) and every byte term — the
        All-to-Alls, the point-to-point exchange *and* the PCIe offload
        copies — uses the workload's activation width, so a non-default
        dtype can never price comm and memcpy inconsistently.  Without
        a workload every byte term is half precision
        (:data:`TIMING_BYTES_PER_ELEM`).  A neutral workload (or
        ``None``) reproduces the k=1 / half-precision / uniform pricing
        bit for bit.

        ``rows_override`` substitutes a specific rank's row count for
        the workload's bottleneck scalar — the per-rank hetero
        composition prices each rank's own load against that rank's own
        device rates.  Only meaningful with a workload.

        When the workload carries a non-default placement, both
        All-to-All flavours are additionally priced against the
        placement's per-rank traffic view (a degraded link only gates
        the collective in proportion to the traffic the placement
        actually routes over it).
        """
        if batch < 1 or n < 1:
            raise ValueError("batch and n must be >= 1")
        if not 0 < gemm_derate <= 1:
            raise ValueError("gemm_derate must be in (0, 1]")
        traffic = None
        if workload is not None:
            bytes_per_elem = workload.bytes_per_elem
            if workload.placed:
                load = workload.load(spec, batch, comm.effective_world)
                rows = load.device_rows
                traffic = load.traffic()
            else:
                rows = workload.device_rows(spec, batch, comm.effective_world)
            if rows_override is not None:
                if rows_override < 0:
                    raise ValueError("rows_override must be >= 0")
                rows = max(1, rows_override)
        else:
            if rows_override is not None:
                raise ValueError("rows_override needs a workload")
            bytes_per_elem = TIMING_BYTES_PER_ELEM
            rows = batch
        return cls.from_rows(
            spec, rows, n, device, comm, bytes_per_elem, gemm_derate, traffic
        )

    @classmethod
    def from_rows(
        cls,
        spec: MoELayerSpec,
        rows,
        n: int,
        device: DeviceSpec,
        comm: NcclCostModel,
        bytes_per_elem,
        gemm_derate: float = 1.0,
        traffic: tuple[float, ...] | None = None,
    ) -> "MoEStageCosts":
        """Stage costs of ``rows`` bottleneck rows split ``n`` ways.

        The one body of the Eq. 7-9 arithmetic.  It runs unchanged on
        Python ints (:meth:`compute`, after validating and resolving a
        point) and on int64 arrays with one entry per scenario (the
        whole-grid :mod:`repro.perfmodel.batcheval`).  The device and
        collective op times are inlined without their scalar argument
        checks, the collective bandwidth resolved once for both
        All-to-All flavours; a test pins every field to those helpers.
        """
        b = -(-rows // n)  # ceil: the last micro-batch may be padded
        gemm_flops, comm_bytes = stage_volumes(spec, b, bytes_per_elem)
        rate = gemm_derate * (b / (b + GEMM_SATURATION_ROWS))
        sustained = device.sustained_gemm_flops
        launch = device.kernel_launch_overhead
        pcie = device.pcie_bandwidth

        def gemm_time(num: int):
            return (num * gemm_flops / sustained + num * launch) / rate

        w = comm.effective_world
        if w == 1:
            s_time = p2p_s_time = 0.0
        else:
            cross = comm_bytes * (w - 1) / w
            bw = comm.collective_bandwidth(w, traffic=traffic)
            s_time = NCCL_LATENCY + cross / bw
            p2p_s_time = (w - 1) * P2P_LATENCY + cross / (bw / STRAGGLER_FACTOR)
        return cls(
            s_time=s_time,
            c_fw_time=gemm_time(2),
            c_bw_time=gemm_time(4),
            recompute_time=gemm_time(1),
            offload_tdi_time=comm_bytes / pcie + launch,
            offload_tm_time=b * spec.d_hidden * bytes_per_elem / pcie + launch,
            p2p_s_time=p2p_s_time,
        )


@dataclass(eq=False)
class _TmplOp:
    """Template op: like :class:`Op` but with symbolic work.

    ``fields`` names the :class:`MoEStageCosts` attributes whose sum is
    the op's work (empty = zero-work barrier).  Identity hashing so the
    interleave helper can treat template ops like Ops.
    """

    name: str
    stream: StreamKind
    fields: tuple[str, ...]
    deps: list["_TmplOp"] = field(default_factory=list)
    tag: str = ""


@dataclass(frozen=True)
class TimelineTemplate:
    """One ``build_timeline`` topology frozen into index form.

    Ops are positions in lane-submission order; ``deps`` are indices of
    earlier positions, ``fields`` the cost attributes summed into each
    op's work.  Instantiating with a :class:`MoEStageCosts` reproduces
    exactly the Op list the pre-template builder emitted.
    """

    names: tuple[str, ...]
    streams: tuple[StreamKind, ...]
    fields: tuple[tuple[str, ...], ...]
    deps: tuple[tuple[int, ...], ...]
    tags: tuple[str, ...]

    def __post_init__(self) -> None:
        # Ops sharing a fields-tuple share one work value, so the fill
        # loop below resolves each distinct cost expression once instead
        # of per op.  (frozen dataclass: assign via object.__setattr__)
        groups: dict[tuple[str, ...], list[int]] = {}
        for i, fields in enumerate(self.fields):
            groups.setdefault(fields, []).append(i)
        object.__setattr__(
            self, "_work_groups",
            tuple((fields, tuple(idx)) for fields, idx in groups.items()),
        )

    def works(self, costs: MoEStageCosts) -> list[float]:
        """Per-op work vector under ``costs``."""
        out = [0.0] * len(self.fields)
        for fields, indices in self._work_groups:
            if not fields:
                continue
            value = getattr(costs, fields[0])
            for f in fields[1:]:
                # Not ``+=``: array-valued costs must never be mutated.
                value = value + getattr(costs, f)
            for i in indices:
                out[i] = value
        return out

    def works_matrix(self, costs: MoEStageCosts, size: int):
        """:meth:`works` of ``size`` scenarios as a (size, num_ops) matrix.

        ``costs`` holds (size,) float64 arrays, one entry per scenario
        (:meth:`MoEStageCosts.from_rows` over a group's rows); scalar
        fields and zero-work barriers broadcast down their column.  It
        is filled one op at a time, so the matrix is column-major.
        """
        import numpy as np

        works = self.works(costs)
        out = np.empty((len(works), size))
        for i, w in enumerate(works):
            out[i] = w
        return out.T

    def instantiate(self, costs: MoEStageCosts, device: int = 0) -> list[Op]:
        """Materialize the template as fresh :class:`Op` objects."""
        works = self.works(costs)
        ops: list[Op] = []
        for i, (name, stream, dep_idx, tag) in enumerate(
            zip(self.names, self.streams, self.deps, self.tags)
        ):
            ops.append(
                Op(name, device, stream, works[i],
                   tuple(ops[d] for d in dep_idx), tag)
            )
        return ops


def _build_template(
    n: int,
    strat: Strategy,
    decomposed_comm: bool,
    sequential: bool,
) -> TimelineTemplate:
    """Construct the (n, strategy) topology once, symbolically."""
    if n < 1:
        raise ValueError("n must be >= 1")
    s_field = "p2p_s_time" if decomposed_comm else "s_time"
    ops: list[_TmplOp] = []

    def op(name, stream, fields, deps=(), tag=""):
        o = _TmplOp(name, stream, tuple(fields), list(deps), tag)
        ops.append(o)
        return o

    # ---------------------------------------------------------------- forward
    s_ops, c_ops, r_ops = [], [], []
    d_ops = []  # device-to-host offloads
    prev_serial = None
    for j in range(n):
        s_deps = []
        if sequential and prev_serial is not None:
            s_deps.append(prev_serial)
        s_j = op(f"S{j}", StreamKind.COMM, [s_field], s_deps, tag="S")
        c_j = op(f"C{j}", StreamKind.COMP, ["c_fw_time"], [s_j], tag="C")
        r_j = op(f"R{j}", StreamKind.COMM, [s_field], [c_j], tag="R")
        s_ops.append(s_j)
        c_ops.append(c_j)
        r_ops.append(r_j)
        prev_serial = r_j
        if strat.tdi is RestoreMethod.OFFLOAD:
            d_ops.append(
                op(f"D_tdi{j}", StreamKind.MEM, ["offload_tdi_time"], [s_j], tag="D")
            )
        if strat.tm is RestoreMethod.OFFLOAD:
            d_ops.append(
                op(f"D_tm{j}", StreamKind.MEM, ["offload_tm_time"], [c_j], tag="D")
            )

    # Comm-lane FIFO: reorder the list so S and R alternate (S0 S1 R0 S2 R1 ...).
    # Sequential timelines keep natural order — S_{j+1} depends on R_j, so
    # hoisting it ahead in the lane would deadlock the FIFO.
    if not sequential:
        _interleave_comm(ops, s_ops, r_ops)

    # --------------------------------------------------------- boundary
    # The loss/classifier between forward and backward of this layer.
    boundary_deps = list(r_ops) + d_ops
    loss = op("loss", StreamKind.COMP, (), boundary_deps, tag="X")

    # --------------------------------------------------------- backward
    rb_ops, sb_ops = [], []
    prev_serial = loss
    for j in range(n):
        rb_deps = [loss]
        if sequential:
            rb_deps.append(prev_serial)
        rb_j = op(f"Rb{j}", StreamKind.COMM, [s_field], rb_deps, tag="R")
        cb_deps = [rb_j]
        # Restore TDI.
        if strat.tdi is RestoreMethod.OFFLOAD:
            cb_deps.append(
                op(f"H_tdi{j}", StreamKind.MEM, ["offload_tdi_time"], [loss],
                   tag="H")
            )
        elif strat.tdi is RestoreMethod.RECOMM:
            cb_deps.append(
                op(f"S'_{j}", StreamKind.COMM, [s_field], [loss], tag="S")
            )
        # Restore TM.
        if strat.tm is RestoreMethod.OFFLOAD:
            cb_deps.append(
                op(f"H_tm{j}", StreamKind.MEM, ["offload_tm_time"], [loss],
                   tag="H")
            )
        cb_fields = ["c_bw_time"] + (
            ["recompute_time"] if strat.tm is RestoreMethod.RECOMPUTE else []
        )
        cb_j = op(f"Cb{j}", StreamKind.COMP, cb_fields, cb_deps, tag="C")
        sb_j = op(f"Sb{j}", StreamKind.COMM, [s_field], [cb_j], tag="S")
        rb_ops.append(rb_j)
        sb_ops.append(sb_j)
        prev_serial = sb_j

    if not sequential:
        _interleave_comm(ops, rb_ops, sb_ops)

    index = {id(o): i for i, o in enumerate(ops)}
    deps = tuple(tuple(index[id(d)] for d in o.deps) for o in ops)
    # The interleave only ever moves producers earlier, so positions stay
    # a valid topological order — which instantiate() relies on.
    assert all(d < i for i, dd in enumerate(deps) for d in dd)
    return TimelineTemplate(
        names=tuple(o.name for o in ops),
        streams=tuple(o.stream for o in ops),
        fields=tuple(o.fields for o in ops),
        deps=deps,
        tags=tuple(o.tag for o in ops),
    )


_TEMPLATES: dict[tuple, TimelineTemplate] = {}
_COMPILED: dict[tuple, "CompiledTimeline"] = {}


def timeline_template(
    n: int,
    strategy: Strategy | str = "none",
    decomposed_comm: bool = False,
    sequential: bool = False,
) -> TimelineTemplate:
    """Cached topology lookup — one template per (n, strategy, flags).

    Strategy names key the cache directly (hashing a string beats
    hashing a Strategy dataclass on the hot path); Strategy objects key
    on the object, so a name and its registered object may each hold an
    (identical) template — a few dozen bytes, not worth unifying.
    """
    key = (n, strategy, decomposed_comm, sequential)
    template = _TEMPLATES.get(key)
    if template is None:
        strat = get_strategy(strategy) if isinstance(strategy, str) else strategy
        template = _build_template(n, strat, decomposed_comm, sequential)
        _TEMPLATES[key] = template
    return template


def build_timeline(
    costs: MoEStageCosts,
    n: int,
    strategy: Strategy | str = "none",
    device: int = 0,
    decomposed_comm: bool = False,
    sequential: bool = False,
) -> list[Op]:
    """Ops for one layer's forward and backward at granularity ``n``.

    ``sequential=True`` chains every stage (FastMoE / PipeMoE(n=1)
    semantics: no overlap even across lanes).  ``decomposed_comm`` prices
    All-to-Alls with the point-to-point decomposition (FasterMoE).
    """
    template = timeline_template(n, strategy, decomposed_comm, sequential)
    return template.instantiate(costs, device=device)


@dataclass(frozen=True)
class CompiledTimeline:
    """A timeline topology bound to its :class:`CompiledDag`.

    ``makespan(costs)`` prices the schedule without constructing a
    single :class:`Op` — the per-scenario cost is just the work-vector
    fill plus the engine's index-array event loop.
    """

    template: TimelineTemplate
    dag: CompiledDag

    def works(self, costs: MoEStageCosts) -> list[float]:
        return self.template.works(costs)

    def makespan(self, costs: MoEStageCosts, engine: SimEngine | None = None) -> float:
        return (engine or SimEngine()).compiled_makespan(
            self.dag, self.template.works(costs)
        )


def compile_timeline(
    n: int,
    strategy: Strategy | str = "none",
    device: int = 0,
    decomposed_comm: bool = False,
    sequential: bool = False,
) -> CompiledTimeline:
    """Cached compiled form of one ``build_timeline`` topology."""
    key = (n, strategy, decomposed_comm, sequential, device)
    compiled = _COMPILED.get(key)
    if compiled is None:
        template = timeline_template(n, strategy, decomposed_comm, sequential)
        dag = compile_dag(template.instantiate(_UNIT_COSTS, device=device))
        compiled = CompiledTimeline(template=template, dag=dag)
        _COMPILED[key] = compiled
    return compiled


#: Placeholder costs used only to materialize a template for compilation
#: (the compiled dag's default work vector is never read by the cache).
_UNIT_COSTS = MoEStageCosts(
    s_time=1.0, c_fw_time=1.0, c_bw_time=1.0, recompute_time=1.0,
    offload_tdi_time=1.0, offload_tm_time=1.0, p2p_s_time=1.0,
)


def _interleave_comm(ops: list, first: list, second: list) -> None:
    """Reorder ``ops`` in place so the comm lane sees S/R alternating.

    Lane order is submission order in the simulator; we pull the comm ops
    of ``first``/``second`` into the interleaved sequence
    f0, f1, s0, f2, s1, ..., s{n-1} while leaving non-comm ops where they
    are (only relative order within a lane matters).
    """
    n = len(first)
    desired: list = []
    for j in range(n):
        desired.append(first[j])
        if j >= 1:
            desired.append(second[j - 1])
    desired.append(second[n - 1])
    members = set(map(id, first)) | set(map(id, second))
    comm_positions = [i for i, o in enumerate(ops) if id(o) in members]
    for pos, o in zip(comm_positions, desired):
        ops[pos] = o


def timeline_makespan(ops: list[Op], engine: SimEngine | None = None) -> SimResult:
    """Run a timeline through the interference simulator."""
    return (engine or SimEngine()).run(ops)
