"""Shared plumbing of the system models."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.comm.cost import NcclCostModel
from repro.config import ClusterSpec, DGX_A100_CLUSTER, MoELayerSpec
from repro.hardware.device import A100_SXM_40GB, DeviceSpec
from repro.hardware.hetero import (
    DeviceRates,
    DeviceRateTable,
    HeteroClusterSpec,
    distinct_profiles,
)
from repro.hardware.topology import ClusterTopology
from repro.memory.footprint import FootprintModel
from repro.perfmodel.evalcache import Evaluator
from repro.perfmodel.workload import WorkloadSpec
from repro.sim.engine import SimEngine, Timing


@dataclass(frozen=True)
class SystemReport:
    """One system's performance at one operating point."""

    system: str
    spec_name: str
    batch: int
    world_size: int
    iteration_time: float  # seconds, forward + backward of the MoE layer
    peak_memory_bytes: int  # per device
    num_partitions: int = 1
    strategy: str = "none"
    comp_utilization: float = 0.0

    def speedup_over(self, other: "SystemReport") -> float:
        return other.iteration_time / self.iteration_time

    def memory_vs(self, other: "SystemReport") -> float:
        return self.peak_memory_bytes / other.peak_memory_bytes


@dataclass
class SystemContext:
    """Cluster/device context shared by all system models in a comparison.

    The context also owns the memoized :class:`Evaluator`: every system
    model built on one context shares stage costs, makespans, footprints
    and recorded sims, so e.g. the granularity search and the strategy
    search stop recomputing each other's work.

    ``hetero`` installs a heterogeneous cluster: ``cluster`` and
    ``device`` are derived from it (its base cluster and default
    device), the topology carries its per-link bandwidth overrides, and
    evaluation runs the timeline once per distinct device profile,
    gating the iteration on the slowest one.  Every system model built
    on the context — and both MPipeMoE selection paths — therefore
    re-runs its Eq. 10 / Algorithm 1 searches under the skew.  A
    degenerate (all-identical) hetero spec has no profiles and no
    overrides: every layer collapses to the homogeneous fast path.
    """

    cluster: ClusterSpec = DGX_A100_CLUSTER
    device: DeviceSpec = A100_SXM_40GB
    world_size: int | None = None  # default: full cluster
    hetero: HeteroClusterSpec | None = None
    evaluator_max_entries: int | None = None  # LRU cap on the shared memo

    def __post_init__(self) -> None:
        overrides = None
        if self.hetero is not None:
            self.cluster = self.hetero.cluster
            self.device = self.hetero.default_device
            overrides = self.hetero.link_overrides(self.effective_world)
        self.topology = ClusterTopology(self.cluster, overrides)
        self.engine = SimEngine()
        self._rank_rates = (
            ()
            if self.hetero is None
            else self.hetero.rank_profiles(self.effective_world)
        )
        self._sim_profiles = distinct_profiles(self._rank_rates)
        self._profile_engines: dict[DeviceRates, SimEngine] = {}
        self.evaluator = Evaluator(self, max_entries=self.evaluator_max_entries)

    @property
    def effective_world(self) -> int:
        return self.world_size or self.cluster.world_size

    # -- heterogeneous views ------------------------------------------------
    @property
    def sim_profiles(self) -> tuple[DeviceRates, ...]:
        """Distinct (comp, mem) device profiles; empty when homogeneous."""
        return self._sim_profiles

    @property
    def rank_rates(self) -> tuple[DeviceRates, ...]:
        """Each active rank's (comp, mem) profile, resolved once; empty
        without a hetero spec.  Placed workloads compose per rank from it."""
        return self._rank_rates

    def engine_for(self, profile: DeviceRates) -> SimEngine:
        """An engine whose every simulated device runs at ``profile``.

        The representative-device timeline lives on one simulated
        device, so a default-only rate table prices "this device is the
        straggler" exactly; engines are cached per profile so their
        flat rate tables amortize across the whole study.
        """
        engine = self._profile_engines.get(profile)
        if engine is None:
            engine = SimEngine(device_rates=DeviceRateTable(default=profile))
            self._profile_engines[profile] = engine
        return engine

    @property
    def device_memory_bytes(self) -> int:
        """HBM capacity gating OOM checks: the smallest active device."""
        if self.hetero is None:
            return self.device.memory_bytes
        return self.hetero.min_memory_bytes(self.effective_world)

    @property
    def hetero_key(self) -> str:
        """Stable digest of the hetero spec ("" when homogeneous)."""
        return "" if self.hetero is None else self.hetero.key()

    def comm_model(self) -> NcclCostModel:
        return NcclCostModel(self.topology, self.effective_world)

    def footprint(
        self, spec: MoELayerSpec, workload: WorkloadSpec | None = None
    ) -> FootprintModel:
        return FootprintModel(spec, self.effective_world, workload=workload)


class SystemModel:
    """Base class: subclasses implement :meth:`evaluate`.

    ``workload`` (a :class:`~repro.perfmodel.workload.WorkloadSpec`)
    makes the evaluation routing-aware — top-k fan-out, activation
    dtype, gating skew, per-expert capacity; ``None`` (and any neutral
    spec) reproduces the paper's k=1 / half-precision / uniform
    defaults bit for bit.
    """

    name = "base"

    def __init__(self, context: SystemContext | None = None) -> None:
        self.context = context or SystemContext()

    def evaluate(
        self,
        spec: MoELayerSpec,
        batch: int,
        workload: WorkloadSpec | None = None,
    ) -> SystemReport:
        raise NotImplementedError

    def _report(
        self,
        spec: MoELayerSpec,
        batch: int,
        timing: Timing,
        memory: int,
        n: int = 1,
        strategy: str = "none",
    ) -> SystemReport:
        """Build the report from the evaluator's memoized ``timing``.

        :meth:`Evaluator.timing` carries the gating run's makespan and
        device 0's comp busy time, the two numbers a report reads, so
        no run is recorded for it.
        """
        return SystemReport(
            system=self.name,
            spec_name=spec.name,
            batch=batch,
            world_size=self.context.effective_world,
            iteration_time=timing.makespan,
            peak_memory_bytes=memory,
            num_partitions=n,
            strategy=strategy,
            comp_utilization=timing.comp_utilization,
        )
