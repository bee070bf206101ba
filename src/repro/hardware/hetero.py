"""Heterogeneous-cluster subsystem: per-device capability maps.

The paper's performance model (Sec. III-E) — and every layer built on it
here — assumes a homogeneous DGX-A100 pool.  Real clusters diverge:
mixed A100/V100 partitions, thermally throttled stragglers, and
oversubscribed IB links all shift the (comp, comm, mem) balance that
Eq. 10 and Algorithm 1 optimize over.  This module is the capability
map for that regime:

* :class:`DeviceRates` — one device's (compute, communication, memcpy)
  rate multipliers relative to nominal (1.0 = full speed, 0.5 = a 2x
  straggler on that stream);
* :class:`DeviceRateTable` — per-*simulated-device* multipliers the
  :class:`~repro.sim.engine.SimEngine` consumes: the engine multiplies
  every interference slowdown by the op's device entry, so a DAG that
  spans devices realizes genuinely per-device speeds;
* :class:`HeteroClusterSpec` — maps each global rank (a
  :class:`~repro.hardware.topology.GpuId` position) to a possibly
  distinct :class:`~repro.hardware.device.DeviceSpec` plus explicit
  :class:`DeviceRates`, and derives everything the layers above need:
  the engine rate table, the topology's per-link bandwidth overrides,
  the bottleneck rates that rescale the Eq. 10 hardware speeds, and a
  stable hash the memoized evaluator keys on;
* :class:`StragglerModel` — named skew scenarios (uniform,
  single-slow-gpu, slow-node, degraded-link, seeded random jitter)
  compiled into a :class:`HeteroClusterSpec`.

Semantics of the representative-device evaluation
-------------------------------------------------
The MoE timeline simulates one representative device (all devices run
the symmetric schedule).  Heterogeneity enters along two distinct paths:

* **comm** is collective: every All-to-All is gated by the slowest
  participating link, so per-rank comm multipliers become *link
  bandwidth overrides* on the :class:`ClusterTopology` (the stage cost
  of every S/R op inflates for everyone) — see :meth:`link_overrides`;
* **comp/mem** are local: the iteration is gated by the slowest device
  through the loss barrier, so evaluation runs the timeline once per
  *distinct* (comp, mem) profile (:meth:`sim_profiles`) and takes the
  worst makespan.

A spec whose every rank composes to unit rates and the default device
is *degenerate*: ``sim_profiles()`` is empty, ``link_overrides()`` is
``None``, and every consumer collapses to the homogeneous fast path —
bit-identical to a world without this module.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import asdict, dataclass

from repro.config import ClusterSpec, DGX_A100_CLUSTER
from repro.hardware.device import A100_SXM_40GB, DeviceSpec
from repro.hardware.topology import LinkOverrides


@dataclass(frozen=True)
class DeviceRates:
    """Rate multipliers of one device, ordered (comp, comm, mem).

    The tuple order matches the engine's stream-kind indices
    (comp=0, comm=1, mem=2), so ``as_tuple()[kidx]`` is the multiplier
    for kind index ``kidx``.  Values above 1.0 are allowed (a device
    *faster* than the nominal one, e.g. an H100 in an A100 pool).
    """

    comp: float = 1.0
    comm: float = 1.0
    mem: float = 1.0

    def __post_init__(self) -> None:
        if min(self.comp, self.comm, self.mem) <= 0:
            raise ValueError("rate multipliers must be positive")

    @property
    def is_unit(self) -> bool:
        return self.comp == self.comm == self.mem == 1.0

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.comp, self.comm, self.mem)

    def compose(self, other: "DeviceRates") -> "DeviceRates":
        """Multiplicative composition (spec ratio x explicit override)."""
        if other.is_unit:
            return self
        if self.is_unit:
            return other
        return DeviceRates(
            self.comp * other.comp, self.comm * other.comm, self.mem * other.mem
        )


UNIT_RATES = DeviceRates()


def distinct_profiles(profiles) -> tuple[DeviceRates, ...]:
    """``profiles`` deduplicated in first-seen order.

    An empty tuple means every profile is unit — the evaluation layer
    then uses the plain homogeneous engine.
    """
    distinct = tuple(dict.fromkeys(profiles))
    return () if distinct == (UNIT_RATES,) else distinct


@dataclass(frozen=True)
class DeviceRateTable:
    """Per-simulated-device rate multipliers consumed by the engine.

    ``entries`` maps device indices (the :class:`~repro.sim.engine.Op`
    ``device`` field) to their :class:`DeviceRates`; devices without an
    entry run at ``default``.  An *identity* table (every entry and the
    default unit) is indistinguishable from no table: the engine checks
    :attr:`is_identity` and collapses to its homogeneous fast path, so
    degenerate hetero specs stay bit-identical to the seed engine.
    """

    entries: tuple[tuple[int, DeviceRates], ...] = ()
    default: DeviceRates = UNIT_RATES

    def __post_init__(self) -> None:
        lookup: dict[int, tuple[float, float, float]] = {}
        for device, rates in self.entries:
            if device < 0:
                raise ValueError(f"device index must be >= 0, got {device}")
            if device in lookup:
                raise ValueError(f"duplicate rate entry for device {device}")
            lookup[device] = rates.as_tuple()
        object.__setattr__(self, "_lookup", lookup)
        object.__setattr__(self, "_default_tuple", self.default.as_tuple())

    @property
    def is_identity(self) -> bool:
        return self.default.is_unit and all(r.is_unit for _, r in self.entries)

    def rates_for(self, device: int) -> DeviceRates:
        for dev, rates in self.entries:
            if dev == device:
                return rates
        return self.default

    def multipliers(self, device: int) -> tuple[float, float, float]:
        """(comp, comm, mem) multiplier tuple, indexable by kind index."""
        return self._lookup.get(device, self._default_tuple)


#: Named straggler scenarios :class:`StragglerModel` can compile.
#: The last two are multi-straggler *compositions* — more than one
#: fault at once, the non-trivial instances the placement optimizer
#: routes load around.
STRAGGLER_KINDS = (
    "uniform",
    "single-slow-gpu",
    "slow-node",
    "degraded-link",
    "random-jitter",
    "two-slow-gpus",
    "slow-gpu-degraded-link",
)


@dataclass(frozen=True)
class HeteroClusterSpec:
    """A cluster where every rank may have its own device and rates.

    ``device_overrides`` assigns distinct :class:`DeviceSpec` objects to
    specific global ranks (mixed pools); ``rate_overrides`` applies
    explicit multipliers on top (throttle, jitter, degraded NIC).  The
    *effective* rates of a rank (:meth:`rates_for`) compose the spec
    ratio relative to ``default_device`` — sustained-GEMM for comp,
    PCIe for mem — with its explicit override, so a V100 in an A100
    pool shows up as roughly a 0.36x comp / 1.0x mem device without any
    manual multiplier.  (Kernel-launch overhead and HBM differences are
    deliberately folded into that first-order ratio.)
    """

    cluster: ClusterSpec = DGX_A100_CLUSTER
    default_device: DeviceSpec = A100_SXM_40GB
    device_overrides: tuple[tuple[int, DeviceSpec], ...] = ()
    rate_overrides: tuple[tuple[int, DeviceRates], ...] = ()

    def __post_init__(self) -> None:
        world = self.cluster.world_size
        devs: dict[int, DeviceSpec] = {}
        for rank, spec in self.device_overrides:
            if not 0 <= rank < world:
                raise ValueError(f"device override rank {rank} outside [0, {world})")
            if rank in devs:
                raise ValueError(f"duplicate device override for rank {rank}")
            devs[rank] = spec
        rates: dict[int, DeviceRates] = {}
        for rank, r in self.rate_overrides:
            if not 0 <= rank < world:
                raise ValueError(f"rate override rank {rank} outside [0, {world})")
            if rank in rates:
                raise ValueError(f"duplicate rate override for rank {rank}")
            rates[rank] = r
        # Canonical (sorted) field order so equal maps hash/key equally.
        object.__setattr__(
            self, "device_overrides", tuple(sorted(devs.items()))
        )
        object.__setattr__(self, "rate_overrides", tuple(sorted(rates.items())))
        object.__setattr__(self, "_devs", devs)
        object.__setattr__(self, "_rates", rates)

    @classmethod
    def of(
        cls,
        cluster: ClusterSpec = DGX_A100_CLUSTER,
        device: DeviceSpec = A100_SXM_40GB,
        devices: dict[int, DeviceSpec] | None = None,
        rates: dict[int, DeviceRates] | None = None,
    ) -> "HeteroClusterSpec":
        """Mapping-friendly constructor."""
        return cls(
            cluster=cluster,
            default_device=device,
            device_overrides=tuple((devices or {}).items()),
            rate_overrides=tuple((rates or {}).items()),
        )

    # -- per-rank queries ------------------------------------------------------
    def _check_world(self, world_size: int | None) -> int:
        world = self.cluster.world_size if world_size is None else world_size
        if not 1 <= world <= self.cluster.world_size:
            raise ValueError(
                f"world_size must be in [1, {self.cluster.world_size}], got {world}"
            )
        return world

    def device_for(self, rank: int) -> DeviceSpec:
        if not 0 <= rank < self.cluster.world_size:
            raise IndexError(f"rank {rank} outside the cluster")
        return self._devs.get(rank, self.default_device)

    def spec_ratio(self, rank: int) -> DeviceRates:
        """First-order rate ratio of a rank's device vs the default one."""
        dev = self.device_for(rank)
        if dev == self.default_device:
            return UNIT_RATES
        base = self.default_device
        return DeviceRates(
            comp=dev.sustained_gemm_flops / base.sustained_gemm_flops,
            comm=1.0,  # injection bandwidth is a topology property
            mem=dev.pcie_bandwidth / base.pcie_bandwidth,
        )

    def rates_for(self, rank: int) -> DeviceRates:
        """Effective multipliers: device-spec ratio x explicit override."""
        explicit = self._rates.get(rank)
        ratio = self.spec_ratio(rank)
        if explicit is None:
            return ratio
        return ratio.compose(explicit)

    # -- derived views the layers above consume --------------------------------
    def homogeneous(self, world_size: int | None = None) -> bool:
        """True when every active rank collapses to the default device."""
        world = self._check_world(world_size)
        return all(
            self.rates_for(r).is_unit
            and self.device_for(r).memory_bytes == self.default_device.memory_bytes
            for r in range(world)
        )

    @property
    def is_homogeneous(self) -> bool:
        return self.homogeneous()

    def rate_table(self, world_size: int | None = None) -> DeviceRateTable:
        """Engine table mapping simulated device index == global rank."""
        world = self._check_world(world_size)
        entries = tuple(
            (r, self.rates_for(r))
            for r in range(world)
            if not self.rates_for(r).is_unit
        )
        return DeviceRateTable(entries=entries)

    def rank_profiles(self, world_size: int | None = None) -> tuple[DeviceRates, ...]:
        """Each active rank's (comp, mem) profile for the representative sim.

        Comm multipliers are deliberately stripped (set to 1.0): All-to-
        Alls are collectives whose degradation rides the topology's link
        overrides, pricing into every rank's stage costs.
        """
        world = self._check_world(world_size)
        return tuple(
            DeviceRates(comp=r.comp, mem=r.mem)
            for r in map(self.rates_for, range(world))
        )

    def sim_profiles(self, world_size: int | None = None) -> tuple[DeviceRates, ...]:
        """Distinct (comp, mem) device profiles for the representative sim
        (see :func:`distinct_profiles`)."""
        return distinct_profiles(self.rank_profiles(world_size))

    def link_overrides(self, world_size: int | None = None) -> LinkOverrides | None:
        """Per-link bandwidth scales derived from comm multipliers.

        A rank's comm multiplier scales its NVLink edge; a node's IB
        uplink is scaled by the *minimum* comm multiplier among its
        active ranks (the NIC pool is shared, so one degraded device
        drags the node's injection rate).  ``None`` when nothing is
        degraded — the topology then builds its nominal graph.
        """
        world = self._check_world(world_size)
        gpu_scale = []
        node_min: dict[int, float] = {}
        for rank in range(world):
            comm = self.rates_for(rank).comm
            node = rank // self.cluster.gpus_per_node
            node_min[node] = min(node_min.get(node, 1.0), comm)
            if comm != 1.0:
                gpu_scale.append((rank, comm))
        node_scale = [(n, s) for n, s in sorted(node_min.items()) if s != 1.0]
        if not gpu_scale and not node_scale:
            return None
        return LinkOverrides(
            gpu_scale=tuple(gpu_scale), node_scale=tuple(node_scale)
        )

    def bottleneck_rates(self, world_size: int | None = None) -> DeviceRates:
        """Per-kind minimum multiplier across active ranks.

        These rescale the Eq. 10 hardware speeds (W_comp, W_mem) for
        closed-form selection; comm is reported too but the selector's
        W_comm already absorbs it through the link-overridden topology.
        """
        world = self._check_world(world_size)
        comp = comm = mem = 1.0
        for rank in range(world):
            r = self.rates_for(rank)
            comp, comm, mem = min(comp, r.comp), min(comm, r.comm), min(mem, r.mem)
        return DeviceRates(comp=comp, comm=comm, mem=mem)

    def min_memory_bytes(self, world_size: int | None = None) -> int:
        """Smallest HBM capacity among active ranks — the OOM gate."""
        world = self._check_world(world_size)
        return min(self.device_for(r).memory_bytes for r in range(world))

    def bottleneck_rank(self, world_size: int | None = None) -> int:
        """The most degraded active rank (lowest worst-kind multiplier)."""
        world = self._check_world(world_size)
        return min(range(world), key=lambda r: min(self.rates_for(r).as_tuple()))

    def key(self) -> str:
        """Stable digest of the full spec, for memo/cache keying."""
        payload = json.dumps(
            {
                "cluster": asdict(self.cluster),
                "device": asdict(self.default_device),
                "devices": [(r, asdict(d)) for r, d in self.device_overrides],
                "rates": [(r, asdict(d)) for r, d in self.rate_overrides],
            },
            sort_keys=True,
        )
        return hashlib.sha1(payload.encode()).hexdigest()[:20]


@dataclass(frozen=True)
class StragglerModel:
    """Compile a named skew scenario into per-rank rate overrides.

    ``severity`` is the victim's rate multiplier (0.5 = half speed; 1.0
    degenerates every kind to the uniform cluster).  ``target`` is the
    victim rank (``single-slow-gpu``, ``degraded-link``) or node index
    (``slow-node``); ``seed`` drives ``random-jitter``, where every
    rank draws an independent compute multiplier uniformly from
    [severity, 1.0).
    """

    kind: str = "uniform"
    severity: float = 1.0
    target: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in STRAGGLER_KINDS:
            raise ValueError(
                f"unknown straggler kind {self.kind!r}; available: {STRAGGLER_KINDS}"
            )
        if not 0 < self.severity <= 1:
            raise ValueError("severity must be in (0, 1]")
        if self.target < 0:
            raise ValueError("target must be >= 0")

    def rate_overrides(
        self, cluster: ClusterSpec
    ) -> tuple[tuple[int, DeviceRates], ...]:
        world = cluster.world_size
        if self.kind == "uniform" or self.severity == 1.0:
            return ()
        if self.kind == "single-slow-gpu":
            # Thermal throttle: SM clocks drop, the NIC and PCIe do not.
            self._check_rank(world)
            return ((self.target, DeviceRates(comp=self.severity)),)
        if self.kind == "slow-node":
            # Oversubscribed host: compute and PCIe copies both suffer.
            g = cluster.gpus_per_node
            if self.target >= cluster.num_nodes:
                raise ValueError(
                    f"target node {self.target} outside [0, {cluster.num_nodes})"
                )
            rates = DeviceRates(comp=self.severity, mem=self.severity)
            base = self.target * g
            return tuple((base + local, rates) for local in range(g))
        if self.kind == "degraded-link":
            self._check_rank(world)
            return ((self.target, DeviceRates(comm=self.severity)),)
        if self.kind == "two-slow-gpus":
            # Composition: two thermally-throttled GPUs, maximally far
            # apart — the target and its antipode — so one slow device
            # per half of the machine.
            self._check_rank(world)
            if world < 2:
                raise ValueError("two-slow-gpus needs world_size >= 2")
            other = (self.target + world // 2) % world
            rates = DeviceRates(comp=self.severity)
            return ((self.target, rates), (other, rates))
        if self.kind == "slow-gpu-degraded-link":
            # Composition: the target's SMs throttle while its
            # *neighbour's* injection link degrades — compute and comm
            # faults on different ranks, so no single-victim rescale can
            # describe the cluster.
            self._check_rank(world)
            if world < 2:
                raise ValueError("slow-gpu-degraded-link needs world_size >= 2")
            neighbour = (self.target + 1) % world
            return (
                (self.target, DeviceRates(comp=self.severity)),
                (neighbour, DeviceRates(comm=self.severity)),
            )
        # random-jitter: seeded, rank-indexed, world-size independent for
        # the first min(world, world') ranks of two differently-sized runs.
        rng = random.Random(self.seed)
        out = []
        for rank in range(world):
            # Uniform in [severity, 1.0): the floor is realizable and no
            # rank sits exactly at nominal speed.
            comp = self.severity + (1.0 - self.severity) * rng.random()
            out.append((rank, DeviceRates(comp=comp)))
        return tuple(out)

    def _check_rank(self, world: int) -> None:
        if self.target >= world:
            raise ValueError(f"target rank {self.target} outside [0, {world})")

    def build(
        self,
        cluster: ClusterSpec = DGX_A100_CLUSTER,
        device: DeviceSpec = A100_SXM_40GB,
    ) -> HeteroClusterSpec:
        """The scenario as a full :class:`HeteroClusterSpec`."""
        return HeteroClusterSpec(
            cluster=cluster,
            default_device=device,
            rate_overrides=self.rate_overrides(cluster),
        )
