"""Shared memoized simulation evaluator for the system models.

Every figure/table reproduction bottoms out in the same few quantities —
:class:`~repro.pipeline.schedule.MoEStageCosts` for an operating point,
the makespan of one ``(n, strategy)`` timeline, the footprint of a
``(batch, n)`` configuration — and before this layer each searcher
recomputed them independently: ``PipeMoEModel.choose_n`` simulated every
granularity candidate, ``MPipeMoEModel._simulated_strategy`` ran four
more full sims per evaluate, and both rebuilt identical Op DAGs.

:class:`Evaluator` memoizes all of it behind one object that a
:class:`~repro.systems.base.SystemContext` owns, so the n-search, the
strategy-search, and the final report all share results.  Timelines are
priced on their compiled DAGs by schedule replay
(:meth:`~repro.sim.engine.SimEngine.timing`: no Op or OpRecord
allocation, and the event loop runs only when no recorded schedule
fits); one memo entry holds the makespan and device 0's comp busy time,
which is all a system report reads, so a report on a point the search
already priced is a memo hit.  Recorded sims, for trace readers, are
cached separately.  The uncached seed path — fresh costs, fresh Op DAG,
recorded run — is the test suite's ``ColdEvaluator``
(``tests/oracles.py``), the oracle the cache-correctness tests compare
this class to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.config import MoELayerSpec
from repro.hardware.hetero import DeviceRates
from repro.memory.footprint import FootprintModel
from repro.perfmodel.cost import HardwareRates, PerfModel
from repro.perfmodel.selector import StrategySelector
from repro.perfmodel.workload import WorkloadSpec
from repro.pipeline.schedule import MoEStageCosts, compile_timeline
from repro.sim.engine import SimResult, Timing

if TYPE_CHECKING:  # avoid a runtime import cycle with repro.systems.base
    from repro.systems.base import SystemContext


@dataclass
class EvalStats:
    """Hit/miss counters, one pair per memo table."""

    cost_hits: int = 0
    cost_misses: int = 0
    makespan_hits: int = 0
    makespan_misses: int = 0
    sim_hits: int = 0
    sim_misses: int = 0
    footprint_hits: int = 0
    footprint_misses: int = 0


def _gating(dag, runs) -> tuple[int, Timing]:
    """Index and replayed timing of the run that gates the iteration:
    the worst makespan, ties to the first run (``max()``'s order)."""
    gate_index, gate = 0, None
    for index, (engine, works) in enumerate(runs):
        timing = engine.timing(dag, works)
        if gate is None or timing.makespan > gate.makespan:
            gate_index, gate = index, timing
    return gate_index, gate


@dataclass
class Evaluator:
    """Memoized evaluation core shared by systems, selectors, and sweeps.

    Keys include everything the cached value depends on —
    ``(hetero-spec hash, spec, batch, n, strategy, decomposed,
    sequential, gemm_derate, workload)`` — while cluster, device, and
    interference are fixed per evaluator because they are fixed per
    :class:`SystemContext`.  The ``workload``
    (:class:`~repro.perfmodel.workload.WorkloadSpec`) is per-call like
    ``gemm_derate``: one shared context serves scenarios at different
    top-k / dtype / gating-skew settings without cross-talk.  The hetero hash makes keys globally
    unambiguous even if memo contents are ever compared or merged
    across contexts (and it is what the sweep's on-disk scenario cache
    inherits through the scenario fields).  The memo tables are plain
    dicts that grow for the evaluator's lifetime; the sweep's context
    pool bounds how many evaluators a process keeps.

    Heterogeneous contexts evaluate each timeline once per distinct
    device profile (the straggler and its healthy peers) and return the
    worst makespan — the loss barrier synchronizes every device, so the
    slowest one gates the iteration.  Homogeneous contexts have no
    profiles and run the single-engine fast path unchanged.
    """

    context: "SystemContext"
    stats: EvalStats = field(default_factory=EvalStats)

    def __post_init__(self) -> None:
        self._comm = None
        self._costs: dict = {}
        self._makespans: dict = {}
        self._sims: dict = {}
        self._footprints: dict = {}  # keyed (spec, workload)
        self._footprint_bytes: dict = {}
        self._selectors: dict = {}  # keyed (spec, workload)
        self._memos = (
            self._costs, self._makespans, self._sims,
            self._footprint_bytes, self._footprints, self._selectors,
        )
        self._hkey = self.context.hetero_key

    # -- shared building blocks ------------------------------------------------
    def comm_model(self):
        """The context's NCCL cost model, constructed once."""
        if self._comm is None:
            self._comm = self.context.comm_model()
        return self._comm

    def footprint(
        self, spec: MoELayerSpec, workload: WorkloadSpec | None = None
    ) -> FootprintModel:
        key = (spec, workload)
        fp = self._footprints.get(key)
        if fp is None:
            fp = self.context.footprint(spec, workload)
            self._footprints[key] = fp
        return fp

    def stage_costs(
        self,
        spec: MoELayerSpec,
        batch: int,
        n: int,
        gemm_derate: float = 1.0,
        workload: WorkloadSpec | None = None,
        rows: int | None = None,
    ) -> MoEStageCosts:
        """Memoized :meth:`MoEStageCosts.compute` for one operating point.

        ``rows`` substitutes one rank's row count for the workload's
        bottleneck scalar (the per-rank hetero composition); it joins
        the memo key like every other input.
        """
        key = (self._hkey, spec, batch, n, gemm_derate, workload, rows)
        costs = self._costs.get(key)
        if costs is None:
            self.stats.cost_misses += 1
            costs = MoEStageCosts.compute(
                spec, batch, n, self.context.device, self.comm_model(),
                gemm_derate=gemm_derate, workload=workload,
                rows_override=rows,
            )
            self._costs[key] = costs
        else:
            self.stats.cost_hits += 1
        return costs

    # -- placement-aware hetero composition ------------------------------------
    def _placement_pairs(
        self, spec: MoELayerSpec, batch: int, workload: WorkloadSpec
    ) -> list[tuple[int, DeviceRates]]:
        """Distinct (rows, device profile) pairs for a placed workload.

        The seed hetero path runs the *bottleneck* costs through every
        distinct device profile and keeps the worst — correct when the
        hot load implicitly sits on every candidate device.  With an
        explicit placement each rank's own anchored row count joins that
        rank's own comp/mem rates (comm stays unit: link skew is already
        priced into the collective through the topology's traffic view),
        so "hot expert on the slow device" and "hot expert on the fast
        device" finally price differently.
        """
        load = workload.load(spec, batch, self.context.effective_world)
        rank_rates = self.context.rank_rates
        pairs: dict[tuple[int, DeviceRates], None] = {}
        for rank, rank_rows in enumerate(load.anchored_rank_rows()):
            if rank_rows > 0:
                pairs.setdefault((max(1, math.ceil(rank_rows)), rank_rates[rank]), None)
        return list(pairs)

    def _use_placement_pairs(self, workload: WorkloadSpec | None) -> bool:
        """Per-rank composition applies to placed workloads on hetero
        clusters; homogeneous contexts already price the worst rank
        exactly through the scalar ``device_rows`` path."""
        return (
            workload is not None
            and workload.placed
            and bool(self.context.sim_profiles)
        )

    # -- simulation ------------------------------------------------------------
    def makespan(
        self,
        spec: MoELayerSpec,
        batch: int,
        n: int,
        strategy: str = "none",
        *,
        decomposed_comm: bool = False,
        sequential: bool = False,
        gemm_derate: float = 1.0,
        workload: WorkloadSpec | None = None,
    ) -> float:
        """Iteration makespan of one timeline: :meth:`timing`'s makespan.

        This is the selector-inner-loop entry point: no Op DAG and no
        trace records are materialized.
        """
        return self.timing(
            spec, batch, n, strategy, decomposed_comm=decomposed_comm,
            sequential=sequential, gemm_derate=gemm_derate, workload=workload,
        ).makespan

    def timing(
        self,
        spec: MoELayerSpec,
        batch: int,
        n: int,
        strategy: str = "none",
        *,
        decomposed_comm: bool = False,
        sequential: bool = False,
        gemm_derate: float = 1.0,
        workload: WorkloadSpec | None = None,
    ) -> Timing:
        """Makespan and device 0's comp busy time of the gating run.

        Priced by schedule replay (:meth:`SimEngine.timing`) and
        memoized in the makespan table; with several runs the first
        worst one gates, as in :meth:`simulate`.
        """
        key = (self._hkey, spec, batch, n, strategy, decomposed_comm, sequential,
               gemm_derate, workload)
        cached = self._makespans.get(key)
        if cached is not None:
            self.stats.makespan_hits += 1
            return cached
        self.stats.makespan_misses += 1
        compiled = compile_timeline(
            n, strategy, decomposed_comm=decomposed_comm, sequential=sequential
        )
        runs = self._runs(compiled, spec, batch, n, gemm_derate, workload)
        value = _gating(compiled.dag, runs)[1]
        self._makespans[key] = value
        return value

    def simulate(
        self,
        spec: MoELayerSpec,
        batch: int,
        n: int,
        strategy: str = "none",
        *,
        decomposed_comm: bool = False,
        sequential: bool = False,
        gemm_derate: float = 1.0,
        workload: WorkloadSpec | None = None,
    ) -> SimResult:
        """Full recorded simulation of the gating run, for trace readers.

        Replay picks the gating run; the event loop runs once, with the
        :class:`OpRecord` sink.
        """
        key = (self._hkey, spec, batch, n, strategy, decomposed_comm, sequential,
               gemm_derate, workload)
        sim = self._sims.get(key)
        if sim is not None:
            self.stats.sim_hits += 1
            return sim
        self.stats.sim_misses += 1
        compiled = compile_timeline(
            n, strategy, decomposed_comm=decomposed_comm, sequential=sequential
        )
        runs = self._runs(compiled, spec, batch, n, gemm_derate, workload)
        gate = _gating(compiled.dag, runs)[0] if len(runs) > 1 else 0
        engine, works = runs[gate]
        sim = engine.run_compiled(compiled.dag, works, record=True)
        self._sims[key] = sim
        return sim

    def _runs(self, compiled, spec, batch, n, gemm_derate, workload) -> list:
        """``(engine, works)`` of every timeline one iteration waits on.

        One per (rows, profile) pair of a placed workload, else one per
        distinct device profile — a single run when homogeneous.  The
        worst run is the iteration time: the loss barrier and the
        collectives synchronize all devices every iteration, so the
        slowest one gates the cluster.
        """
        context = self.context
        if self._use_placement_pairs(workload):
            return [
                (
                    context.engine_for(profile),
                    compiled.works(
                        self.stage_costs(
                            spec, batch, n, gemm_derate, workload, rows=rows
                        )
                    ),
                )
                for rows, profile in self._placement_pairs(spec, batch, workload)
            ]
        works = compiled.works(self.stage_costs(spec, batch, n, gemm_derate, workload))
        if not context.sim_profiles:
            return [(context.engine, works)]
        return [(context.engine_for(p), works) for p in context.sim_profiles]

    # -- memory ----------------------------------------------------------------
    def footprint_bytes(
        self,
        spec: MoELayerSpec,
        batch: int,
        pipelined: bool,
        reuse_n: int = 0,
        workload: WorkloadSpec | None = None,
    ) -> int:
        key = (self._hkey, spec, batch, pipelined, reuse_n, workload)
        cached = self._footprint_bytes.get(key)
        if cached is None:
            self.stats.footprint_misses += 1
            cached = self.footprint(spec, workload).total_bytes(
                batch, pipelined=pipelined, reuse_n=reuse_n
            )
            self._footprint_bytes[key] = cached
        else:
            self.stats.footprint_hits += 1
        return cached

    def fits(
        self,
        spec: MoELayerSpec,
        batch: int,
        n: int,
        workload: WorkloadSpec | None = None,
    ) -> bool:
        """Whether the pipelined+reuse footprint fits device memory.

        The no-fit answer is memoized like any other: a configuration
        that raised :class:`MemoryError` cold raises it warm too.
        """
        capacity = self.context.device_memory_bytes
        return (
            self.footprint_bytes(spec, batch, True, reuse_n=n, workload=workload)
            <= capacity
        )

    # -- closed-form selection -------------------------------------------------
    def selector(
        self, spec: MoELayerSpec, workload: WorkloadSpec | None = None
    ) -> StrategySelector:
        """Eq. 10 strategy selector, one per (layer spec, workload)."""
        key = (spec, workload)
        selector = self._selectors.get(key)
        if selector is None:
            selector = self.build_selector(spec, workload)
            self._selectors[key] = selector
        return selector

    def build_selector(
        self, spec: MoELayerSpec, workload: WorkloadSpec | None
    ) -> StrategySelector:
        """Construct the Eq. 10 selector for one (layer spec, workload).

        Unmemoized: :meth:`selector` caches it, and the whole-grid
        selector builds one per group without touching the memo.
        """
        hetero = self.context.hetero
        world = self.context.effective_world
        placed = workload is not None and workload.placed
        traffic = None
        if placed and world > 1:
            # Placement-aware W_comm: gate degraded links by the
            # traffic the placement actually routes over them (the
            # relative per-rank profile is batch-independent, so any
            # batch resolves the same factor).
            traffic = workload.load(spec, 1, world).traffic()
        rates = HardwareRates.from_cluster(
            self.context.device, self.comm_model(), traffic
        )
        rank_rates = None
        if placed and hetero is not None:
            # Per-rank composition instead of the worst-device
            # rescale: each rank's load meets its own rates.
            rank_rates = self.context.rank_rates
        elif hetero is not None:
            # W_comm already rides the link-overridden topology; the
            # bottleneck device rescales W_comp and W_mem.
            worst = hetero.bottleneck_rates(world)
            rates = rates.scaled(comp=worst.comp, mem=worst.mem)
        return StrategySelector(
            PerfModel(
                spec, rates,
                workload=workload,
                world_size=world,
                rank_rates=rank_rates,
            ),
            footprint=self.footprint(spec, workload),
            device_capacity=self.context.device_memory_bytes,
        )

    def cache_info(self) -> dict:
        """Counters plus live entry counts, JSON-ready: the
        :meth:`cache_delta` since the evaluator was built.

        The sweep runner persists the per-scenario :meth:`cache_delta`
        of these counters next to the scenario's values, making cache
        efficacy visible per study.
        """
        return self.cache_delta((0,) * len(vars(self.stats)))

    def counters(self) -> tuple[int, ...]:
        """The :class:`EvalStats` hit/miss pairs: the cheap snapshot the
        sweep runner takes around each scenario."""
        return tuple(vars(self.stats).values())

    def cache_delta(self, before: tuple[int, ...]) -> dict:
        """The :meth:`counters` accrued since ``before``, by name, then
        their ``hits`` and ``misses`` totals and the live ``entries``.

        ``evictions`` (always 0) and ``max_entries`` (always None) stay
        in the dict because every cache file and store entry holds them.
        """
        counts = [now - then for now, then in zip(self.counters(), before)]
        delta = dict(zip(vars(self.stats), counts))
        delta["evictions"] = 0
        delta["hits"] = sum(counts[::2])
        delta["misses"] = sum(counts[1::2])
        delta["entries"] = sum(map(len, self._memos))
        delta["max_entries"] = None
        return delta
