"""Slow, independent twins of the production evaluation path.

The library never calls these; tests and
``benchmarks/bench_sim_engine.py`` import them from here to check (and
time) the fast path against a second computation of the same numbers:

* :class:`ReferenceSimEngine` — the original straight-line fluid loop:
  rescan every lane and re-rate every running op at every event,
  O(lanes + running) per event.  The event-heap
  :class:`~repro.sim.engine.SimEngine` is proven against it.
* :class:`ColdEvaluator` — the seed evaluation path behind the
  :class:`~repro.perfmodel.evalcache.Evaluator` interface: nothing
  memoized, fresh stage costs, a fresh Op DAG from ``build_timeline``
  and a fully recorded run for every probe.  Install it with
  ``ctx.evaluator = ColdEvaluator(ctx)``; warm results must equal it.
* :func:`exhaustive_placement` — the true placement optimum by
  enumeration, which :func:`~repro.perfmodel.placeopt.optimize_placement`
  must match on every small instance.
* :func:`reference_middle` — the sequential (n=1, no reuse) forward of
  the MoE middle section, which every pipelined and memory-reusing
  :class:`~repro.pipeline.executor.PipelinedMoEMiddle` must reproduce.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.config import MoELayerSpec
from repro.core.experts import ExpertFFN
from repro.hardware.hetero import UNIT_RATES, DeviceRates
from repro.hardware.interference import InterferenceModel, PAPER_INTERFERENCE, StreamKind
from repro.memory.footprint import FootprintModel
from repro.perfmodel.evalcache import Evaluator
from repro.perfmodel.placeopt import PlacementProblem
from repro.perfmodel.placement import PlacementSpec
from repro.perfmodel.selector import StrategySelector
from repro.perfmodel.workload import WorkloadSpec
from repro.pipeline.executor import PipelinedMoEMiddle
from repro.pipeline.schedule import MoEStageCosts, build_timeline
from repro.sim.engine import (
    _EPS,
    _KIND_INDEX,
    Op,
    OpRecord,
    SimResult,
    Timing,
    _validate,
)


def _deadlock_error(ops: list[Op], done: set[Op]) -> RuntimeError:
    stuck = [op.name for op in ops if op not in done][:8]
    return RuntimeError(
        f"simulation deadlocked with {len(ops) - len(done)} ops pending, "
        f"e.g. {stuck} — check for dependency cycles or cross-lane ordering"
    )


class ReferenceSimEngine:
    """The original fluid loop: full-lane rescan and global re-rating at
    every event.  O(lanes + running) per event — kept as the oracle the
    fast path is proven against and benchmarked over.  Accepts the same
    ``rates`` profile so heterogeneous runs can be cross-checked against
    it too."""

    def __init__(
        self,
        interference: InterferenceModel | None = None,
        rates: DeviceRates = UNIT_RATES,
    ) -> None:
        self.interference = interference or PAPER_INTERFERENCE
        self.rates = rates

    def makespan(self, ops: Sequence[Op]) -> float:
        """API parity with :meth:`SimEngine.makespan` (full run, no shortcut)."""
        return self.run(ops).makespan

    def run(self, ops: Sequence[Op]) -> SimResult:
        ops = list(ops)
        children = _validate(ops)

        # Lane FIFO queues in submission order.
        lanes: dict[tuple[int, StreamKind], list[Op]] = {}
        for op in ops:
            lanes.setdefault((op.device, op.stream), []).append(op)
        lane_pos = {key: 0 for key in lanes}

        remaining_deps = {op: len(op.deps) for op in ops}
        done: set[Op] = set()
        running: dict[Op, float] = {}  # op -> remaining work (seconds)
        started_at: dict[Op, float] = {}
        records: list[OpRecord] = []
        now = 0.0

        def dep_ready(op: Op) -> bool:
            return remaining_deps[op] == 0

        def start_ready() -> None:
            """Start every lane-head op whose dependencies are satisfied.

            ``lane_pos`` always points at the first op of the lane that has
            not *completed*; a lane runs at most one op at a time (CUDA
            stream FIFO), so the head may start only once its predecessor
            finished.  Zero-work ops complete instantly, which can unblock
            further ops — hence the fixed-point loop.
            """
            progressed = True
            while progressed:
                progressed = False
                for key, queue in lanes.items():
                    pos = lane_pos[key]
                    while pos < len(queue) and queue[pos] in done:
                        pos += 1
                    lane_pos[key] = pos
                    if pos >= len(queue):
                        continue
                    op = queue[pos]
                    if op in running or not dep_ready(op):
                        continue
                    if op.work <= _EPS:
                        # Pure-dependency op: completes instantly.
                        done.add(op)
                        for child in children.get(op, ()):
                            remaining_deps[child] -= 1
                        records.append(
                            OpRecord(op.name, op.device, op.stream, op.tag, now, now)
                        )
                        lane_pos[key] = pos + 1
                        progressed = True
                    else:
                        running[op] = op.work
                        started_at[op] = now

        start_ready()
        while running:
            rates = self._rates(running)
            # Earliest completion under current rates.
            dt = min(rem / rates[op] for op, rem in running.items())
            now += dt
            finished = []
            for op in list(running):
                running[op] -= dt * rates[op]
                if running[op] <= _EPS * max(1.0, op.work):
                    finished.append(op)
            for op in finished:
                del running[op]
                done.add(op)
                records.append(
                    OpRecord(op.name, op.device, op.stream, op.tag, started_at[op], now)
                )
                for child in children.get(op, ()):
                    remaining_deps[child] -= 1
            start_ready()

        if len(done) != len(ops):
            raise _deadlock_error(ops, done)
        records.sort(key=lambda r: (r.start, r.device, r.stream.value))
        return SimResult(makespan=now, records=records)

    # -- helpers ---------------------------------------------------------------
    def _rates(self, running: dict[Op, float]) -> dict[Op, float]:
        """Progress rate of each running op given per-device active lanes."""
        active_by_device: dict[int, set[StreamKind]] = {}
        for op in running:
            active_by_device.setdefault(op.device, set()).add(op.stream)
        mult = self.rates.as_tuple()
        return {
            op: self.interference.slowdown(op.stream, active_by_device[op.device])
            * mult[_KIND_INDEX[op.stream]]
            for op in running
        }


class ColdEvaluator(Evaluator):
    """The seed evaluation path, byte for byte: nothing reused.

    Overrides every memoized entry point of :class:`Evaluator` with its
    uncached computation; the Eq. 10 selector construction is inherited
    and simply never memoized.  Heterogeneous contexts run a fresh Op
    DAG once per device profile and keep the worst run — the uncached
    mirror of the warm path, so cache-correctness tests hold under skew
    too.  Placed workloads mirror the warm per-rank composition: each
    rank's rows through that rank's profile, worst run kept.
    """

    def comm_model(self):
        return self.context.comm_model()

    def footprint(
        self, spec: MoELayerSpec, workload: WorkloadSpec | None = None
    ) -> FootprintModel:
        return self.context.footprint(spec, workload)

    def stage_costs(
        self, spec, batch, n, gemm_derate=1.0, workload=None, rows=None
    ) -> MoEStageCosts:
        self.stats.cost_misses += 1
        return MoEStageCosts.compute(
            spec, batch, n, self.context.device, self.comm_model(),
            gemm_derate=gemm_derate, workload=workload, rows_override=rows,
        )

    def makespan(self, *args, **kwargs) -> float:
        return self.simulate(*args, **kwargs).makespan

    def timing(self, *args, **kwargs) -> Timing:
        sim = self.simulate(*args, **kwargs)
        return Timing(sim.makespan, sim.device_busy_time(0, StreamKind.COMP))

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
        context = self.context
        if self._use_placement_pairs(workload):
            runs = self._placement_pairs(spec, batch, workload)
        else:
            runs = [(None, profile) for profile in context.sim_profiles]
        sims = []
        for rows, profile in runs or [(None, None)]:
            costs = MoEStageCosts.compute(
                spec, batch, n, context.device, context.comm_model(),
                gemm_derate=gemm_derate, workload=workload, rows_override=rows,
            )
            ops = build_timeline(
                costs, n, strategy,
                decomposed_comm=decomposed_comm, sequential=sequential,
            )
            engine = context.engine if profile is None else context.engine_for(profile)
            sims.append(engine.run(ops))
        spans = [sim.makespan for sim in sims]
        return sims[spans.index(max(spans))]

    def footprint_bytes(
        self, spec, batch, pipelined, reuse_n=0, workload=None
    ) -> int:
        self.stats.footprint_misses += 1
        return self.footprint(spec, workload).total_bytes(
            batch, pipelined=pipelined, reuse_n=reuse_n
        )

    def selector(
        self, spec: MoELayerSpec, workload: WorkloadSpec | None = None
    ) -> StrategySelector:
        return self.build_selector(spec, workload)


def exhaustive_placement(problem: PlacementProblem) -> PlacementSpec:
    """The true optimum by enumeration — ``W^E`` assignments.

    Small cases only (the agreement test sweeps ``E <= 6, W <= 4``);
    ties break on the lexicographically smallest assignment so the
    result is deterministic.  Raises if no assignment is feasible.
    """
    e, w = problem.spec.num_experts, problem.world_size
    if w**e > 2_000_000:
        raise ValueError(
            f"exhaustive search over {w}^{e} assignments is intractable; "
            "use optimize_placement"
        )
    best: tuple[int, ...] | None = None
    best_score = math.inf
    assignment = [0] * e
    while True:
        candidate = tuple(assignment)
        if problem.feasible(candidate):
            score = problem.score(candidate)
            if score < best_score - 1e-12:
                best, best_score = candidate, score
        # odometer increment
        i = e - 1
        while i >= 0 and assignment[i] == w - 1:
            assignment[i] = 0
            i -= 1
        if i < 0:
            break
        assignment[i] += 1
    if best is None:
        raise ValueError(
            "no feasible placement under the per-device memory bound"
        )
    return PlacementSpec.explicit(best)


def reference_middle(
    ti_all: np.ndarray, experts: Sequence[Sequence[ExpertFFN]]
) -> np.ndarray:
    """Sequential (n=1, no reuse) forward of the middle section."""
    engine = PipelinedMoEMiddle(experts, num_partitions=1, strategy="none")
    return engine.forward(ti_all)
