"""Fluid discrete-event engine over per-device stream lanes.

Semantics
---------
* Every :class:`Op` belongs to one ``(device, stream)`` lane.  Ops in a
  lane start in submission order (CUDA stream FIFO).
* An op becomes *ready* when all its dependencies completed and it is at
  the head of its lane.
* All running ops on a device progress simultaneously; the progress rate
  of an op equals the interference slowdown of its stream kind given the
  set of stream kinds currently active on that device (paper Fig. 3).
* The engine advances to the earliest op completion, re-evaluates rates
  (they change when lanes go idle/busy), and repeats — a standard fluid
  simulation.

This reproduces the paper's cost model (Eq. 10) in the steady state
while also capturing pipeline ramp-up/drain effects that the closed-form
max() ignores.

Implementation
--------------
:func:`compile_dag` validates an Op DAG once and flattens its topology
(lane order, dependency counts, children, stream kinds) into the index
arrays of a :class:`CompiledDag`.  :class:`SimEngine` runs one event
loop over them — a completion-event heap with lazy invalidation,
per-lane head cursors, and interference rates recomputed only for
devices whose active stream-kind set changed, so per-event cost is
O(affected ops + log heap).  Every entry point is that loop with or
without two optional sinks:

* :meth:`SimEngine.compiled_makespan` / :meth:`SimEngine.run_compiled`
  re-price a compiled topology with a per-op work vector.  The
  makespan-only mode allocates nothing per op; ``record=True`` adds the
  :class:`OpRecord` sink.  This is what lets ``build_timeline``
  topologies be compiled once per ``(n, strategy)`` and re-priced per
  scenario.
* :meth:`SimEngine.run` / :meth:`SimEngine.makespan` are
  :func:`compile_dag` plus ``run_compiled``, for ad-hoc Op lists.
* :meth:`SimEngine.record_compiled_schedule` adds the schedule sink: a
  compact :class:`ScheduleTrace` of the run's control flow.

A recorded schedule prices any work vector that follows the same event
order with straight-line float arithmetic.  :meth:`SimEngine.timing` is
the scalar pricing entry the evaluation layer uses: it replays the
DAG's most recently used traces (at most :data:`SCHEDULES_PER_DAG` per
DAG per engine) in plain Python, checking the zero-work pattern and
every heap-order guard, and runs the loop — recording a new trace —
only when they all diverge.  :func:`replay_schedule` replays one trace
over a whole numpy matrix of work vectors for the whole-grid path.
Both give the loop's floats bit for bit.

The straight-line reference loop the engine is proven against lives
with the other oracles in :mod:`repro.testing.oracles`.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

from repro.hardware.hetero import DeviceRateTable
from repro.hardware.interference import InterferenceModel, PAPER_INTERFERENCE, StreamKind

_EPS = 1e-15

#: Recorded schedules :meth:`SimEngine.timing` keeps per compiled DAG
#: (per engine), most recently used first.  Work vectors that vary
#: with batch cross a few event-order boundaries, so one trace is not
#: enough; past a handful, extra traces rarely hit.
SCHEDULES_PER_DAG = 8


def _active_rate_table(device_rates: DeviceRateTable | None) -> DeviceRateTable | None:
    """Collapse identity tables to ``None`` — the homogeneous fast path.

    A degenerate heterogeneous spec (every multiplier 1.0) must run the
    exact seed code path, bit for bit; dropping the table here is what
    guarantees it.
    """
    if device_rates is not None and device_rates.is_identity:
        return None
    return device_rates


@dataclass
class Op:
    """One kernel-granularity operation in the simulated timeline."""

    name: str
    device: int
    stream: StreamKind
    work: float  # seconds at unimpeded speed
    deps: tuple["Op", ...] = ()
    tag: str = ""  # free-form grouping label (e.g. "S", "C", "R", "H", "D")
    uid: int = field(default_factory=itertools.count().__next__)

    def __post_init__(self) -> None:
        if self.work < 0:
            raise ValueError(f"op {self.name!r} has negative work {self.work}")
        self.deps = tuple(self.deps)

    def __hash__(self) -> int:
        return self.uid

    def __eq__(self, other) -> bool:
        return self is other


@dataclass(frozen=True)
class OpRecord:
    """Realized schedule entry for one op."""

    name: str
    device: int
    stream: StreamKind
    tag: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class SimResult:
    """Outcome of a simulation run."""

    makespan: float
    records: list[OpRecord]

    def device_busy_time(self, device: int, stream: StreamKind | None = None) -> float:
        """Total busy seconds of a device lane (or all lanes merged)."""
        intervals = sorted(
            (r.start, r.end)
            for r in self.records
            if r.device == device and (stream is None or r.stream == stream)
        )
        busy = 0.0
        cursor = -1.0
        for start, end in intervals:
            if start > cursor:
                busy += end - start
                cursor = end
            elif end > cursor:
                busy += end - cursor
                cursor = end
        return busy

    def utilization(self, device: int, stream: StreamKind = StreamKind.COMP) -> float:
        """Fraction of the makespan a lane was busy."""
        if self.makespan <= 0:
            return 0.0
        return self.device_busy_time(device, stream) / self.makespan

    def by_tag(self, tag: str) -> list[OpRecord]:
        return [r for r in self.records if r.tag == tag]


class Timing(NamedTuple):
    """What a system report reads of a run, without the records.

    ``comp_busy`` equals ``SimResult.device_busy_time(0, COMP)`` to the
    last bit: one lane never overlaps itself, so its merged busy time
    is the sum of ``end - start`` in completion order.
    """

    makespan: float
    comp_busy: float

    @property
    def comp_utilization(self) -> float:
        """:meth:`SimResult.utilization` of device 0's comp lane."""
        if self.makespan <= 0:
            return 0.0
        return self.comp_busy / self.makespan


def _validate(ops: list[Op]) -> dict[Op, list[Op]]:
    """Check the submitted DAG and return the children adjacency."""
    op_set = set(ops)
    if len(op_set) != len(ops):
        raise ValueError("duplicate op submitted")
    if len({op.uid for op in ops}) != len(ops):
        # dataclasses.replace() copies uid; Op hashes on uid, so
        # distinct ops sharing one are rejected up front.
        raise ValueError("distinct ops share a uid (copied Op?); uids must be unique")
    children: dict[Op, list[Op]] = {}
    for op in ops:
        for dep in op.deps:
            if dep not in op_set:
                raise ValueError(
                    f"op {op.name!r} depends on {dep.name!r} which was not submitted"
                )
            children.setdefault(dep, []).append(op)
    # Cycle check via Kahn count.
    indeg = {op: len(op.deps) for op in ops}
    queue = [op for op, d in indeg.items() if d == 0]
    seen = 0
    while queue:
        op = queue.pop()
        seen += 1
        for child in children.get(op, ()):
            indeg[child] -= 1
            if indeg[child] == 0:
                queue.append(child)
    if seen != len(ops):
        raise ValueError("dependency cycle detected in submitted ops")
    return children


_KIND_INDEX = {StreamKind.COMP: 0, StreamKind.COMM: 1, StreamKind.MEM: 2}
_KIND_BY_INDEX = (StreamKind.COMP, StreamKind.COMM, StreamKind.MEM)


@dataclass(frozen=True)
class CompiledDag:
    """A validated Op DAG flattened into index arrays.

    Ops are addressed by their submission position.  The topology (lane
    membership and order, dependency counts, children) is fixed at
    compile time; only the per-op work vector varies between runs, so a
    single compilation can price arbitrarily many scenarios via
    :meth:`SimEngine.compiled_makespan`.
    """

    names: tuple[str, ...]
    tags: tuple[str, ...]
    lane_ops: tuple[tuple[int, ...], ...]  # per lane: op indices, FIFO order
    lane_device: tuple[int, ...]
    lane_kidx: tuple[int, ...]  # stream-kind index (comp=0, comm=1, mem=2)
    op_lane: tuple[int, ...]  # per op: its lane index
    dep_count: tuple[int, ...]
    children: tuple[tuple[int, ...], ...]
    works: tuple[float, ...]  # the template's own work vector (default run)

    @property
    def num_ops(self) -> int:
        return len(self.names)


def compile_dag(ops: Sequence[Op]) -> CompiledDag:
    """Validate ``ops`` once and flatten the topology into a :class:`CompiledDag`."""
    ops = list(ops)
    children_map = _validate(ops)
    index = {op.uid: i for i, op in enumerate(ops)}

    lane_ids: dict[int, int] = {}
    lane_ops: list[list[int]] = []
    lane_device: list[int] = []
    lane_kidx: list[int] = []
    op_lane: list[int] = []
    for i, op in enumerate(ops):
        kidx = _KIND_INDEX[op.stream]
        key = op.device * 4 + kidx
        lane = lane_ids.get(key)
        if lane is None:
            lane = len(lane_ops)
            lane_ids[key] = lane
            lane_ops.append([])
            lane_device.append(op.device)
            lane_kidx.append(kidx)
        lane_ops[lane].append(i)
        op_lane.append(lane)

    return CompiledDag(
        names=tuple(op.name for op in ops),
        tags=tuple(op.tag for op in ops),
        lane_ops=tuple(tuple(q) for q in lane_ops),
        lane_device=tuple(lane_device),
        lane_kidx=tuple(lane_kidx),
        op_lane=tuple(op_lane),
        dep_count=tuple(len(op.deps) for op in ops),
        children=tuple(
            tuple(index[c.uid] for c in children_map.get(op, ())) for op in ops
        ),
        works=tuple(op.work for op in ops),
    )


@dataclass(frozen=True)
class ScheduleTrace:
    """The control flow of one event-loop run, stored flat.

    Interference rates are a pure function of the (stream kind, active
    stream set) pair — they never depend on the work values — so once
    the discrete schedule (which op finishes next, which re-rates fire)
    is fixed, pricing it is straight-line float arithmetic.  A replay
    re-checks, per work vector, that the recorded event order is the
    order the event loop would have chosen: the zero-work pattern must
    match, and at every event the finishing op must win the heap's
    ``(time, op)`` order against every other running op — strictly
    against a lower-indexed one, ties allowed against a higher-indexed
    one.  Vectors whose order diverges are flagged, never mispriced.

    Only what a replay cannot re-derive is stored: ``order`` holds the
    finishing op of each completion event, and ``rerates`` the flat
    ``(op, new_rate, op, new_rate, ...)`` re-rates of every frontier
    settle — ``counts[0]`` pairs for the t=0 settle, then
    ``counts[e + 1]`` pairs after event ``e``.  An op's first re-rate
    is its start (a start always re-rates its device, from rate 0);
    old rates and the running set (the guards) follow from the
    replay's own state.  Op indices and rates are shared objects of the
    DAG and the engine's rate tables, so each slot costs one pointer.
    """

    num_ops: int
    zeros: tuple[int, ...]  # ops with work <= _EPS in the recording
    order: tuple[int, ...]
    counts: tuple[int, ...]
    rerates: tuple


class SimEngine:
    """Runs a DAG of :class:`Op` to completion and returns a :class:`SimResult`.

    Completion times live in an event heap ordered by ``(time, op
    index)``; a heap entry is valid only while its op's rate is
    unchanged, which the engine tracks with a per-op token bumped
    whenever the op's device changes its active stream-kind set.
    Between events only the lanes unblocked by the finished op and the
    devices whose active set changed are touched.

    ``device_rates`` makes the engine heterogeneous: the effective rate
    of an op is the interference slowdown of its (kind, active-set)
    *times* its device's multiplier for that kind, so a DAG spanning
    devices realizes per-device speeds (straggler studies).  Identity
    tables are dropped up front — homogeneous runs execute the exact
    same arithmetic as before, bit for bit.
    """

    def __init__(
        self,
        interference: InterferenceModel | None = None,
        device_rates: DeviceRateTable | None = None,
    ) -> None:
        self.interference = interference or PAPER_INTERFERENCE
        self.device_rates = _active_rate_table(device_rates)
        self._flat_rates: list[float] | None = None
        self._dev_flat: dict[int, list[float]] = {}
        # id(dag) -> (dag, device-0 comp-lane mask, MRU traces).  Holding
        # the dag pins its id; lookups still check identity, so a copied
        # engine never prices one DAG with another's traces.
        self._schedules: dict[int, tuple] = {}

    def makespan(self, ops: Sequence[Op]) -> float:
        """Makespan of the DAG without building any trace records."""
        return self.run(ops, record=False).makespan

    def run(self, ops: Sequence[Op], record: bool = True) -> SimResult:
        """Compile ``ops`` and run them; ``record=False`` skips the trace.

        Simultaneous completions resolve in submission order, which is
        ``uid`` order for any DAG listed in creation order.
        """
        return self.run_compiled(compile_dag(ops), record=record)

    def _rate_table(self) -> list[float]:
        """Flat slowdown table indexed ``kidx * 8 + active_bitmask``.

        At most 3 kinds x 8 masks exist; built once per engine since it
        is a pure function of the interference model.
        """
        if self._flat_rates is None:
            kinds = {0: StreamKind.COMP, 1: StreamKind.COMM, 2: StreamKind.MEM}
            table = [1.0] * 24
            for kidx, victim in kinds.items():
                for mask in range(1, 8):
                    active = {kinds[i] for i in range(3) if mask & (1 << i)}
                    table[kidx * 8 + mask] = self.interference.slowdown(
                        victim, active | {victim}
                    )
            self._flat_rates = table
        return self._flat_rates

    def _flat_rates_for(self, device: int) -> list[float]:
        """Per-device flat table: base slowdowns x the device multipliers.

        Only consulted when a (non-identity) ``device_rates`` table is
        installed; built lazily per device and cached for the engine's
        lifetime, like :meth:`_rate_table`.
        """
        table = self._dev_flat.get(device)
        if table is None:
            base = self._rate_table()
            mult = self.device_rates.multipliers(device)
            table = [base[k * 8 + m] * mult[k] for k in range(3) for m in range(8)]
            self._dev_flat[device] = table
        return table

    def compiled_makespan(
        self, dag: CompiledDag, works: Sequence[float] | None = None
    ) -> float:
        """Makespan of a :class:`CompiledDag` with ``works`` plugged in."""
        return self.run_compiled(dag, works, record=False).makespan

    def run_compiled(
        self,
        dag: CompiledDag,
        works: Sequence[float] | None = None,
        record: bool = False,
    ) -> SimResult:
        """Run a :class:`CompiledDag` with per-op ``works`` plugged in.

        ``record=True`` collects the full :class:`OpRecord` trace, sorted
        by (start, device, stream); the default makespan-only mode
        allocates nothing per op.
        """
        records: list[OpRecord] = []
        makespan = self._run(dag, works, records if record else None)
        if record:
            records.sort(key=lambda r: (r.start, r.device, r.stream.value))
        return SimResult(makespan=makespan, records=records)

    def record_compiled_schedule(
        self, dag: CompiledDag, works: Sequence[float] | None = None
    ) -> ScheduleTrace:
        """Run ``works`` through the event loop, recording its schedule.

        On top of executing the schedule, the loop logs every re-rate
        and completion into a :class:`ScheduleTrace` that
        :meth:`timing` and :func:`replay_schedule` re-price for other
        work vectors.
        """
        if works is None:
            works = dag.works
        order: list[int] = []
        counts: list[int] = []
        rerates: list = []
        self._run(dag, works, schedule=(order, counts, rerates))
        return ScheduleTrace(
            num_ops=dag.num_ops,
            zeros=tuple(i for i, w in enumerate(works) if w <= _EPS),
            order=tuple(order),
            counts=tuple(counts),
            rerates=tuple(rerates),
        )

    def timing(
        self, dag: CompiledDag, works: Sequence[float] | None = None
    ) -> Timing:
        """Makespan and device 0's comp busy time, priced by replay.

        Tries this DAG's most recently used recorded schedules in turn;
        the first whose event order ``works`` follows prices it.  When
        every one diverges, :meth:`record_compiled_schedule` runs the
        loop once and its trace joins the front of the list (at most
        :data:`SCHEDULES_PER_DAG` are kept).  Values equal
        ``run_compiled(dag, works, record=True)``'s makespan and
        ``device_busy_time(0, StreamKind.COMP)`` bit for bit.

        Threads sharing an engine replace the trace list whole, so a
        race can drop a trace (one more recording later), never give a
        wrong value.
        """
        if works is None:
            works = dag.works
        _check_works(dag, works)
        key = id(dag)
        entry = self._schedules.get(key)
        if entry is None or entry[0] is not dag:
            comp0 = bytes(
                dag.lane_device[lane] == 0 and dag.lane_kidx[lane] == 0
                for lane in dag.op_lane
            )
            entry = (dag, comp0, ())
        _, comp0, traces = entry
        for k, trace in enumerate(traces):
            priced = _replay_timing(trace, works, comp0)
            if priced is not None:
                if k:
                    self._schedules[key] = (
                        dag, comp0, (trace,) + traces[:k] + traces[k + 1:]
                    )
                return Timing(*priced)
        trace = self.record_compiled_schedule(dag, works)
        priced = _replay_timing(trace, works, comp0)
        if priced is None:
            # Only a non-finite makespan fails its own recording (NaN
            # compares false in the guards, inf - inf spoils the busy
            # sum); the loop's records decide.
            sim = self.run_compiled(dag, works, record=True)
            return Timing(sim.makespan, sim.device_busy_time(0, StreamKind.COMP))
        self._schedules[key] = (dag, comp0, ((trace,) + traces)[:SCHEDULES_PER_DAG])
        return Timing(*priced)

    def _run(
        self,
        dag: CompiledDag,
        works: Sequence[float] | None,
        records: list[OpRecord] | None = None,
        schedule: tuple[list, list, list] | None = None,
    ) -> float:
        """The event loop behind every entry point; returns the makespan.

        Each optional sink costs one local ``None`` check where it is
        fed.  ``records`` receives one :class:`OpRecord` per op, in
        completion order.  ``schedule`` is the ``(order, counts,
        rerates)`` lists of a :class:`ScheduleTrace`, filled in place.
        """
        if works is None:
            works = dag.works
        _check_works(dag, works)
        num = dag.num_ops
        rates = self._rate_table()
        device_rates = self.device_rates
        lane_ops, lane_device, lane_kidx = dag.lane_ops, dag.lane_device, dag.lane_kidx
        op_lane, children, names, tags = dag.op_lane, dag.children, dag.names, dag.tags
        if records is not None:
            lane_stream = tuple(_KIND_BY_INDEX[k] for k in lane_kidx)
            started_at = [0.0] * num
        order = counts = rerates = None
        if schedule is not None:
            order, counts, rerates = schedule

        dep_rem = list(dag.dep_count)
        lane_pos = [0] * len(lane_ops)
        finished = bytearray(num)
        running = bytearray(num)
        rem = [0.0] * num
        rate = [0.0] * num
        synced_at = [0.0] * num
        token = [0] * num
        dev_running: dict[int, list[tuple[int, int]]] = {d: [] for d in lane_device}
        dev_mask = dict.fromkeys(lane_device, 0)  # device -> active-kind bitmask
        dirty: set[int] = set()
        heap: list[tuple[float, int, int]] = []
        pending: list[int] = list(range(len(lane_ops)))
        done_count = 0
        now = 0.0
        heappush, heappop = heapq.heappush, heapq.heappop

        def settle_frontier() -> None:
            """Start startable lane heads, then re-rate dirty devices.

            The lane-head scan, zero-work completion, and device refresh
            are inlined (not helper calls): this body runs once per
            event and per-event Python call overhead dominates it.
            """
            nonlocal done_count
            while pending:
                lane = pending.pop()
                queue = lane_ops[lane]
                pos = lane_pos[lane]
                while True:
                    while pos < len(queue) and finished[queue[pos]]:
                        pos += 1
                    lane_pos[lane] = pos
                    if pos >= len(queue):
                        break
                    i = queue[pos]
                    if running[i] or dep_rem[i] > 0:
                        break
                    if works[i] <= _EPS:
                        # Zero-work op: completes instantly, may unblock
                        # children (their lanes join ``pending``).
                        if records is not None:
                            records.append(
                                OpRecord(names[i], lane_device[lane],
                                         lane_stream[lane], tags[i], now, now)
                            )
                        finished[i] = 1
                        done_count += 1
                        for child in children[i]:
                            dep_rem[child] -= 1
                            if dep_rem[child] == 0:
                                pending.append(op_lane[child])
                        pos += 1
                        lane_pos[lane] = pos
                        continue
                    device, kidx = lane_device[lane], lane_kidx[lane]
                    running[i] = 1
                    rem[i] = works[i]
                    rate[i] = 0.0
                    synced_at[i] = now
                    if records is not None:
                        started_at[i] = now
                    token[i] = 0
                    dev_running[device].append((i, kidx))
                    # One lane per (device, kind) runs one op at a time, so
                    # a start always adds a new kind to the active set.
                    dev_mask[device] |= 1 << kidx
                    dirty.add(device)
                    break
            if dirty:
                for device in dirty:
                    mask = dev_mask[device]
                    rtab = (
                        rates
                        if device_rates is None
                        else self._flat_rates_for(device)
                    )
                    for i, kidx in dev_running[device]:
                        new_rate = rtab[kidx * 8 + mask]
                        old_rate = rate[i]
                        if new_rate == old_rate:
                            continue  # outstanding heap entry still predicts truth
                        if old_rate > 0.0:
                            remaining = rem[i] - (now - synced_at[i]) * old_rate
                            rem[i] = remaining if remaining > 0.0 else 0.0
                        rate[i] = new_rate
                        synced_at[i] = now
                        tok = token[i] + 1
                        token[i] = tok
                        heappush(heap, (now + rem[i] / new_rate, i, tok))
                        if rerates is not None:
                            rerates.append(i)
                            rerates.append(new_rate)
                dirty.clear()

        settle_frontier()
        if counts is not None:
            logged = len(rerates)
            counts.append(logged >> 1)
        while heap:
            pred_finish, i, entry_token = heappop(heap)
            if not running[i] or entry_token != token[i]:
                continue  # stale: op finished or was re-rated since push
            now = pred_finish
            running[i] = 0
            lane = op_lane[i]
            device, kidx = lane_device[lane], lane_kidx[lane]
            dev_running[device].remove((i, kidx))
            dev_mask[device] &= ~(1 << kidx)
            dirty.add(device)
            if records is not None:
                records.append(
                    OpRecord(names[i], device, lane_stream[lane], tags[i],
                             started_at[i], now)
                )
            finished[i] = 1
            done_count += 1
            for child in children[i]:
                dep_rem[child] -= 1
                if dep_rem[child] == 0:
                    pending.append(op_lane[child])
            pending.append(lane)
            settle_frontier()
            if order is not None:
                order.append(i)
                counts.append((len(rerates) - logged) >> 1)
                logged = len(rerates)

        if done_count != num:
            stuck = [names[i] for i in range(num) if not finished[i]][:8]
            raise RuntimeError(
                f"simulation deadlocked with {num - done_count} ops pending, "
                f"e.g. {stuck} — check for dependency cycles or cross-lane ordering"
            )
        return now


def _check_works(dag: CompiledDag, works: Sequence[float]) -> None:
    num = dag.num_ops
    if len(works) != num:
        raise ValueError(f"expected {num} works, got {len(works)}")
    if num and min(works) < 0:
        raise ValueError("op works must be non-negative")


def _replay_timing(
    trace: ScheduleTrace, works: Sequence[float], comp0: bytes
) -> tuple[float, float] | None:
    """``(makespan, comp busy)`` of ``works`` along ``trace``; None if
    the vector's event order diverges from the recording, or if the
    makespan is not finite.

    The scalar twin of :func:`replay_schedule`, numpy-free: the event
    loop's expressions in the loop's order, so a vector that follows
    the recorded order gets the loop's floats exactly.  ``comp0`` flags
    the ops of device 0's comp lane; that lane runs one op at a time,
    so one start time suffices to sum its busy time.  The sum equals
    the merged busy time only while every time is finite.
    """
    for z in trace.zeros:
        if works[z] > _EPS:
            return None
    num = trace.num_ops
    rem = [0.0] * num
    rate = [0.0] * num
    synced = [0.0] * num
    fin = [0.0] * num
    running: list[int] = []
    rerates = trace.rerates
    now = busy = comp_start = 0.0
    k = 0
    for c, count in zip(itertools.chain((-1,), trace.order), trace.counts):
        if c >= 0:
            now = fin[c]
            for j in running:
                if j < c:
                    if not now < fin[j]:
                        return None
                elif j > c and not now <= fin[j]:
                    return None
            running.remove(c)
            if comp0[c]:
                busy += now - comp_start
        stop = k + 2 * count
        while k < stop:
            j = rerates[k]
            new = rerates[k + 1]
            k += 2
            old = rate[j]
            if old > 0.0:
                r = rem[j] - (now - synced[j]) * old
                r = r if r > 0.0 else 0.0
            else:  # first re-rate: the op starts
                r = works[j]
                if r <= _EPS:
                    return None  # zero work here, started in the recording
                running.append(j)
                if comp0[j]:
                    comp_start = now
            rem[j] = r
            rate[j] = new
            synced[j] = now
            fin[j] = now + r / new
    if not math.isfinite(now):
        return None
    return now, busy


def replay_schedule(trace: ScheduleTrace, works_matrix) -> tuple:
    """Price a :class:`ScheduleTrace` over many work vectors at once.

    ``works_matrix`` is (scenarios, num_ops).  Returns ``(makespans,
    valid)`` — both (scenarios,) — where ``valid[s]`` is True iff the
    recorded event order is exactly what the scalar engine would
    execute for row ``s``: the zero-work pattern matches and, at every
    event, the finishing op's predicted completion wins the heap's
    ``(time, op)`` lexicographic order against every other running op.
    For valid rows the makespan is bit-for-bit what
    :meth:`SimEngine.compiled_makespan` computes (identical IEEE ops in
    identical order); invalid rows hold garbage and must be re-run
    under a different trace (see ``repro.perfmodel.batcheval``).
    """
    import numpy as np

    W = np.asarray(works_matrix, dtype=np.float64)
    if W.ndim != 2 or W.shape[1] != trace.num_ops:
        raise ValueError(
            f"expected a (scenarios, {trace.num_ops}) works matrix, got {W.shape}"
        )
    num = trace.num_ops
    pattern = np.zeros(num, dtype=bool)
    pattern[list(trace.zeros)] = True
    valid = np.all((W <= _EPS) == pattern, axis=1)

    rem: list = [None] * num
    rate = [0.0] * num
    synced: list = [0.0] * num
    fin: list = [None] * num
    running: list[int] = []
    rerates = trace.rerates
    now = 0.0
    k = 0
    for c, count in zip(itertools.chain((-1,), trace.order), trace.counts):
        if c >= 0:
            now = fin[c]
            for j in running:
                if j < c:
                    valid &= now < fin[j]
                elif j > c:
                    valid &= now <= fin[j]
            running.remove(c)
        stop = k + 2 * count
        while k < stop:
            j = rerates[k]
            new = rerates[k + 1]
            k += 2
            old = rate[j]
            if old > 0.0:
                r = rem[j] - (now - synced[j]) * old
                r = np.where(r > 0.0, r, 0.0)
            else:  # first re-rate: the op starts
                r = W[:, j]
                running.append(j)
            rem[j] = r
            rate[j] = new
            synced[j] = now
            fin[j] = now + r / new
    if not trace.order:  # every op had zero work: makespan stays 0.0
        return np.zeros(W.shape[0]), valid
    return now, valid
