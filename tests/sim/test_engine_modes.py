"""The engine's entry points agree with each other on generated DAGs.

``run``, ``run_compiled``, ``compiled_makespan`` and
``record_compiled_schedule`` all drive the one event loop, so on random
layered DAGs — one to four devices, every stream kind, zero-work barrier
ops, the unit rate profile and skewed ones — they must agree to the
last bit, and replaying the recorded schedule must reproduce the same
float.  The cached replay entry ``timing``, warmed on one work vector,
must price a second one like the loop, whether it replays or records
again.  The straight-line reference oracle agrees to 1e-9.
"""

import struct
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.hetero import UNIT_RATES, DeviceRates
from repro.hardware.interference import PAPER_INTERFERENCE, StreamKind
from repro.sim.engine import (
    SCHEDULES_PER_DAG,
    Op,
    SimEngine,
    compile_dag,
    replay_schedule,
)
from tests.oracles import ReferenceSimEngine

#: 0.0 makes a zero-work barrier op.
WORKS = (0.0, 0.25, 0.5, 1.0, 1.75, 3.0)

RATE_PROFILES = (
    UNIT_RATES,
    DeviceRates(comp=0.5),
    DeviceRates(comm=0.7, mem=0.9),
    DeviceRates(comp=0.8, comm=0.6, mem=0.9),
)


@st.composite
def layered_dags(draw) -> list[Op]:
    devices = draw(st.integers(1, 4))
    ops: list[Op] = []
    previous: list[Op] = []
    for layer in range(draw(st.integers(1, 5))):
        row = []
        for k in range(draw(st.integers(1, 5))):
            deps = (
                draw(st.lists(st.sampled_from(previous), max_size=2, unique=True))
                if previous
                else []
            )
            row.append(
                Op(
                    f"l{layer}k{k}",
                    draw(st.integers(0, devices - 1)),
                    draw(st.sampled_from(list(StreamKind))),
                    draw(st.sampled_from(WORKS)),
                    tuple(deps),
                )
            )
        ops += row
        previous = row
    return ops


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


def spy_recordings(engine: SimEngine) -> list:
    """Count ``engine.record_compiled_schedule`` calls (instance patch)."""
    calls = []
    record = engine.record_compiled_schedule

    def spy(*args):
        calls.append(args)
        return record(*args)

    engine.record_compiled_schedule = spy
    return calls


def comp_busy(sim) -> float:
    return sim.device_busy_time(0, StreamKind.COMP)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(ops=layered_dags(), profile=st.sampled_from(RATE_PROFILES), data=st.data())
def test_entry_points_agree(ops, profile, data):
    engine = SimEngine(rates=profile)
    dag = compile_dag(ops)

    recorded = engine.run(ops)
    assert engine.run_compiled(dag, record=True) == recorded

    trace = engine.record_compiled_schedule(dag)
    spans, valid = replay_schedule(trace, np.asarray([dag.works]))
    assert valid[0]
    assert bits(engine.compiled_makespan(dag)) == bits(recorded.makespan)
    assert bits(float(spans[0])) == bits(recorded.makespan)

    reference = ReferenceSimEngine(rates=profile).run(ops)
    assert recorded.makespan == pytest.approx(reference.makespan, rel=1e-9)

    # The cached entry: warm it on the first vector, then price a second
    # one drawn from the same values, or one that keeps the zero pattern
    # and makes every other work equal, so works on concurrent lanes tie
    # and both guard strictnesses get to decide.
    recordings = spy_recordings(engine)
    first = engine.timing(dag)
    assert len(recordings) == 1
    assert bits(first.makespan) == bits(recorded.makespan)
    assert bits(first.comp_busy) == bits(comp_busy(recorded))
    works = data.draw(
        st.one_of(
            st.lists(st.sampled_from(WORKS), min_size=len(ops), max_size=len(ops)),
            st.just([1.0 if w else 0.0 for w in dag.works]),
        )
    )
    second = engine.timing(dag, works)
    expected = engine.run_compiled(dag, works, record=True)
    assert bits(second.makespan) == bits(engine.compiled_makespan(dag, works))
    assert bits(second.makespan) == bits(expected.makespan)
    assert bits(second.comp_busy) == bits(comp_busy(expected))
    # Scalar and numpy replays take the same guards: the entry re-records
    # exactly when the first trace is invalid for the second vector.
    spans, valid = replay_schedule(trace, np.asarray([works]))
    assert len(recordings) == (1 if valid[0] else 2)
    if valid[0]:
        assert bits(float(spans[0])) == bits(expected.makespan)
    # Both traces are kept: pricing either vector again records nothing.
    assert engine.timing(dag) == first
    assert engine.timing(dag, works) == second
    assert len(recordings) <= 2


def test_replay_guards_break_ties_like_the_heap():
    """Equal finish times go to the lower op index, as in the heap.

    Two independent ops on two devices finish at their works.  A trace
    where op 0 finished first still prices the tie (op 0 beats the
    higher-indexed op 1 on ties); a trace where op 1 finished first
    does not (op 1 beats the lower-indexed op 0 only strictly).  The
    scalar entry and the numpy replay agree on both.
    """
    a = Op("a", 0, StreamKind.COMP, 1.0)
    b = Op("b", 1, StreamKind.COMP, 1.0)
    dag = compile_dag([a, b])
    tie = [1.0, 1.0]
    for first, recorded in (([1.0, 2.0], 1), ([2.0, 1.0], 2)):
        engine = SimEngine()
        recordings = spy_recordings(engine)
        engine.timing(dag, first)
        assert engine.timing(dag, tie) == (1.0, 1.0)
        assert len(recordings) == recorded
        trace = SimEngine().record_compiled_schedule(dag, first)
        _, valid = replay_schedule(trace, [tie])
        assert valid[0] == (recorded == 1)


def test_replays_clamp_remaining_work_like_the_loop():
    """A re-rate can leave an op's remaining work a rounding step below
    zero; both replays clamp it to zero as the loop does."""
    both = {StreamKind.COMP, StreamKind.COMM}
    comp = PAPER_INTERFERENCE.slowdown(StreamKind.COMP, both)
    comm = PAPER_INTERFERENCE.slowdown(StreamKind.COMM, both)
    a, b = 2.36887283707947, 1.7766546278096023
    tie = a / comp
    # Both finish at ``tie``; "a" wins it, and "b"'s remaining work
    # then rounds below zero, which would move its finish an ulp early.
    assert b / comm == tie and b - tie * comm < 0
    first = Op("a", 0, StreamKind.COMP, a)
    second = Op("b", 0, StreamKind.COMM, b)
    dag = compile_dag([first, second, Op("c", 0, StreamKind.COMP, 1.0, (second,))])
    engine = SimEngine()
    expected = engine.run_compiled(dag, record=True)
    timing = engine.timing(dag)
    assert bits(timing.makespan) == bits(expected.makespan)
    assert bits(timing.comp_busy) == bits(comp_busy(expected))
    spans, valid = replay_schedule(
        engine.record_compiled_schedule(dag), np.asarray([dag.works])
    )
    assert valid[0]
    assert bits(float(spans[0])) == bits(expected.makespan)


def test_trace_cache_keeps_the_most_recent_schedules():
    """A bounded most-recently-used list: the oldest trace drops first."""
    ops = [Op(f"o{i}", i, StreamKind.COMP, 1.0) for i in range(SCHEDULES_PER_DAG + 1)]
    dag = compile_dag(ops)
    engine = SimEngine()
    recordings = spy_recordings(engine)

    def finishing_last(i: int) -> list[float]:
        # One distinct event order per i: op i finishes last.
        return [2.0 if j == i else 1.0 + j / 64 for j in range(len(ops))]

    for i in range(SCHEDULES_PER_DAG + 1):
        engine.timing(dag, finishing_last(i))
    assert len(recordings) == SCHEDULES_PER_DAG + 1
    engine.timing(dag, finishing_last(SCHEDULES_PER_DAG))  # newest: kept
    engine.timing(dag, finishing_last(1))  # still among the last eight
    assert len(recordings) == SCHEDULES_PER_DAG + 1
    engine.timing(dag, finishing_last(0))  # the oldest: dropped
    assert len(recordings) == SCHEDULES_PER_DAG + 2


@pytest.mark.parametrize(
    "works",
    [
        [float("nan"), 1.0, 2.0, 1.0],
        [1.0, float("nan"), 2.0, 1.0],
        [float("inf"), 1.0, 2.0, 1.0],
        [1.0, float("inf"), 2.0, 1.0],
        [float("inf")] * 4,
    ],
)
def test_non_finite_works_price_like_the_records(works):
    """NaN breaks the guards and inf - inf the busy sum: the loop decides."""
    a = Op("a", 0, StreamKind.COMP, 1.0)
    b = Op("b", 0, StreamKind.COMM, 2.0)
    c = Op("c", 0, StreamKind.MEM, 1.5)
    d = Op("d", 0, StreamKind.COMP, 1.0, (b,))
    dag = compile_dag([a, b, c, d])
    engine = SimEngine()
    engine.timing(dag)  # a finite trace to try first
    timing = engine.timing(dag, works)
    expected = engine.run_compiled(dag, works, record=True)
    assert bits(timing.makespan) == bits(expected.makespan)
    assert bits(timing.comp_busy) == bits(comp_busy(expected))
    assert engine.timing(dag) == engine.timing(dag, list(dag.works))


def test_threads_sharing_an_engine_get_the_loops_values():
    """Concurrent pricing may re-record, never misprice or raise."""
    ops = []
    for k in range(6):
        deps = (ops[-1],) if ops else ()
        ops.append(Op(f"c{k}", 0, StreamKind.COMP, 1.0, deps))
        ops.append(Op(f"m{k}", 0, StreamKind.COMM, 1.0, deps))
    dag = compile_dag(ops)
    rng = np.random.default_rng(3)
    vectors = [rng.choice(WORKS[1:], size=len(ops)).tolist() for _ in range(24)]
    loop = SimEngine()
    expected = []
    for works in vectors:
        sim = loop.run_compiled(dag, works, record=True)
        expected.append((sim.makespan, comp_busy(sim)))
    engine = SimEngine()
    failures = []

    def price(offset: int) -> None:
        try:
            for step in range(120):
                i = (offset + step * 7) % len(vectors)
                if tuple(engine.timing(dag, vectors[i])) != expected[i]:
                    failures.append(i)
        except Exception as exc:  # pragma: no cover - the failure path
            failures.append(exc)

    threads = [threading.Thread(target=price, args=(t,)) for t in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads mid-replay, often
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []


def test_timing_rejects_bad_work_vectors_like_the_loop():
    dag = compile_dag([Op("a", 0, StreamKind.COMP, 1.0)])
    engine = SimEngine()
    with pytest.raises(ValueError, match="expected 1 works"):
        engine.timing(dag, [1.0, 2.0])
    with pytest.raises(ValueError, match="non-negative"):
        engine.timing(dag, [-1.0])
