"""The engine's entry points agree with each other on generated DAGs.

``run``, ``run_compiled``, ``compiled_makespan`` and
``record_compiled_schedule`` all drive the one event loop, so on random
layered DAGs — one to four devices, every stream kind, zero-work barrier
ops, identity and skewed per-device rate tables — they must agree to the
last bit, and replaying the recorded schedule must reproduce the same
float.  The straight-line reference oracle agrees to 1e-9.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.hetero import DeviceRates, DeviceRateTable
from repro.hardware.interference import StreamKind
from repro.sim.engine import Op, SimEngine, compile_dag, replay_schedule
from repro.testing.oracles import ReferenceSimEngine

#: 0.0 makes a zero-work barrier op.
WORKS = (0.0, 0.25, 0.5, 1.0, 1.75, 3.0)

RATE_TABLES = (
    None,
    DeviceRateTable(),  # identity: collapses to the homogeneous path
    DeviceRateTable(
        entries=((0, DeviceRates(comp=0.5)), (1, DeviceRates(comm=0.7, mem=0.9)))
    ),
    DeviceRateTable(default=DeviceRates(comp=0.8, comm=0.6, mem=0.9)),
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


@settings(max_examples=80, deadline=None, derandomize=True)
@given(ops=layered_dags(), table=st.sampled_from(RATE_TABLES))
def test_entry_points_agree(ops, table):
    engine = SimEngine(device_rates=table)
    dag = compile_dag(ops)

    recorded = engine.run(ops)
    assert engine.run_compiled(dag, record=True) == recorded

    spans, valid = replay_schedule(
        engine.record_compiled_schedule(dag), np.asarray([dag.works])
    )
    assert valid[0]
    assert bits(engine.compiled_makespan(dag)) == bits(recorded.makespan)
    assert bits(float(spans[0])) == bits(recorded.makespan)

    reference = ReferenceSimEngine(device_rates=table).run(ops)
    assert recorded.makespan == pytest.approx(reference.makespan, rel=1e-9)
