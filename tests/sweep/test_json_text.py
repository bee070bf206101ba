"""The template JSON writer gives ``json.dumps``'s bytes, or its error.

``json_text`` and ``ResultSet.to_json`` replace ``json.dumps(...,
indent=1, sort_keys=True)`` on every per-row path (result JSON, cache
files, store entries), so they are pinned here against ``json.dumps``
itself on generated trees and on the shapes the runner produces.
"""

from __future__ import annotations

import enum
import json
import math
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ResultSet, Scenario, ScenarioGrid, Study
from repro.sweep.grid import encode_entry, json_text, scenario_payload


def dumps(value, depth: int = 0) -> str:
    """The reference: ``json.dumps``, nested ``depth`` levels deep."""
    text = json.dumps(value, indent=1, sort_keys=True)
    return text.replace("\n", "\n" + " " * depth)


KEYS = st.text(
    alphabet=st.sampled_from('ab%s"\\\x00\x1f\n\t\x7fé€\U0001f600'),
    max_size=5,
)
FLOATS = st.floats() | st.sampled_from(
    [math.nan, math.inf, -math.inf, -0.0, 5e-324, 0.1 + 0.2,
     1.7976931348623157e308, 2.2250738585072014e-308]
)
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(2**200), max_value=2**200)
    | FLOATS
    | st.text(max_size=5)
)
TREES = st.recursive(
    SCALARS,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(KEYS, children, max_size=4),
    max_leaves=16,
)


@given(TREES, st.integers(0, 3))
@settings(max_examples=120, deadline=None, derandomize=True)
def test_generated_trees_match_json_dumps(value, depth):
    assert json_text(value, depth) == dumps(value, depth)


class Level(enum.IntEnum):
    LOW = 1


class Name(str):
    pass


@pytest.mark.parametrize(
    "value",
    [
        {2.5: "b", 1: "a", 0: [1]},
        {True: 1, False: {"x": None}},
        {"outer": {None: 1.5}, "int keys": {3: 1, -1: 2}},
        {"a": np.float64(0.1), "b": np.float64("nan"), "c": [np.float64(2)]},
        {"level": Level.LOW, "levels": {"x": Level.LOW}},
        OrderedDict([("z", 1), ("a", OrderedDict(b=2))]),
        {"in": OrderedDict(z=1, a=2)},
        {Name("k"): Name("v"), "w": {Name("%s"): 1}},
        {"empty": {}, "list": [], "nested": {"e": {}}},
        {"t": (1, "x", {"y": 2.5})},
        "plain",
        -0.0,
        None,
    ],
)
def test_explicit_values_match_json_dumps(value):
    for depth in (0, 1, 3):
        assert json_text(value, depth) == dumps(value, depth)


def cyclic() -> dict:
    value: dict = {"a": 1}
    value["self"] = value
    return value


@pytest.mark.parametrize(
    "value",
    [
        {1: "int", "a": "str"},
        {None: 1, 2: 3},
        {"x": {1: 0, "y": 1}},
        {"n": np.int64(3)},
        {"deep": {"n": [np.int64(3)]}},
        {"s": {1, 2}},
        cyclic(),
    ],
    ids=[
        "mixed-keys", "none-and-int-keys", "nested-mixed-keys", "int64",
        "int64-in-list", "set", "cycle",
    ],
)
def test_errors_match_json_dumps(value):
    with pytest.raises(Exception) as expected:
        dumps(value)
    with pytest.raises(type(expected.value)):
        json_text(value, 2)


def test_cache_entries_match_json_dumps():
    scenario = Scenario(system="timeline", spec="GPT-S", world_size=8, n=2)
    values = {"makespan": 1.5, "n": 2, "strategy": "none", "costs": {}}
    stats = {"hits": 1, "misses": 0, "max_entries": None}
    payload = {"scenario": scenario_payload(scenario), "values": values}
    assert encode_entry(scenario, values) == dumps(payload)
    assert encode_entry(scenario, values, stats, 2, version=3) == dumps(
        {**payload, "evaluator_cache": stats, "attempts": 2, "version": 3}
    )


# -- ResultSet.to_json -------------------------------------------------------
GRID = ScenarioGrid(
    systems=("timeline",), specs=("GPT-S",), world_sizes=(8,),
    batches=(1024, 2048), ns=(1, 2),
)


def failing_at_2048(scenario: Scenario) -> dict:
    if scenario.batch == 2048:
        raise RuntimeError("injected failure")
    return {"iteration_time": scenario.batch * 1e-6}


def nested_values(scenario: Scenario) -> dict:
    return {
        "trace": [[scenario.batch, 2.5], {"b": None, "a": [True]}],
        "per rank": {"0": {"t": 1e-3}, "1": {"t": math.inf}},
        "empty": [],
    }


RESULT_SETS = {
    "keep-going": lambda: Study(GRID, objective=failing_at_2048)
    .keep_going()
    .run(),
    "placements": lambda: Study(
        ScenarioGrid(
            systems=("timeline",), specs=("GPT-S",), world_sizes=(8,),
            batches=(1024,), ns=(2,),
            placements=(None, "round_robin", "shadowed"),
        ),
        objective="timeline",
    ).run(),
    "infeasible-eq10": lambda: Study(
        ScenarioGrid(
            systems=("mpipemoe",), specs=("GPT-XL",), world_sizes=(8,),
            batches=(4096, 1048576), ns=(2,),
        ),
        objective="eq10",
    ).run(),
    "nested-lists": lambda: Study(GRID, objective=nested_values).run(),
    "empty": ResultSet,
}


@pytest.fixture(scope="module", params=sorted(RESULT_SETS))
def results(request):
    return RESULT_SETS[request.param]()


@pytest.mark.parametrize("include_cache_stats", [False, True])
@pytest.mark.parametrize("indent", [1, None, 0, 2, "\t"])
def test_to_json_matches_json_dumps(results, indent, include_cache_stats):
    rows = [r.to_dict(include_cache_stats=include_cache_stats) for r in results]
    assert results.to_json(
        indent=indent, include_cache_stats=include_cache_stats
    ) == json.dumps(rows, indent=indent, sort_keys=True)


def test_result_sets_cover_the_row_shapes():
    """The fixtures above hold a failed row, an infeasible Eq. 10 row
    and both placement payload shapes."""
    keep = RESULT_SETS["keep-going"]()
    assert {r.ok for r in keep} == {True, False}
    eq10 = RESULT_SETS["infeasible-eq10"]()
    assert [r.values["costs"] == {} for r in eq10] == [False, True]
    placed = [scenario_payload(r.scenario) for r in RESULT_SETS["placements"]()]
    assert ["placement" in p for p in placed] == [False, True, True]
