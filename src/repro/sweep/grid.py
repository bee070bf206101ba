"""Declarative scenario grids for the sweep runner.

A :class:`Scenario` is one fully-specified operating point: which system
backend evaluates it, on which layer spec, at which world size / batch /
granularity / memory-reuse strategy, plus the two timeline ablation
toggles (point-to-point decomposed All-to-All and fully sequential
execution), the heterogeneous-cluster axes (straggler kind, severity,
seed), the layer-shape axes (expert count E, capacity factor), and the
routing-workload axes (top-k fan-out, activation dtype, gating
imbalance — compiled into a
:class:`~repro.perfmodel.workload.WorkloadSpec` by the runner).  A
:class:`ScenarioGrid` is the cartesian product over those axes; grids
concatenate with ``+`` so mixed studies (e.g. Fig. 11's adaptive *and*
pinned-n PipeMoE points) stay declarative.

Scenarios are frozen, hashable and JSON-stable: :meth:`Scenario.key`
digests the field dict (via :func:`scenario_payload`), which is what
the runner's on-disk cache and the worker-process fan-out key on; that
cache and the federated store share one entry format
(:func:`encode_entry` / :func:`read_entry`).  New
fields extend the digest *when set*, so grids crossing a new axis
re-evaluate as cache misses — never as stale hits — while fields at
their "axis absent" default are omitted from the payload and old cache
entries keep hitting.
"""

from __future__ import annotations

import difflib
import functools
import hashlib
import itertools
import json
import math
import operator
from dataclasses import dataclass, fields
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Iterable, Iterator

from repro.config import PRESETS
from repro.hardware.hetero import STRAGGLER_KINDS
from repro.perfmodel.placement import PLACEMENT_AXIS_VALUES
from repro.perfmodel.workload import DTYPE_BYTES

SYSTEM_NAMES = ("fastmoe", "fastermoe", "pipemoe", "mpipemoe")
#: "timeline" bypasses the system models and prices a raw build_timeline
#: schedule — the ablation benches sweep over it.
BACKEND_NAMES = SYSTEM_NAMES + ("timeline",)

STRATEGY_NAMES = ("none", "S1", "S2", "S3", "S4")


@dataclass(frozen=True)
class Scenario:
    """One operating point of a sweep.

    ``n is None`` means adaptive granularity (Algorithm 1) where the
    backend supports it; ``strategy is None`` means the adaptive Eq. 10
    selector (MPipeMoE) or "none" for the strategy-less backends.

    ``straggler is None`` evaluates on the homogeneous cluster exactly
    as before; a named kind (see
    :data:`repro.hardware.hetero.STRAGGLER_KINDS`) builds the matching
    :class:`~repro.hardware.hetero.HeteroClusterSpec` at ``severity``
    (victim rate multiplier) and ``straggler_seed`` (random jitter).
    ``num_experts`` overrides the preset's E; ``capacity_factor`` sets
    the *per-expert* capacity ``C = ceil(capacity_factor * B * k / E)``
    (the dispatch formula of
    :func:`repro.core.dispatch.capacity_for`), so each device computes
    and ships its padded ``E_local x W x C`` dispatch buffer and routed
    rows beyond an expert's capacity overflow — see
    :class:`repro.perfmodel.workload.WorkloadSpec`, which also carries
    the routing axes: ``top_k`` (fan-out k; ``None`` = the preset's),
    ``dtype`` (activation element width on the wire; ``None`` = the
    timing default, fp16), and ``imbalance`` (hottest-expert load ratio;
    1.0 = uniform gating).
    """

    system: str = "mpipemoe"
    spec: str = "GPT-XL"
    world_size: int = 64
    batch: int = 16384
    n: int | None = None
    strategy: str | None = None
    decomposed_comm: bool = False
    sequential: bool = False
    straggler: str | None = None
    severity: float = 1.0
    straggler_seed: int = 0
    num_experts: int | None = None
    capacity_factor: float | None = None
    top_k: int | None = None
    dtype: str | None = None
    imbalance: float = 1.0
    #: Expert-placement strategy (None = the implicit contiguous shard
    #: map, priced through the exact pre-placement code paths).  Named
    #: values come from :data:`repro.perfmodel.placement
    #: .PLACEMENT_AXIS_VALUES`; "optimized" is lowered to an explicit
    #: assignment by the runner before pricing.
    placement: str | None = None

    def __post_init__(self) -> None:
        if self.system not in BACKEND_NAMES:
            raise ValueError(
                f"unknown system {self.system!r}; available: {BACKEND_NAMES}"
            )
        if self.spec not in PRESETS:
            raise ValueError(
                f"unknown spec {self.spec!r}; available: {sorted(set(PRESETS))}"
            )
        if self.world_size < 1:
            raise ValueError("world_size must be >= 1")
        if self.batch < 1:
            raise ValueError("batch must be >= 1")
        if self.n is not None and self.n < 1:
            raise ValueError("n must be >= 1 (or None for adaptive)")
        if self.strategy is not None and self.strategy not in STRATEGY_NAMES:
            raise ValueError(
                f"unknown strategy {self.strategy!r}; available: {STRATEGY_NAMES}"
            )
        if self.straggler is not None and self.straggler not in STRAGGLER_KINDS:
            raise ValueError(
                f"unknown straggler {self.straggler!r}; available: {STRAGGLER_KINDS}"
            )
        if not 0 < self.severity <= 1:
            raise ValueError("severity must be in (0, 1]")
        if self.straggler_seed < 0:
            raise ValueError("straggler_seed must be >= 0")
        # Knobs the evaluation would silently ignore must fail loudly, or
        # a grid crossing them caches identical values under distinct
        # keys: severity is meaningless without a straggler victim (the
        # 'uniform' kind ignores it too), and only 'random-jitter' draws
        # from the seed.
        if self.severity != 1.0 and self.straggler in (None, "uniform"):
            raise ValueError(
                f"severity={self.severity} has no effect with "
                f"straggler={self.straggler!r}; pick a straggler kind that "
                f"has a victim (e.g. 'single-slow-gpu')"
            )
        if self.straggler_seed != 0 and self.straggler != "random-jitter":
            raise ValueError(
                f"straggler_seed={self.straggler_seed} only applies to "
                f"straggler='random-jitter', not {self.straggler!r}"
            )
        if self.num_experts is not None and self.num_experts < 1:
            raise ValueError("num_experts must be >= 1 (or None for the preset's)")
        if self.capacity_factor is not None and not (
            math.isfinite(self.capacity_factor) and self.capacity_factor > 0
        ):
            raise ValueError("capacity_factor must be finite and positive (or None)")
        if self.top_k is not None:
            if self.top_k < 1:
                raise ValueError("top_k must be >= 1 (or None for the preset's)")
            # Eager fan-out check (PR 4 convention: no late worker-side
            # failures): the effective expert count is knowable here —
            # the override field, or the named preset's E.
            experts = (
                self.num_experts
                if self.num_experts is not None
                else PRESETS[self.spec].num_experts
            )
            if self.top_k > experts:
                raise ValueError(
                    f"top_k={self.top_k} exceeds num_experts={experts} "
                    f"for spec {self.spec!r}"
                )
        if self.dtype is not None and self.dtype not in DTYPE_BYTES:
            raise ValueError(
                f"unknown dtype {self.dtype!r}; available: "
                f"{sorted(DTYPE_BYTES)} (or None for the timing default)"
            )
        if not (math.isfinite(self.imbalance) and self.imbalance >= 1.0):
            raise ValueError(
                "imbalance is the hottest-expert load ratio: a finite "
                "value >= 1.0 (1.0 = uniform gating)"
            )
        if self.placement is not None:
            if self.placement not in PLACEMENT_AXIS_VALUES:
                raise ValueError(
                    f"unknown placement {self.placement!r}; available: "
                    f"{PLACEMENT_AXIS_VALUES} (or None for the implicit "
                    f"contiguous shard map)"
                )
            if self.placement == "shadowed" and self.world_size < 2:
                raise ValueError(
                    "placement='shadowed' needs world_size >= 2 to host "
                    "the replica off the hot expert's rank"
                )

    def key(self, salt: str = "") -> str:
        """Stable digest of this scenario (plus an optional salt such as
        the evaluator's qualified name) — the cache key."""
        payload = json.dumps(
            {"salt": salt, "scenario": scenario_payload(self)}, sort_keys=True
        )
        return hashlib.sha1(payload.encode()).hexdigest()[:20]

    def label(self) -> str:
        """Compact human-readable tag for tables and logs."""
        parts = [self.system, self.spec, f"N={self.world_size}", f"B={self.batch}"]
        if self.n is not None:
            parts.append(f"n={self.n}")
        if self.strategy is not None:
            parts.append(self.strategy)
        if self.decomposed_comm:
            parts.append("p2p")
        if self.sequential:
            parts.append("seq")
        if self.straggler is not None and self.straggler != "uniform":
            tag = f"{self.straggler}@{self.severity:g}x"
            if self.straggler == "random-jitter":
                tag += f"#{self.straggler_seed}"
            parts.append(tag)
        if self.num_experts is not None:
            parts.append(f"E={self.num_experts}")
        if self.capacity_factor is not None:
            parts.append(f"f={self.capacity_factor:g}")
        if self.top_k is not None:
            parts.append(f"k={self.top_k}")
        if self.dtype is not None:
            parts.append(self.dtype)
        if self.imbalance != 1.0:
            parts.append(f"skew={self.imbalance:g}x")
        if self.placement is not None:
            parts.append(f"pl={self.placement}")
        return "/".join(parts)


#: The :class:`Scenario` field names in declaration order: the payload
#: keys, and the argument order of ``Scenario(*values)``.
_FIELD_NAMES = tuple(field.name for field in fields(Scenario))
_field_values = operator.attrgetter(*_FIELD_NAMES)


def scenario_payload(scenario: Scenario) -> dict:
    """The scenario's serialized field dict — the cache/wire payload.

    A ``placement`` of ``None`` is the pre-placement contiguous default
    and is *omitted* from the payload, so every digest, cache file and
    result JSON produced before the axis existed stays byte-identical:
    default scenarios hit their old cache entries instead of
    re-evaluating the same numbers under new keys.  Named placements
    serialize normally (and therefore key distinctly).
    """
    payload = dict(zip(_FIELD_NAMES, _field_values(scenario)))
    if payload["placement"] is None:
        del payload["placement"]
    return payload


def objective_salt(objective) -> str:
    """The :meth:`Scenario.key` salt for an objective's results: its
    qualified name, so two objectives never share a cache entry."""
    return f"{objective.__module__}.{objective.__qualname__}"


#: How ``json`` writes each exact scalar type (NaN and the infinities
#: as ``json.dumps`` spells them).
_SCALAR_TEXT = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: lambda value: repr(value) if math.isfinite(value) else json.dumps(value),
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}


@functools.lru_cache(maxsize=256)
def _dict_template(keys: tuple, depth: int) -> tuple[str, tuple] | None:
    """The ``%`` template of a dict with these keys at ``depth``, and the
    sorted keys that fill it; ``None`` unless every key is a ``str``."""
    if not all(type(key) is str for key in keys):
        return None
    ordered = tuple(sorted(keys))
    item = "\n" + " " * (depth + 1)
    body = ("," + item).join(
        encode_basestring_ascii(key).replace("%", "%%") + ": %s" for key in ordered
    )
    return "{" + item + body + "\n" + " " * depth + "}", ordered


def json_text(value, depth: int = 0) -> str:
    """``json.dumps(value, indent=1, sort_keys=True)`` nested ``depth``
    levels deep (each newline followed by ``depth`` more spaces).

    Any ``indent`` runs ``json``'s pure-Python encoder, so non-empty
    ``str``-keyed dicts are filled into cached templates and exact
    scalars written directly; anything else (lists, other keys,
    subclasses, non-JSON values, nesting past 32 levels, so cycles)
    goes to ``json.dumps``, for the same text or the same error.
    """
    kind = type(value)
    if kind is dict and value and depth < 32:
        shape = _dict_template(tuple(value), depth)
        if shape is not None:
            template, keys = shape
            get, inner = _SCALAR_TEXT.get, depth + 1
            return template % tuple([
                scalar(item) if (scalar := get(type(item))) else json_text(item, inner)
                for item in map(value.__getitem__, keys)
            ])
    else:
        scalar = _SCALAR_TEXT.get(kind)
        if scalar is not None:
            return scalar(value)
    text = json.dumps(value, indent=1, sort_keys=True)
    return text.replace("\n", "\n" + " " * depth) if depth else text


def encode_entry(
    scenario: Scenario,
    values: dict,
    stats: dict | None = None,
    attempts: int = 1,
    version: int | None = None,
) -> str:
    """The text of one cache entry: the runner's disk cache writes it,
    and the federated store writes it with its ``version`` stamp.

    ``stats`` and ``attempts`` are written only when present and above
    one, so first-try entries keep the bytes they have always had.
    """
    # scenario_payload(), not __dict__: that would name the axis-absent
    # placement default, which old entries never had.
    payload = {"scenario": scenario_payload(scenario), "values": values}
    if version is not None:
        payload["version"] = version
    if stats is not None:
        payload["evaluator_cache"] = stats
    if attempts > 1:
        payload["attempts"] = attempts
    return json_text(payload)


def read_entry(path, scenario: Scenario, version: int | None = None):
    """Read and verify one :func:`encode_entry` file.

    Returns ``(values, stats, attempts)`` on a hit, or ``None`` when the
    file is absent or cannot be read right now — a plain miss that
    leaves it alone.  Raises :class:`ValueError` for a bad entry:
    undecodable bytes, a foreign shape, a ``version`` stamp other than
    the given one, or a stored scenario that no longer round-trips the
    current :class:`Scenario` to this exact point (an entry written by
    another library version must never be served as a stale hit).
    """
    try:
        text = Path(path).read_text()
    except OSError:
        return None
    payload = json.loads(text)
    if not isinstance(payload, dict) or not isinstance(
        payload.get("values"), dict
    ):
        raise ValueError("not a cache entry")
    if version is not None and payload.get("version") != version:
        raise ValueError(f"entry is not version {version}")
    try:
        stored = Scenario(**payload.get("scenario", {}))
    except TypeError as exc:
        raise ValueError(f"entry scenario does not round-trip: {exc}") from exc
    if stored != scenario:
        raise ValueError("entry resolves to a different scenario")
    attempts = payload.get("attempts", 1)
    if not isinstance(attempts, int) or attempts < 1:
        attempts = 1
    return payload["values"], payload.get("evaluator_cache"), attempts


#: Grid axis name -> the :class:`Scenario` field it populates, in field
#: declaration order: the fixed iteration order of the cartesian product
#: and the argument order :meth:`ScenarioGrid.scenarios` builds with.
AXIS_FIELDS: dict[str, str] = {
    "systems": "system",
    "specs": "spec",
    "world_sizes": "world_size",
    "batches": "batch",
    "ns": "n",
    "strategies": "strategy",
    "decomposed": "decomposed_comm",
    "sequential": "sequential",
    "stragglers": "straggler",
    "severities": "severity",
    "straggler_seeds": "straggler_seed",
    "num_experts": "num_experts",
    "capacity_factors": "capacity_factor",
    "top_ks": "top_k",
    "dtypes": "dtype",
    "imbalances": "imbalance",
    "placements": "placement",
}


def check_field_value(where: str, value) -> None:
    """Reject a scenario field value that is not a JSON scalar: a
    ``numpy.int64`` would run, then fail at a cache key or ``to_json()``."""
    if value is not None and not isinstance(value, (str, int, float)):
        kind = type(value)
        raise ValueError(
            f"{where} holds {value!r} of type "
            f"{kind.__module__}.{kind.__qualname__}; scenario values must "
            f"be None, str, int, float or bool"
        )


def _check_axis(name: str, values) -> tuple:
    """Reject axis spellings that would go wrong far from their typo.

    A bare string (``specs="GPT-XL"``) would fan out over its characters
    and a bare scalar (``batches=4096``) would fail deep inside
    ``itertools.product``.  A set iterates in hash order, so the
    scenario order and the result JSON would follow ``PYTHONHASHSEED``.
    Each value must pass :func:`check_field_value`.
    """
    if isinstance(values, str) or not isinstance(values, Iterable):
        raise ValueError(
            f"grid axis {name!r} must be a sequence of values, got "
            f"{type(values).__name__} — write {name}=({values!r},)"
        )
    if isinstance(values, (set, frozenset)):
        raise ValueError(
            f"grid axis {name!r} must be an ordered sequence, got a "
            f"{type(values).__name__}, whose order follows the hash seed"
        )
    values = tuple(values)
    for value in values:
        check_field_value(f"grid axis {name!r}", value)
    return values


class ScenarioGrid:
    """Cartesian product over scenario axes.

    Each keyword is an axis name of :data:`AXIS_FIELDS` with an ordered
    sequence of plain Python values; an absent axis takes its field's
    default.  Axes iterate in :data:`AXIS_FIELDS` order, so iteration
    order — and therefore sweep result order — is deterministic.
    ``grid_a + grid_b`` concatenates into a :class:`ScenarioList`
    (grid-compatible: ``scenarios()``/``len``/``+`` keep chaining) for
    non-rectangular studies.  Unknown axis names fail eagerly with the
    valid spellings — not as a confusing downstream failure.
    """

    def __init__(self, **axes) -> None:
        unknown_axes = sorted(axes.keys() - AXIS_FIELDS.keys())
        if unknown_axes:
            hints = []
            for name in unknown_axes:
                close = difflib.get_close_matches(name, AXIS_FIELDS, n=1)
                if close:
                    hints.append(f"did you mean {close[0]!r} for {name!r}?")
            detail = f" ({' '.join(hints)})" if hints else ""
            raise ValueError(
                f"unknown grid axis(es) {unknown_axes}; valid axes "
                f"(scenario field): "
                + ", ".join(f"{a} ({f})" for a, f in AXIS_FIELDS.items())
                + detail
            )
        self.axes = tuple(
            _check_axis(axis, axes[axis]) if axis in axes else (field.default,)
            for axis, field in zip(AXIS_FIELDS, fields(Scenario))
        )
        if any(not axis for axis in self.axes):
            raise ValueError("every grid axis needs at least one value")

    def scenarios(self) -> list[Scenario]:
        return [Scenario(*combo) for combo in itertools.product(*self.axes)]

    def __iter__(self) -> Iterator[Scenario]:
        return iter(self.scenarios())

    def __len__(self) -> int:
        total = 1
        for axis in self.axes:
            total *= len(axis)
        return total

    def __add__(self, other: "GridLike") -> "ScenarioList":
        return ScenarioList(self.scenarios() + as_scenarios(other))

    def __radd__(self, other: "GridLike") -> "ScenarioList":
        return ScenarioList(as_scenarios(other) + self.scenarios())


class ScenarioList:
    """A grid-compatible, ordered collection of scenarios.

    This is what grid concatenation (``grid_a + grid_b``) returns: unlike
    the plain ``list`` it used to degrade to, it keeps the
    :class:`ScenarioGrid` surface — ``scenarios()``, ``len``, iteration,
    slicing, and further ``+`` chaining against grids, other lists, or
    any iterable of :class:`Scenario`.
    """

    def __init__(self, scenarios: "GridLike" = ()) -> None:
        self._scenarios = as_scenarios(scenarios)

    def scenarios(self) -> list[Scenario]:
        return list(self._scenarios)

    def __iter__(self) -> Iterator[Scenario]:
        return iter(self._scenarios)

    def __len__(self) -> int:
        return len(self._scenarios)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return ScenarioList(self._scenarios[index])
        return self._scenarios[index]

    def __add__(self, other: "GridLike") -> "ScenarioList":
        return ScenarioList(self._scenarios + as_scenarios(other))

    def __radd__(self, other: "GridLike") -> "ScenarioList":
        return ScenarioList(as_scenarios(other) + self._scenarios)

    def __eq__(self, other) -> bool:
        if isinstance(other, (ScenarioList, ScenarioGrid)):
            return self._scenarios == other.scenarios()
        if isinstance(other, list):
            return self._scenarios == other
        return NotImplemented

    def __repr__(self) -> str:
        return f"ScenarioList({len(self._scenarios)} scenarios)"


GridLike = "ScenarioGrid | ScenarioList | Scenario | Iterable[Scenario]"


def as_scenarios(obj) -> list[Scenario]:
    """Normalize anything grid-shaped into a list of scenarios.

    Accepts grids and scenario lists (via their ``scenarios()``), a bare
    :class:`Scenario`, or any iterable of scenarios; anything else fails
    loudly rather than riding silently into a sweep.
    """
    if isinstance(obj, Scenario):
        return [obj]
    if hasattr(obj, "scenarios") and callable(obj.scenarios):
        obj = obj.scenarios()
    items = list(obj)
    for item in items:
        if not isinstance(item, Scenario):
            raise TypeError(
                f"expected Scenario items, got {type(item).__name__}: {item!r}"
            )
    return items
