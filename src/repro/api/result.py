"""The public API's result collection, absorbing sweep analysis.

One evaluated scenario is a :class:`~repro.sweep.runner.SweepResult`
row (``repro.api.StudyResult`` names the same class): it carries
``label``, column access via ``get`` and the JSON row shape
``to_dict``.  :class:`ResultSet` is an ordered, immutable collection of
those rows, holding the runner's row objects themselves, with
first-class accessors — ``.pareto()``, ``.best()``, ``.table()``,
``.group_by()``, ``.to_json()``, ``.cache_stats()`` — backed by the
module-level analysis helpers defined here.

The module-level functions (:func:`pareto_front`, :func:`sweep_table`,
:func:`group_by`) operate on any iterable of rows, so legacy call sites
keep working unchanged through ``repro.sweep``.  Rows of a keep-going
run that failed read ``None`` for value columns and are never ranked
by :func:`pareto_front` or :meth:`ResultSet.best`.

JSON contract: :meth:`ResultSet.to_json` is deterministic — scenario
order, sorted keys, and (by default) only the *physical* values.  The
per-run evaluator-cache deltas depend on worker scheduling, so they are
opt-in (``include_cache_stats=True``); this is what makes the same study
byte-identical across backends and the whole-grid pass.
The text is ``json.dumps`` of the rows' ``to_dict()``s with sorted keys;
at the default ``indent=1`` the cache files' template writer,
:func:`~repro.sweep.grid.json_text`, writes it about twice as fast.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.sweep.grid import json_text, scenario_payload
from repro.sweep.runner import SweepResult
from repro.utils import Table

Getter = Callable[[SweepResult], Any]

#: An ok row's ``to_dict()`` as :meth:`ResultSet.to_json` writes it.
_ROW = '{\n  "label": %s,\n  "scenario": %s,\n  "values": %s\n }'


def _getter(column: str | Getter) -> Getter:
    """Resolve a column spec: callables pass through; strings read
    :meth:`SweepResult.get <repro.sweep.runner.SweepResult.get>`."""
    if callable(column):
        return column
    return lambda result: result.get(column)


def sweep_table(
    results: Iterable[SweepResult],
    columns: Sequence[str | tuple[str, str | Getter]],
    title: str | None = None,
) -> Table:
    """Render results as a :class:`~repro.utils.Table`.

    ``columns`` entries are either a column spec (used as both header and
    accessor) or an explicit ``(header, spec)`` pair.
    """
    headers: list[str] = []
    getters: list[Getter] = []
    for col in columns:
        if isinstance(col, tuple):
            header, spec = col
        else:
            header, spec = str(col), col
        headers.append(header)
        getters.append(_getter(spec))
    table = Table(headers, title=title)
    for result in results:
        table.add_row([get(result) for get in getters])
    return table


def group_by(
    results: Iterable[SweepResult], column: str | Getter
) -> dict[Any, list[SweepResult]]:
    """Bucket results by a scenario field or value column."""
    get = _getter(column)
    groups: dict[Any, list[SweepResult]] = {}
    for result in results:
        groups.setdefault(get(result), []).append(result)
    return groups


def pareto_front(
    results: Sequence[SweepResult],
    x: str | Getter = "iteration_time",
    y: str | Getter = "peak_memory_bytes",
) -> list[SweepResult]:
    """Non-dominated subset minimizing both ``x`` and ``y`` (Fig. 11).

    A point is dominated when another point is no worse on both axes and
    strictly better on at least one.  Duplicated coordinates survive
    together (neither strictly improves on the other).  Failed rows have
    no values and are left out.  The front comes back sorted by ``x``.
    """
    get_x, get_y = _getter(x), _getter(y)
    points = [(get_x(r), get_y(r), r) for r in results if r.ok]
    front = [
        (px, py, r)
        for px, py, r in points
        if not any(
            (qx <= px and qy <= py) and (qx < px or qy < py)
            for qx, qy, _ in points
        )
    ]
    front.sort(key=lambda item: (item[0], item[1]))
    return [r for _, _, r in front]


class ResultSet(Sequence):
    """Ordered, immutable collection of result rows.

    Wraps what a study run returns, keeping the rows it is given (no
    per-row copy); slicing yields another :class:`ResultSet`, so
    positional post-processing of concatenated grids
    (``results[:len(first_grid)]``) keeps the accessors.
    """

    def __init__(
        self,
        results: Iterable[SweepResult] = (),
        metrics: dict | None = None,
    ) -> None:
        self._results: tuple[SweepResult, ...] = tuple(results)
        self._metrics = metrics

    # -- sequence protocol -----------------------------------------------------
    def __len__(self) -> int:
        return len(self._results)

    def __iter__(self) -> Iterator[SweepResult]:
        return iter(self._results)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return ResultSet(self._results[index])
        return self._results[index]

    def __eq__(self, other) -> bool:
        if isinstance(other, ResultSet):
            return self._results == other._results
        return NotImplemented

    def __repr__(self) -> str:
        return f"ResultSet({len(self._results)} results)"

    # -- accessors -------------------------------------------------------------
    def scenarios(self) -> list:
        """The evaluated scenarios, in result order (grid-compatible)."""
        return [r.scenario for r in self._results]

    def table(
        self,
        columns: Sequence[str | tuple[str, str | Getter]] | None = None,
        title: str | None = None,
    ) -> Table:
        """Render as a :class:`~repro.utils.Table`.

        Default columns: ``label`` plus every value key of the first
        ``ok`` result, in evaluator order.
        """
        if columns is None:
            first = next((r.values for r in self._results if r.ok), {})
            columns = ["label", *first.keys()]
        return sweep_table(self._results, columns, title=title)

    def group_by(self, column: str | Getter) -> dict[Any, "ResultSet"]:
        """Bucket into per-key :class:`ResultSet` groups."""
        return {
            key: ResultSet(group)
            for key, group in group_by(self._results, column).items()
        }

    def pareto(
        self,
        x: str | Getter = "iteration_time",
        y: str | Getter = "peak_memory_bytes",
    ) -> "ResultSet":
        """The non-dominated (x, y) frontier of the ``ok`` rows, both
        axes minimized."""
        return ResultSet(pareto_front(self._results, x, y))

    def best(self, column: str | Getter = "iteration_time") -> SweepResult:
        """The ``ok`` result minimizing ``column``."""
        ranked = [r for r in self._results if r.ok]
        if not ranked:
            raise ValueError(
                "ResultSet has no ok result to rank (empty or all failed)"
            )
        return min(ranked, key=_getter(column))

    def ok(self) -> "ResultSet":
        """The successfully evaluated subset, order preserved."""
        return ResultSet(r for r in self._results if r.ok)

    def failures(self) -> "ResultSet":
        """The failed subset (``on_error="keep"`` rows), order preserved.

        Empty on any run with the default ``on_error="raise"`` — a
        failure would have raised instead of landing here.
        """
        return ResultSet(r for r in self._results if not r.ok)

    def cache_stats(self) -> dict:
        """Aggregate cache efficacy over the whole set.

        ``disk_hits`` counts scenarios answered from the on-disk JSON
        cache; the evaluator counters sum the per-scenario memo deltas
        of every result that reported them.  ``quarantined`` counts
        scenarios whose cache entry was found corrupt and moved aside
        (``*.json.corrupt``) before recomputing; ``failures`` counts
        kept-failure rows.

        Rows that report *no* memo delta are counted instead of silently
        dropped: ``vectorized`` counts rows priced by a whole-grid batch
        pass (they carry group-level ``batch_group`` stats, not memo
        deltas), ``uninstrumented`` counts rows with no stats at all (a
        custom evaluator that never called the memoized layer, or a
        cache hit written before stats existed) — so ``reported +
        vectorized + uninstrumented == scenarios`` always holds and a
        dashboard can tell "nothing measured" from "nothing to measure".

        ``federated`` counts scenarios answered by a remote worker's
        shared cache store (``backend="remote"`` against a ``repro
        serve`` fleet) — a third hit class beside the local evaluator
        memo and this run's disk cache.  Federated rows count toward
        ``reported`` (preserving the invariant above), but any memo
        delta stored with the entry belongs to the run that originally
        computed it and is *not* summed into this run's
        ``evaluator_hits`` / ``evaluator_misses``.
        """
        stats = {
            "scenarios": len(self._results),
            "disk_hits": sum(r.cached for r in self._results),
            "federated": 0,
            "evaluator_hits": 0,
            "evaluator_misses": 0,
            "reported": 0,
            "uninstrumented": 0,
            "vectorized": 0,
            "quarantined": 0,
            "failures": sum(not r.ok for r in self._results),
        }
        for result in self._results:
            delta = result.cache_stats
            if delta is None:
                stats["uninstrumented"] += 1
                continue
            if "batch_group" in delta and "hits" not in delta:
                # Whole-grid rows: group accounting only, no memo delta.
                stats["vectorized"] += 1
                stats["quarantined"] += delta.get("quarantined", 0)
                continue
            if "federated" in delta:
                stats["federated"] += 1
                stats["reported"] += 1
                stats["quarantined"] += delta.get("quarantined", 0)
                continue
            stats["reported"] += 1
            stats["evaluator_hits"] += delta.get("hits", 0)
            stats["evaluator_misses"] += delta.get("misses", 0)
            stats["quarantined"] += delta.get("quarantined", 0)
        return stats

    def metrics(self) -> dict | None:
        """The run report attached by an observed run, or ``None``.

        Shape (see :mod:`repro.obs`): ``{"version": ..., "run":
        {points/backend/workers/cached/failures/wall_s}, "metrics":
        {"counters": ..., "gauges": ..., "histograms": ...}}``.  Only
        present when the study ran with observability on
        (:meth:`~repro.api.study.Study.observe`); plain runs return
        ``None`` and pay nothing.
        """
        return self._metrics

    # -- export ----------------------------------------------------------------
    def to_json(
        self, *, indent: int | None = 1, include_cache_stats: bool = False
    ) -> str:
        """Deterministic JSON: scenario order, sorted keys, physical
        values only unless ``include_cache_stats=True`` (per-run memo
        deltas vary with worker scheduling; the values never do)."""
        with_stats = include_cache_stats
        if indent != 1:
            rows = [r.to_dict(include_cache_stats=with_stats) for r in self._results]
            return json.dumps(rows, indent=indent, sort_keys=True)
        rows = [
            json_text(r.to_dict(include_cache_stats=with_stats), 1)
            if with_stats or not r.ok
            else _ROW % (
                encode_basestring_ascii(r.label),
                json_text(scenario_payload(r.scenario), 2),
                json_text(r.values, 2),
            )
            for r in self._results
        ]
        return "[\n " + ",\n ".join(rows) + "\n]" if rows else "[]"
