"""Pluggable execution backends for studies and sweeps.

A :class:`Backend` evaluates a function over work items, yielding
``(index, result)`` as each result lands (:meth:`Backend.imap`, its one
method).  Three implementations ship, selectable by name:

* ``serial`` — in-process loop; the reference semantics.
* ``process`` — :class:`~concurrent.futures.ProcessPoolExecutor`;
  isolates heavy evaluations, each worker grows its own context pool.
  Evaluators must be module-level (picklable by qualified name).
* ``remote`` — :class:`repro.distrib.backend.RemoteBackend` (loaded
  lazily): shards the grid across ``python -m repro serve`` worker
  hosts, streams results back, and reshards a dead host's unfinished
  work onto the survivors.

There is no in-process thread or event-loop backend: pricing is pure
Python and holds the GIL, so threads only add scheduling cost, and
every evaluator is a plain callable (coroutine functions are rejected).
Whole-grid numpy pricing is no backend either: the sweep runner takes
that pass in place of ``Backend.imap`` when its ``vectorize`` option says.

The names are a fixed table (:func:`available_backends`).  A custom
backend is a :class:`Backend` instance, which every call site accepts
in place of a name — ``Study.backend(MyBackend())``,
``SweepRunner(backend=...)``.

This module is deliberately free of ``repro`` imports — with one
carve-out: :mod:`repro.obs.bus`, which itself imports nothing outside
the standard library, so the legacy :class:`~repro.sweep.runner
.SweepRunner` still delegates here without creating an import cycle
with the :mod:`repro.api` facade above it.  The process backend emits
``backend.shard`` / ``backend.pool_respawn`` events when observability
is on and pays a single boolean check when it is off; the sweep runner
ticks ``backend.item`` for each result any backend yields.

Determinism contract: ``imap`` yields each index once, with
``fn(items[index])`` — only scheduling and landing order may differ
from the serial loop — or, after every result that landed, raises
:class:`WorkersLost` (or the evaluator's own exception).  The process
backend degrades to the in-line loop at ``workers == 1`` (no pool
spin-up, and in-process side effects such as shared evaluator memos
stay visible to the caller).
"""

from __future__ import annotations

import abc
import inspect
import time
from typing import Any, Callable, Iterator, Sequence

from repro.obs.bus import active as _obs_active
from repro.obs.bus import emit as _obs_emit


class WorkersLost(Exception):
    """Raised by :meth:`Backend.imap`, after every result that landed,
    when the workers are gone with items unfinished; ``__cause__`` is
    the backend's own failure, if it has one."""


class Backend(abc.ABC):
    """Execution strategy: evaluate a function over work items."""

    #: The name run reports and events carry.
    name: str = "backend"

    @abc.abstractmethod
    def imap(
        self, fn: Callable[[Any], Any], items: Sequence[Any], *, workers: int = 1
    ) -> Iterator[tuple[int, Any]]:
        """Yield ``(index, fn(items[index]))`` once per item, as each
        result lands (see the module's determinism contract)."""

    def _require_sync(self, fn: Callable) -> None:
        """Reject coroutine-function evaluators loudly — silently
        returning coroutine objects that never run is never right."""
        if inspect.iscoroutinefunction(fn):
            raise TypeError(
                f"evaluator {getattr(fn, '__qualname__', fn)!r} is a coroutine "
                f"function; the {self.name!r} backend runs plain callables — "
                f"wrap it in a synchronous function that runs it to completion"
            )

    def __repr__(self) -> str:
        return f"<{type(self).__name__} name={self.name!r}>"


class SerialBackend(Backend):
    """Plain in-process loop — the semantics every other backend must match."""

    name = "serial"

    def imap(self, fn, items, *, workers: int = 1):
        self._require_sync(fn)
        return enumerate(map(fn, items))


class ProcessBackend(Backend):
    """Process-pool fan-out; evaluators travel by qualified name.

    Worker death is absorbed, not fatal: when a worker dies mid-shard
    (OOM-killed, segfaulted, SIGKILLed) the pool breaks and every
    unfinished future raises :class:`BrokenProcessPool`.  This backend
    yields the results that already landed, respawns the pool, and
    retries *only the unfinished shard* — up to ``max_pool_respawns``
    times, after which it raises :class:`WorkersLost` from the final
    :class:`BrokenProcessPool`.
    """

    name = "process"

    def __init__(self, max_pool_respawns: int = 2) -> None:
        if max_pool_respawns < 0:
            raise ValueError("max_pool_respawns must be >= 0")
        self.max_pool_respawns = max_pool_respawns

    def imap(self, fn, items, *, workers: int = 1):
        self._require_sync(fn)
        items = list(items)
        if workers <= 1 or len(items) <= 1:
            yield from enumerate(map(fn, items))
            return
        # Loaded here, so a serial run never imports multiprocessing.
        from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

        observing = _obs_active()
        pending = list(range(len(items)))
        respawns = 0
        while pending:
            unfinished = []
            if observing:
                shard_ts = time.time()
                shard_p0 = time.perf_counter()
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = {i: pool.submit(fn, items[i]) for i in pending}
                for i in pending:
                    try:
                        result = futures[i].result()
                    except BrokenProcessPool as exc:
                        # The pool is gone; completed futures still
                        # yield results, so keep draining the shard.
                        crash = exc
                        unfinished.append(i)
                        continue
                    # Any other exception is the evaluator's own and
                    # propagates, matching the serial loop's semantics.
                    yield i, result
            if observing:
                _obs_emit(
                    "backend.shard",
                    backend=self.name,
                    items=len(futures),
                    ok=not unfinished,
                    ts=shard_ts,
                    dur=time.perf_counter() - shard_p0,
                )
            pending = unfinished
            if not pending:
                break
            respawns += 1
            if respawns > self.max_pool_respawns:
                raise WorkersLost(
                    f"worker process died; {len(pending)} scenario(s) "
                    f"unfinished after exhausting pool respawns"
                ) from crash
            if observing:
                _obs_emit(
                    "backend.pool_respawn",
                    backend=self.name,
                    respawns=respawns,
                    pending=len(pending),
                )


def _remote_backend() -> Backend:
    # Imported lazily: repro.distrib sits on top of the whole evaluation
    # stack, and this module must stay repro-import-free at import time.
    from repro.distrib.backend import RemoteBackend

    return RemoteBackend()


#: name -> zero-arg factory returning a fresh Backend.
_REGISTRY: dict[str, Callable[[], Backend]] = {
    "serial": SerialBackend,
    "process": ProcessBackend,
    "remote": _remote_backend,
}


def available_backends() -> tuple[str, ...]:
    """The backend names, sorted."""
    return tuple(sorted(_REGISTRY))


def get_backend(spec: "str | Backend") -> Backend:
    """Resolve a backend by name, or pass an instance through."""
    if isinstance(spec, Backend):
        return spec
    if isinstance(spec, str):
        factory = _REGISTRY.get(spec)
        if factory is None:
            raise ValueError(
                f"unknown backend {spec!r}; registered backends: "
                f"{', '.join(available_backends())}"
            )
        return factory()
    raise TypeError(
        f"backend must be a registered name or a Backend instance, "
        f"got {type(spec).__name__}"
    )
