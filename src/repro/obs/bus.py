"""The event bus: one ``emit()`` call site per instrumented action.

Everything the observability layer sees flows through here as
``(event_name, fields)`` pairs.  Two delivery paths exist:

* **Subscribers** (:func:`subscribe` / :func:`unsubscribe`) — plain
  callables invoked synchronously in the emitting thread.  The
  :class:`~repro.obs.session.ObsSession` is one; third-party backends
  and tests register their own (the ``on_event`` hook contract below).
* **Collectors** — a :class:`contextvars.ContextVar` holding a list the
  current evaluation appends its events to.  This is the cross-process
  transport: a pool worker has no live subscribers, so the runner's
  evaluation wrapper pushes a collector, lets the events accumulate,
  and ships them back to the parent inside the values dict (the
  "sidecar"; see ``repro.sweep.runner.Execution``).

Pay-for-what-you-use is enforced structurally: every instrumented call
site guards its field construction with :func:`active`, and with no
subscribers and no collector that check is one global read and one
context-variable read.  Nothing here imports beyond the stdlib, so the
otherwise repro-import-free modules (``repro.api.backends``,
``repro.sweep.resilience``, ``repro.testing.faults``) may emit without
creating import cycles.

``on_event`` hook contract (for third-party backends and tools):

* ``fn(event: str, fields: dict)`` is called synchronously on the
  thread that emitted — return fast, never raise (an exception
  propagates into the instrumented code path).
* ``fields`` is a plain dict of JSON-able scalars.  Common keys:
  ``pid``/``tid`` (stamped by :func:`emit`), ``ts`` (epoch seconds of
  the action's start), ``dur`` (seconds), ``label`` (scenario label),
  ``ok``, ``attempt``/``attempts``, ``error`` (exception class name).
  Treat unknown keys as forward-compatible extras.
* Events replayed from a worker sidecar carry ``_replayed: True``;
  skip them if the hook already saw the live emission (in-process
  backends deliver live, the process backend only replays).
* The event-name catalogue lives in :mod:`repro.obs` (module
  docstring) and in README "Observability".
"""

from __future__ import annotations

import contextvars
import os
import threading
from typing import Any, Callable

Subscriber = Callable[[str, dict], None]

_SUBSCRIBERS: list[Subscriber] = []
_SUB_LOCK = threading.Lock()

#: Per-context event sink used as the cross-process sidecar transport.
_COLLECTOR: contextvars.ContextVar = contextvars.ContextVar(
    "repro_obs_collector", default=None
)


def active() -> bool:
    """Whether any emission would be observed (subscriber or collector).

    The guard every instrumented call site checks before building event
    fields; with observability off this is the entire overhead.
    """
    return bool(_SUBSCRIBERS) or _COLLECTOR.get() is not None


def subscribe(fn: Subscriber) -> Subscriber:
    """Register an ``on_event`` hook (see the module docstring for the
    contract).  Returns ``fn`` so it works as a decorator."""
    with _SUB_LOCK:
        if fn not in _SUBSCRIBERS:
            _SUBSCRIBERS.append(fn)
    return fn


def unsubscribe(fn: Subscriber) -> None:
    """Remove a hook; unknown hooks are ignored (idempotent teardown)."""
    with _SUB_LOCK:
        if fn in _SUBSCRIBERS:
            _SUBSCRIBERS.remove(fn)


def emit(event: str, /, **fields) -> None:
    """Deliver one event to the collector and every subscriber.

    ``pid``/``tid`` are stamped here (unless the caller provided them or
    the event is a sidecar replay) so trace lanes and the cross-process
    replay check need no cooperation from call sites.  Call sites should
    still guard with :func:`active` to skip building ``fields`` at all.
    """
    collector = _COLLECTOR.get()
    if not _SUBSCRIBERS and collector is None:
        return
    if "pid" not in fields:
        fields["pid"] = os.getpid()
        fields["tid"] = threading.get_ident()
    if collector is not None:
        collector.append((event, fields))
    if _SUBSCRIBERS:
        for fn in tuple(_SUBSCRIBERS):
            fn(event, fields)


def push_collector(events: list) -> contextvars.Token:
    """Start collecting this context's emissions into ``events``."""
    return _COLLECTOR.set(events)


def pop_collector(token: contextvars.Token) -> None:
    """Stop the collection started by the matching :func:`push_collector`."""
    _COLLECTOR.reset(token)


def label_of(obj: Any) -> str:
    """A display label for a scenario-like object (``.label()`` if it
    has one, else ``repr``) — shared by every emitting call site."""
    label = getattr(obj, "label", None)
    if callable(label):
        return label()
    return repr(obj)
