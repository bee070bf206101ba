"""Deterministic fault injection for the sweep execution stack.

A :class:`FaultPlan` scripts failures against named scenarios — *fail
scenario k on its first j-1 attempts*, *hang for t seconds*, *kill the
worker process mid-shard*.  Faults trigger inside
the resilience retry loop (:func:`repro.sweep.resilience
.run_with_policy`), so one plan reaches every backend: the serial loop
and process-pool workers (which load the plan from the
:data:`FAULT_PLAN_ENV` environment variable their parent exports via
:meth:`FaultPlan.install`).

Everything is deterministic.  Attempt counters live as files under the
plan's ``state_dir`` — appended *before* a fault fires, so even a
SIGKILL'd worker leaves an accurate count — and a fault scoped
``attempts_below=j`` fires on exactly the first ``j-1`` attempts of its
scenario, every run, on every backend.

Plans only ever fire inside the resilience wrapper: a sweep with no
retry policy and ``on_error="raise"`` never consults the plan, which is
what keeps un-instrumented runs byte-identical to a world without this
module.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import signal
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

# stdlib-only event bus (see repro.obs.bus): a no-op unless a
# subscriber/collector is active, so byte-identity holds with obs off.
from repro.obs.bus import active as _obs_active
from repro.obs.bus import emit as _obs_emit
from repro.obs.bus import label_of as _label_of

#: Environment variable naming a JSON-serialized plan; worker processes
#: (which do not share the parent's module state) activate it from here.
FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"

#: Environment variable naming the executing worker (set by
#: ``python -m repro serve --tag`` and :class:`repro.distrib.server
#: .StudyServer`).  A :class:`Fault` with a ``worker`` field fires only
#: in processes whose tag matches — the handle for "kill worker A but
#: let worker B recover the shard" tests against a multi-host fleet.
WORKER_TAG_ENV = "REPRO_WORKER_TAG"

FAULT_KINDS = ("fail", "hang", "kill")


class FaultInjected(RuntimeError):
    """The exception a ``"fail"`` fault raises inside the objective."""


@dataclass(frozen=True)
class Fault:
    """One scripted fault.

    ``match`` maps scenario field names to required values ({} matches
    every scenario).  ``attempts_below=j`` fires the fault only while
    the scenario's attempt count is below ``j`` — i.e. on its first
    ``j-1`` attempts — modelling a flaky objective that recovers;
    ``None`` fires on every attempt (a fatal fault).

    Kinds: ``"fail"`` raises :class:`FaultInjected`; ``"hang"`` sleeps
    ``seconds`` then lets the evaluation proceed (pair with a policy
    timeout to model a hung objective); ``"kill"`` SIGKILLs the current
    process — inside a process-pool worker, the mid-shard worker death
    the backend must absorb; inside a ``repro serve`` process, the
    dead *host* the remote backend must reshard around.

    ``worker`` scopes the fault to one named worker: it fires (and
    counts attempts) only in processes whose :data:`WORKER_TAG_ENV`
    matches, so a kill aimed at server ``"a"`` cannot re-fire when the
    survivor ``"b"`` recovers the same scenario.
    """

    kind: str
    match: dict = field(default_factory=dict)
    attempts_below: int | None = None
    message: str = "injected fault"
    seconds: float = 0.0
    worker: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; available: {FAULT_KINDS}"
            )
        if self.attempts_below is not None and self.attempts_below < 1:
            raise ValueError("attempts_below must be >= 1 (or None for always)")
        if self.seconds < 0:
            raise ValueError("seconds must be >= 0")

    def matches(self, scenario) -> bool:
        if self.worker is not None:
            if os.environ.get(WORKER_TAG_ENV) != self.worker:
                return False
        sentinel = object()
        return all(
            getattr(scenario, name, sentinel) == value
            for name, value in self.match.items()
        )


class FaultPlan:
    """A deterministic set of faults plus durable attempt counters.

    ``state_dir`` holds one counter file per (fault, scenario) pair and
    the serialized plan for worker processes.  Activate in-process with
    ``with plan.active(): ...`` (the serial backend) or
    cross-process with :meth:`install` / :meth:`uninstall` (exports
    :data:`FAULT_PLAN_ENV` for pool workers to pick up).
    """

    def __init__(self, faults, state_dir) -> None:
        self.faults = tuple(faults)
        self.state_dir = Path(state_dir)
        self.state_dir.mkdir(parents=True, exist_ok=True)

    # -- (de)serialization -----------------------------------------------------
    def to_json(self) -> str:
        return json.dumps(
            {
                "state_dir": str(self.state_dir),
                "faults": [asdict(f) for f in self.faults],
            },
            indent=1,
            sort_keys=True,
        )

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultPlan":
        return cls(
            [Fault(**f) for f in payload.get("faults", ())],
            payload["state_dir"],
        )

    @classmethod
    def load(cls, path) -> "FaultPlan":
        return cls.from_dict(json.loads(Path(path).read_text()))

    # -- attempt counters ------------------------------------------------------
    def _counter_path(self, tag: str) -> Path:
        digest = hashlib.sha1(tag.encode()).hexdigest()[:20]
        return self.state_dir / f"{digest}.count"

    def _bump(self, tag: str) -> int:
        """Durably count one attempt; returns the new total.

        One byte appended (and fsynced) per attempt: the count survives
        a SIGKILL landing immediately afterwards, and concurrent
        appenders from different processes never lose an increment.
        """
        path = self._counter_path(tag)
        with open(path, "ab") as fh:
            fh.write(b"x")
            fh.flush()
            os.fsync(fh.fileno())
        return path.stat().st_size

    def attempts(self, fault_index: int, scenario) -> int:
        """Attempts the plan has seen for one fault/scenario pair."""
        tag = f"{fault_index}:{scenario.key()}"
        path = self._counter_path(tag)
        return path.stat().st_size if path.is_file() else 0

    # -- injection -------------------------------------------------------------
    def maybe_inject(self, scenario) -> None:
        """Fire the first due fault for this scenario attempt, if any.

        Called by the resilience retry loop at the top of every attempt.
        Matching faults count the attempt even when scoped out by
        ``attempts_below`` — that is what makes "fail the first j-1
        attempts" line up with the runner's own attempt numbering.
        """
        for index, fault in enumerate(self.faults):
            if not fault.matches(scenario):
                continue
            seen = self._bump(f"{index}:{scenario.key()}")
            if fault.attempts_below is not None and seen >= fault.attempts_below:
                continue
            if _obs_active():
                _obs_emit(
                    "fault.injected",
                    kind=fault.kind,
                    label=_label_of(scenario),
                    attempt=seen,
                )
            if fault.kind == "fail":
                raise FaultInjected(fault.message)
            if fault.kind == "hang":
                time.sleep(fault.seconds)
            elif fault.kind == "kill":
                os.kill(os.getpid(), signal.SIGKILL)

    # -- activation ------------------------------------------------------------
    @contextlib.contextmanager
    def active(self):
        """In-process activation (the serial backend)."""
        global _ACTIVE
        previous = _ACTIVE
        _ACTIVE = self
        try:
            yield self
        finally:
            _ACTIVE = previous

    def install(self) -> str:
        """Cross-process activation: persist the plan and export
        :data:`FAULT_PLAN_ENV` so pool workers (which inherit the
        environment) load it.  Returns the plan file path."""
        path = self.state_dir / "plan.json"
        path.write_text(self.to_json())
        os.environ[FAULT_PLAN_ENV] = str(path)
        _LOADED.pop(str(path), None)  # a re-written plan must reload
        return str(path)

    def uninstall(self) -> None:
        os.environ.pop(FAULT_PLAN_ENV, None)
        _LOADED.clear()


#: The in-process plan set by :meth:`FaultPlan.active`.
_ACTIVE: FaultPlan | None = None

#: Plans loaded from :data:`FAULT_PLAN_ENV`, cached per path.
_LOADED: dict[str, FaultPlan] = {}


def active_plan() -> FaultPlan | None:
    """The plan the resilience loop should consult, or None.

    In-process activation wins; otherwise :data:`FAULT_PLAN_ENV` names a
    serialized plan (the worker-process and CLI path).  A plan that
    fails to load raises — silently dropping scripted faults would turn
    a red resilience test green.
    """
    if _ACTIVE is not None:
        return _ACTIVE
    path = os.environ.get(FAULT_PLAN_ENV)
    if not path:
        return None
    plan = _LOADED.get(path)
    if plan is None:
        plan = _LOADED[path] = FaultPlan.load(path)
    return plan
