"""Fault tolerance for sweep execution: retries, timeouts, manifests.

A sweep under real traffic fails in ways the happy path never sees: a
scenario's objective raises, hangs, or takes a pool worker down with
it.  This module gives the execution stack the vocabulary to survive
those — without changing a single byte of what a healthy run computes:

* :class:`RetryPolicy` — bounded attempts with exponential backoff and
  *deterministic* seeded jitter (two runs of the same policy over the
  same scenario sleep identical delays), plus an optional per-scenario
  timeout enforced by a watchdog thread;
* an error taxonomy rooted at :class:`SweepError`, each instance
  carrying the failing :class:`~repro.sweep.grid.Scenario` and the
  attempt count: :class:`ScenarioError` (the objective raised),
  :class:`SweepTimeoutError` (the objective overran the policy
  timeout), :class:`WorkerCrashError` (the backend lost its workers
  with the scenario unfinished);
* :func:`run_with_policy` — the retry loop the runner wraps around
  objectives, returning either the values dict (with the attempt count
  attached under :data:`ATTEMPTS_KEY`) or, under ``on_error="keep"``, a
  serialized error marker under :data:`ERROR_KEY` instead of raising;
* :class:`RunManifest` — the resumability record written next to the
  JSON scenario cache (``manifest.json``: grid hash, per-slot status,
  cumulative attempt counts) that lets ``SweepRunner(resume=True)``
  re-execute only the failed-or-missing points of a crashed run; a run
  killed mid-evaluation keeps the cache entry of every point that
  landed.

Fault injection for tests lives in :mod:`repro.testing.faults`; the
retry loop consults the active plan so injected faults hit every
backend — including process-pool workers — through one code path.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable

# stdlib-only event bus (see repro.obs.bus): importable here without
# cycles, and a no-op unless a subscriber/collector is active.
from repro.obs.bus import active as _obs_active
from repro.obs.bus import emit as _obs_emit
from repro.obs.bus import label_of as _label_of
from repro.obs.files import write_atomic

#: Reserved values-dict key carrying the attempt count out of the retry
#: loop (popped by the runner into :attr:`SweepResult.attempts`).
ATTEMPTS_KEY = "_sweep_attempts"

#: Reserved values-dict key marking a kept failure: maps to the error
#: payload of :func:`error_payload` (popped by the runner into
#: :attr:`SweepResult.error`).
ERROR_KEY = "_sweep_error"

#: The resumability record's file name, next to the scenario JSON cache.
MANIFEST_NAME = "manifest.json"

MANIFEST_VERSION = 1

#: Patchable sleep so tests can pin backoff schedules without waiting.
_sleep = time.sleep


# -- error taxonomy -----------------------------------------------------------
class SweepError(Exception):
    """Base of the sweep failure taxonomy.

    Every instance knows *which* scenario failed (``scenario``), how
    many attempts were spent on it (``attempts``), and — where one
    exists — the underlying exception instance (``cause``).
    """

    def __init__(
        self,
        message: str,
        *,
        scenario=None,
        attempts: int = 1,
        cause: BaseException | None = None,
    ) -> None:
        super().__init__(message)
        self.scenario = scenario
        self.attempts = attempts
        self.cause = cause


class ScenarioError(SweepError):
    """The objective raised while evaluating one scenario.

    Distinct from infeasibility: an Eq. 10 point that does not fit the
    device comes back ``feasible=False`` as *data*; a bug in the
    objective (or an injected fault) comes here, with the original
    exception as ``cause``.
    """

    def __init__(
        self,
        message: str | None = None,
        *,
        scenario=None,
        attempts: int = 1,
        cause: BaseException | None = None,
    ) -> None:
        if message is None:
            label = scenario.label() if scenario is not None else "scenario"
            message = (
                f"{label} failed after {attempts} attempt(s): {cause!r}"
            )
        super().__init__(
            message, scenario=scenario, attempts=attempts, cause=cause
        )


class SweepTimeoutError(SweepError):
    """The objective overran the policy's per-scenario timeout."""

    def __init__(
        self,
        message: str | None = None,
        *,
        scenario=None,
        timeout: float | None = None,
        attempts: int = 1,
        cause: BaseException | None = None,
    ) -> None:
        if message is None:
            label = scenario.label() if scenario is not None else "scenario"
            message = f"{label} exceeded the {timeout:g}s scenario timeout"
        super().__init__(
            message, scenario=scenario, attempts=attempts, cause=cause
        )
        self.timeout = timeout


class WorkerCrashError(SweepError):
    """A backend lost its workers with scenarios unfinished.

    The sweep runner's form of :class:`~repro.api.backends.WorkersLost`:
    a process pool past its respawn budget (one worker death is
    absorbed by respawning the pool), or every remote host gone.
    ``scenario`` is the first unfinished point (the crash cannot be
    attributed more precisely); ``pending`` lists every scenario still
    unfinished when the workers were given up on.
    """

    def __init__(
        self,
        message: str | None = None,
        *,
        scenario=None,
        pending: tuple = (),
        attempts: int = 1,
        cause: BaseException | None = None,
    ) -> None:
        if message is None:
            message = (
                f"worker process died; {len(pending)} scenario(s) unfinished "
                f"after exhausting pool respawns"
            )
        super().__init__(
            message, scenario=scenario, attempts=attempts, cause=cause
        )
        self.pending = tuple(pending)


def error_payload(exc: SweepError) -> dict:
    """JSON-able description of a sweep failure (what ``on_error="keep"``
    stores in :attr:`SweepResult.error` and the result JSON)."""
    return {
        "type": type(exc).__name__,
        "message": str(exc),
        "cause": type(exc.cause).__name__ if exc.cause is not None else None,
        "attempts": exc.attempts,
    }


def kept_crash(crash: WorkerCrashError) -> dict:
    """The kept row (``on_error="keep"``) of a scenario lost with its
    pool worker or remote host.

    Its evaluation never reported back, so no span was recorded for it;
    the failure surfaces as a ``scenario.failed`` instant instead.
    """
    if _obs_active():
        _obs_emit(
            "scenario.failed",
            label=_label_of(crash.scenario),
            error="WorkerCrashError",
            attempts=1,
            ts=time.time(),
        )
    return {ERROR_KEY: error_payload(crash), ATTEMPTS_KEY: 1}


# -- retry policy -------------------------------------------------------------
@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with deterministic backoff and a scenario timeout.

    ``max_attempts`` counts total tries (1 = no retry).  Between
    attempts the loop sleeps ``backoff * backoff_factor**(retry-1)``
    seconds plus a jitter term drawn deterministically from
    ``(seed, scenario key, attempt)`` — uniform in ``[0, jitter)``
    seconds — so concurrent shards decorrelate their retries while two
    runs of the same study still sleep identical schedules.
    ``timeout`` bounds each *attempt* (not the whole scenario budget);
    an overrun raises :class:`SweepTimeoutError` and counts as a failed
    attempt like any other.
    """

    max_attempts: int = 1
    backoff: float = 0.0
    backoff_factor: float = 2.0
    jitter: float = 0.0
    seed: int = 0
    timeout: float | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff < 0:
            raise ValueError("backoff must be >= 0 seconds")
        if self.backoff_factor < 1:
            raise ValueError("backoff_factor must be >= 1")
        if self.jitter < 0:
            raise ValueError("jitter must be >= 0 seconds")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError("timeout must be positive seconds (or None)")

    def delay(self, retry: int, key: str = "") -> float:
        """Seconds to sleep before retry number ``retry`` (1-based).

        Deterministic: the jitter term hashes ``(seed, key, retry)``, so
        the same policy over the same scenario always produces the same
        schedule — reproducibility extends to the failure path.
        """
        if retry < 1:
            return 0.0
        base = self.backoff * self.backoff_factor ** (retry - 1)
        if self.jitter:
            digest = hashlib.sha256(
                f"{self.seed}:{key}:{retry}".encode()
            ).digest()
            unit = int.from_bytes(digest[:8], "big") / 2**64
            base += self.jitter * unit
        return base

    def to_dict(self) -> dict:
        return asdict(self)


def call_with_timeout(
    fn: Callable[[], dict],
    *,
    timeout: float | None,
    scenario=None,
) -> dict:
    """Run ``fn`` bounded by ``timeout`` seconds.

    ``timeout=None`` calls in-line (zero overhead — the healthy path
    stays byte-identical).  Otherwise the call runs on a daemon watchdog
    thread; an overrun raises :class:`SweepTimeoutError` and abandons
    the thread (a truly hung objective cannot be killed from Python, but
    a daemon thread never blocks interpreter exit).
    """
    if timeout is None:
        return fn()
    box: dict = {}

    def target() -> None:
        try:
            box["value"] = fn()
        except BaseException as exc:  # re-raised on the caller thread
            box["error"] = exc

    thread = threading.Thread(
        target=target, daemon=True, name="sweep-scenario-watchdog"
    )
    thread.start()
    thread.join(timeout)
    if thread.is_alive():
        raise SweepTimeoutError(scenario=scenario, timeout=timeout)
    if "error" in box:
        raise box["error"]
    return box["value"]


def _classify(exc: Exception, scenario, attempt: int) -> SweepError:
    """Fold an attempt's exception into the taxonomy, scenario attached."""
    if isinstance(exc, SweepError):
        exc.scenario = exc.scenario if exc.scenario is not None else scenario
        exc.attempts = attempt
        return exc
    return ScenarioError(scenario=scenario, attempts=attempt, cause=exc)


def run_with_policy(
    evaluate: Callable,
    scenario,
    policy: RetryPolicy,
    on_error: str = "raise",
    on_timeout: Callable | None = None,
) -> dict:
    """Evaluate one scenario under a retry policy.

    Success returns the values dict with :data:`ATTEMPTS_KEY` attached.
    After ``policy.max_attempts`` failures: ``on_error="raise"``
    re-raises the final taxonomy error; ``on_error="keep"`` returns a
    marker dict (:data:`ERROR_KEY` -> :func:`error_payload`) so the
    whole sweep keeps going and the failure becomes data.
    ``on_timeout(scenario)`` runs after each timed-out attempt, before
    the next one starts.

    The active fault-injection plan (:mod:`repro.testing.faults`) is
    consulted inside the timed section, so injected hangs trip the
    timeout exactly like organic ones.
    """
    from repro.testing.faults import active_plan

    plan = active_plan()
    key = scenario.key() if hasattr(scenario, "key") else repr(scenario)
    last: SweepError | None = None
    attempts = 0
    for attempt in range(1, policy.max_attempts + 1):
        attempts = attempt
        observing = _obs_active()
        if attempt > 1:
            delay = policy.delay(attempt - 1, key)
            if observing:
                retry_ts = time.time()
            if delay > 0:
                _sleep(delay)
            if observing:
                _obs_emit(
                    "scenario.retry",
                    label=_label_of(scenario),
                    attempt=attempt,
                    ts=retry_ts,
                    dur=delay,
                )

        def once() -> dict:
            if plan is not None:
                plan.maybe_inject(scenario)
            return evaluate(scenario)

        if observing:
            attempt_ts = time.time()
            attempt_p0 = time.perf_counter()
        try:
            values = call_with_timeout(
                once, timeout=policy.timeout, scenario=scenario
            )
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception as exc:
            last = _classify(exc, scenario, attempt)
            if on_timeout is not None and isinstance(last, SweepTimeoutError):
                on_timeout(scenario)
            if observing:
                _obs_emit(
                    "scenario.attempt",
                    label=_label_of(scenario),
                    attempt=attempt,
                    ok=False,
                    error=type(last).__name__,
                    cause=type(last.cause).__name__
                    if last.cause is not None
                    else None,
                    ts=attempt_ts,
                    dur=time.perf_counter() - attempt_p0,
                )
        else:
            if observing:
                _obs_emit(
                    "scenario.attempt",
                    label=_label_of(scenario),
                    attempt=attempt,
                    ok=True,
                    ts=attempt_ts,
                    dur=time.perf_counter() - attempt_p0,
                )
            values[ATTEMPTS_KEY] = attempt
            return values
    if on_error == "raise":
        raise last
    if _obs_active():
        _obs_emit(
            "scenario.failed",
            label=_label_of(scenario),
            error=type(last).__name__,
            attempts=attempts,
            ts=time.time(),
        )
    return {ERROR_KEY: error_payload(last), ATTEMPTS_KEY: attempts}


# -- run manifest (resumability) ----------------------------------------------
def grid_digest(keys) -> str:
    """Stable identity of an ordered slot-key list — what a manifest is
    *for*: resuming a different grid against it must fail loudly."""
    return hashlib.sha1("\n".join(keys).encode()).hexdigest()[:20]


class RunManifest:
    """Per-run completion record written beside the JSON scenario cache.

    One entry per deduplicated grid slot, keyed by the scenario's cache
    key: status (``"ok"`` / ``"failed"``), cumulative attempt count, and
    the error payload for failures.  The runner records each point as
    it lands and writes the file atomically at most twice per run: when
    evaluation raises (hits and landed points stay on record) and when
    the run ends.  A rewrite per computed point would cost time
    quadratic in the grid size, so a process killed mid-evaluation
    leaves the previous manifest, or none, and ``resume=True`` falls
    back to the cache files, which hold every point that landed.  The
    attempts it had in flight are then never counted: a point killed
    once and finished on resume reads one attempt fewer than it ran.
    """

    def __init__(self, cache_dir, grid_hash: str) -> None:
        self.path = Path(cache_dir) / MANIFEST_NAME
        self.grid_hash = grid_hash
        self.slots: dict[str, dict] = {}

    @classmethod
    def load(cls, cache_dir) -> "RunManifest | None":
        """The manifest stored under ``cache_dir``, or None if there is
        none (a corrupt manifest is treated as none — the per-scenario
        cache files remain the source of truth for completed work)."""
        path = Path(cache_dir) / MANIFEST_NAME
        if not path.is_file():
            return None
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            return None
        if (
            not isinstance(payload, dict)
            or payload.get("version") != MANIFEST_VERSION
            or not isinstance(payload.get("slots"), dict)
            or not isinstance(payload.get("grid"), str)
        ):
            return None
        manifest = cls(path.parent, payload["grid"])
        manifest.slots = payload["slots"]
        return manifest

    def prior_attempts(self, key: str) -> int:
        entry = self.slots.get(key)
        if not isinstance(entry, dict):
            return 0
        attempts = entry.get("attempts", 0)
        return attempts if isinstance(attempts, int) and attempts > 0 else 0

    def record(
        self, key: str, status: str, attempts: int, error: dict | None = None
    ) -> None:
        entry: dict = {"status": status, "attempts": attempts}
        if error is not None:
            entry["error"] = error
        self.slots[key] = entry

    def failed(self) -> list[str]:
        return [
            k for k, e in sorted(self.slots.items())
            if e.get("status") == "failed"
        ]

    def write(self) -> None:
        """Atomic write-then-rename, mirroring the scenario cache files."""
        payload = {
            "version": MANIFEST_VERSION,
            "grid": self.grid_hash,
            "slots": self.slots,
        }
        write_atomic(self.path, json.dumps(payload, indent=1, sort_keys=True))
