"""The per-run observability session: metrics + trace + progress + report.

:class:`ObsSession` is what a :class:`~repro.sweep.runner.SweepRunner`
holds when observability is on.  It subscribes to the event bus for the
duration of a run, folds every event into a :class:`MetricsRegistry`
(and, when tracing, a :class:`Tracer`), drives the optional live
progress line, and — at run end — writes the :data:`RUN_REPORT_NAME`
JSON atomically next to the cache's ``manifest.json`` (plus any
explicitly requested report/trace paths).

One session serves one run at a time; reusing it across runs is allowed
and *accumulates* (counters keep counting), which is the behavior a
long-lived service wants for its lifetime totals.

Event-to-metric mapping (the metrics catalogue):

====================================  =======================================
metric                                source
====================================  =======================================
``sweep.scenarios.computed``          one per ``scenario.span`` (fresh
                                      evaluations; cache hits excluded),
                                      plus each ``batch.pass``'s points
``sweep.scenario.wall_s`` (hist)      ``scenario.span`` duration
``sweep.scenario.queue_latency_s``    ``scenario.span`` queue-to-dispatch
(hist)                                delay (dispatch start - run start)
``sweep.attempts``                    attempts summed over ``scenario.span``
                                      (one per ``batch.pass`` point)
``sweep.attempts.failed``             failed ``scenario.attempt`` events
``sweep.timeouts``                    attempts failing with SweepTimeoutError
``sweep.retries``                     ``scenario.retry`` events
``sweep.retry.backoff_s`` (hist)      backoff slept before each retry
``sweep.failures``                    ``scenario.span`` with ``ok=False``
                                      (kept-failure rows)
``sweep.shards``                      process-backend shard dispatches
``sweep.pool_respawns``               ``backend.pool_respawn`` events
``sweep.cache.disk_hits`` /           per-run cache resolution
``.disk_misses`` / ``.quarantined``   (``cache.resolved``)
``sweep.evaluator.hits`` /            run-wide evaluator-memo totals folded
``.misses`` / ``.evictions``          from per-scenario deltas
``sweep.evaluator.uninstrumented``    computed rows reporting no delta
``sweep.faults_injected``             ``fault.injected`` events
``batch.groups`` / ``batch.scenarios``  vectorized template groups priced
``batch.group_size`` (hist)           scenarios per group
``batch.distinct_vectors``            post-dedup work vectors priced
``batch.schedules``                   schedules recorded for replay
``batch.fallbacks``                   groups degraded to the scalar loop
``sweep.cache.federated_hits``        scenarios answered by a remote
                                      worker's shared store
                                      (``run.evaluator`` ``federated``)
``sweep.remote.shards`` /             remote-backend shard dispatches and
``.shard_failures``                   ones lost to a dead/hung host
``sweep.remote.host_failures``        ``remote.host_down`` events
``sweep.store.hits`` / ``.misses`` /  federated cache-store counters merged
``.puts`` / ``.evictions`` /          from the workers' ``done`` frames
``.skews``                            (``remote.store``)
``run.points`` / ``run.wall_s``       gauges set at run begin/end
====================================  =======================================
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time

from repro.obs import bus
from repro.obs.files import write_atomic
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer

#: The run report's file name, written beside ``manifest.json``.
RUN_REPORT_NAME = "run_report.json"

#: Run-report schema version (bumped on breaking shape changes).
RUN_REPORT_VERSION = 1


def write_json_atomic(path, payload: dict) -> str:
    """Write ``payload`` as JSON via write-then-rename (torn-read safe)."""
    text = json.dumps(payload, indent=1, sort_keys=True)
    return write_atomic(path, text + "\n")


class ProgressLine:
    """Live ``N/total`` + ETA line on stderr (the ``--progress`` flag).

    Renders at most ~10x/second; thread-safe (ticks arrive from pool
    callbacks and worker threads).  Purely cosmetic: nothing downstream
    reads it, and a closed/broken stream is ignored.
    """

    def __init__(self, stream=None) -> None:
        self._stream = stream if stream is not None else sys.stderr
        self._lock = threading.Lock()
        self.total = 0
        self.done = 0
        self._t0 = 0.0
        self._last = 0.0
        self._active = False

    def begin(self, total: int) -> None:
        with self._lock:
            self.total = int(total)
            self.done = 0
            self._t0 = time.perf_counter()
            self._last = 0.0
            self._active = True
        self._render(force=True)

    def tick(self, n: int = 1) -> None:
        if n <= 0:
            return
        with self._lock:
            if not self._active:
                return
            self.done += n
        self._render()

    def _render(self, force: bool = False) -> None:
        now = time.perf_counter()
        with self._lock:
            if not self._active:
                return
            if not force and now - self._last < 0.1 and self.done < self.total:
                return
            self._last = now
            elapsed = now - self._t0
            done, total = self.done, self.total
        if done and total > done:
            eta = f"{elapsed / done * (total - done):.0f}s"
        elif total and done >= total:
            eta = "0s"
        else:
            eta = "?"
        pct = 100.0 * done / total if total else 100.0
        line = (
            f"\r[sweep] {done}/{total} ({pct:3.0f}%) "
            f"elapsed {elapsed:.1f}s eta {eta}"
        )
        try:
            self._stream.write(line.ljust(56))
            self._stream.flush()
        except (OSError, ValueError):
            pass  # closed or broken stream: progress is best-effort

    def end(self) -> None:
        self._render(force=True)
        with self._lock:
            if not self._active:
                return
            self._active = False
        try:
            self._stream.write("\n")
            self._stream.flush()
        except (OSError, ValueError):
            pass


class ObsSession:
    """Metrics + optional trace/progress/report for one sweep run.

    ``trace`` is ``False`` (off), ``True`` (collect in memory — read
    ``session.tracer``), or a path to write the Chrome-trace JSON to at
    run end.  ``report_path`` writes the run-report JSON there in
    addition to the cache-side :data:`RUN_REPORT_NAME` the runner
    requests when it has a cache directory.
    """

    def __init__(
        self,
        *,
        trace: "bool | str | os.PathLike" = False,
        progress: bool = False,
        report_path: "str | os.PathLike | None" = None,
        stream=None,
    ) -> None:
        self.registry = MetricsRegistry()
        trace_path = None
        if trace and not isinstance(trace, bool):
            trace_path = os.fspath(trace)
        self.tracer = Tracer() if trace else None
        self.trace_path = trace_path
        self.report_path = (
            os.fspath(report_path) if report_path is not None else None
        )
        self.progress = ProgressLine(stream) if progress else None
        self._run_info: dict = {}
        self._t0: float | None = None
        self._p0: float | None = None

    @property
    def run_t0(self) -> float:
        """Epoch seconds of the current run's start (0.0 before it)."""
        return self._t0 if self._t0 is not None else 0.0

    # -- run lifecycle ---------------------------------------------------------
    def run_begin(self, *, total: int, backend: str, workers: int) -> None:
        """Subscribe to the bus and mark the run's start of time."""
        self._t0 = time.time()
        self._p0 = time.perf_counter()
        self._run_info = {
            "points": int(total),
            "backend": backend,
            "workers": int(workers),
        }
        self.registry.set_gauge("run.points", int(total))
        bus.subscribe(self.handle)
        if self.progress is not None:
            self.progress.begin(total)
        bus.emit(
            "run.start",
            points=int(total),
            backend=backend,
            workers=int(workers),
            ts=self._t0,
        )

    def run_end(self, summary: dict | None = None, cache_dir=None) -> None:
        """Unsubscribe, close the run span, write trace/report files."""
        wall = (
            time.perf_counter() - self._p0 if self._p0 is not None else 0.0
        )
        bus.unsubscribe(self.handle)
        if self.progress is not None:
            self.progress.end()
        if summary:
            self._run_info.update(summary)
        self._run_info["wall_s"] = wall
        self.registry.set_gauge("run.wall_s", wall)
        if self.tracer is not None and self._t0 is not None:
            self.tracer.span(
                "sweep run",
                self._t0,
                wall,
                cat="run",
                args={
                    k: v
                    for k, v in self._run_info.items()
                    if isinstance(v, (int, str, bool))
                },
            )
        bus.emit("run.end", wall_s=wall, ts=time.time())
        if self.tracer is not None and self.trace_path:
            self.tracer.save(self.trace_path)
        if self.report_path:
            write_json_atomic(self.report_path, self.report())
        if cache_dir is not None:
            write_json_atomic(
                os.path.join(os.fspath(cache_dir), RUN_REPORT_NAME),
                self.report(),
            )

    def report(self) -> dict:
        """The run-report payload: run summary + full metrics snapshot."""
        return {
            "version": RUN_REPORT_VERSION,
            "run": dict(self._run_info),
            "metrics": self.registry.snapshot(),
        }

    # -- cross-process sidecar -------------------------------------------------
    def fold(self, blob) -> None:
        """Replay a worker's event sidecar onto the live bus.

        Skips sidecars recorded in this very process (in-process
        evaluations delivered those events live — replaying would
        double-count); replayed events carry ``_replayed=True`` so the
        log bridge and third-party hooks can tell them apart.
        """
        if not isinstance(blob, dict):
            return
        if blob.get("pid") == os.getpid():
            return
        for item in blob.get("events", ()):
            try:
                name, fields = item
                fields = dict(fields)
            except (TypeError, ValueError):
                continue
            fields["_replayed"] = True
            bus.emit(name, **fields)

    # -- the event handler -----------------------------------------------------
    def handle(self, event: str, fields: dict) -> None:
        """Bus subscriber: fold one event into metrics/trace/progress."""
        reg = self.registry
        tracer = self.tracer
        if event == "scenario.span":
            reg.inc("sweep.scenarios.computed")
            reg.inc("sweep.attempts", fields.get("attempts", 1))
            reg.observe("sweep.scenario.wall_s", fields.get("dur", 0.0))
            queue_s = fields.get("queue_s")
            if queue_s is not None:
                reg.observe("sweep.scenario.queue_latency_s", queue_s)
            if not fields.get("ok", True):
                reg.inc("sweep.failures")
            if tracer is not None:
                tracer.span(
                    fields.get("label", "scenario"),
                    fields.get("ts", 0.0),
                    fields.get("dur", 0.0),
                    cat="scenario",
                    pid=fields.get("pid"),
                    tid=fields.get("tid"),
                    args={
                        "ok": fields.get("ok", True),
                        "attempts": fields.get("attempts", 1),
                    },
                )
        elif event == "scenario.attempt":
            if not fields.get("ok", True):
                reg.inc("sweep.attempts.failed")
                if fields.get("error") == "SweepTimeoutError":
                    reg.inc("sweep.timeouts")
            if tracer is not None:
                label = fields.get("label", "scenario")
                tracer.span(
                    f"{label} [attempt {fields.get('attempt', 1)}]",
                    fields.get("ts", 0.0),
                    fields.get("dur", 0.0),
                    cat="attempt",
                    pid=fields.get("pid"),
                    tid=fields.get("tid"),
                    args={
                        "ok": fields.get("ok", True),
                        "error": fields.get("error"),
                    },
                )
        elif event == "scenario.retry":
            reg.inc("sweep.retries")
            reg.observe("sweep.retry.backoff_s", fields.get("dur", 0.0))
            if tracer is not None:
                tracer.span(
                    f"{fields.get('label', 'scenario')} [backoff]",
                    fields.get("ts", 0.0),
                    fields.get("dur", 0.0),
                    cat="backoff",
                    pid=fields.get("pid"),
                    tid=fields.get("tid"),
                )
        elif event == "scenario.failed":
            if tracer is not None:
                tracer.instant(
                    f"failed: {fields.get('label', 'scenario')}",
                    fields.get("ts", 0.0),
                    cat="failure",
                    pid=fields.get("pid"),
                    tid=fields.get("tid"),
                    args={"error": fields.get("error")},
                )
        elif event == "backend.item":
            if self.progress is not None:
                self.progress.tick(1)
        elif event == "backend.shard":
            reg.inc("sweep.shards")
            if tracer is not None:
                tracer.span(
                    f"{fields.get('backend', 'backend')} shard "
                    f"({fields.get('items', '?')} items)",
                    fields.get("ts", 0.0),
                    fields.get("dur", 0.0),
                    cat="backend",
                    pid=fields.get("pid"),
                    tid=fields.get("tid"),
                )
        elif event == "backend.pool_respawn":
            reg.inc("sweep.pool_respawns")
            if tracer is not None:
                tracer.instant(
                    f"pool respawn #{fields.get('respawns', '?')} "
                    f"({fields.get('pending', '?')} pending)",
                    fields.get("ts", 0.0),
                    cat="backend",
                    pid=fields.get("pid"),
                    tid=fields.get("tid"),
                )
        elif event == "cache.resolved":
            hits = fields.get("hits", 0)
            reg.inc("sweep.cache.disk_hits", hits)
            reg.inc("sweep.cache.disk_misses", fields.get("misses", 0))
            reg.inc("sweep.cache.quarantined", fields.get("quarantined", 0))
            if self.progress is not None:
                self.progress.tick(hits)
        elif event == "cache.quarantine":
            if tracer is not None:
                tracer.instant(
                    f"quarantined {fields.get('path', 'cache entry')}",
                    fields.get("ts", 0.0),
                    cat="cache",
                    pid=fields.get("pid"),
                    tid=fields.get("tid"),
                )
        elif event == "run.evaluator":
            reg.inc("sweep.evaluator.hits", fields.get("hits", 0))
            reg.inc("sweep.evaluator.misses", fields.get("misses", 0))
            reg.inc("sweep.evaluator.evictions", fields.get("evictions", 0))
            reg.inc(
                "sweep.evaluator.uninstrumented",
                fields.get("uninstrumented", 0),
            )
            federated = fields.get("federated", 0)
            if federated:
                # Guarded: local runs never carry the field, so their
                # run reports keep the exact counter set they had.
                reg.inc("sweep.cache.federated_hits", federated)
        elif event == "remote.shard":
            reg.inc("sweep.remote.shards")
            if not fields.get("ok", True):
                reg.inc("sweep.remote.shard_failures")
            if tracer is not None:
                tracer.span(
                    f"remote shard @ {fields.get('endpoint', '?')} "
                    f"({fields.get('items', '?')} items)",
                    fields.get("ts", 0.0),
                    fields.get("dur", 0.0),
                    cat="remote",
                    pid=fields.get("pid"),
                    tid=fields.get("tid"),
                    args={
                        "ok": fields.get("ok", True),
                        "completed": fields.get("completed"),
                        "round": fields.get("round"),
                    },
                )
        elif event == "remote.host_down":
            reg.inc("sweep.remote.host_failures")
            if tracer is not None:
                tracer.instant(
                    f"host down: {fields.get('endpoint', '?')} "
                    f"({fields.get('pending', '?')} rescued)",
                    fields.get("ts", 0.0),
                    cat="remote",
                    pid=fields.get("pid"),
                    tid=fields.get("tid"),
                    args={"error": fields.get("error")},
                )
        elif event == "remote.store":
            reg.inc("sweep.store.hits", fields.get("hits", 0))
            reg.inc("sweep.store.misses", fields.get("misses", 0))
            reg.inc("sweep.store.puts", fields.get("puts", 0))
            reg.inc("sweep.store.evictions", fields.get("evictions", 0))
            reg.inc("sweep.store.skews", fields.get("skews", 0))
        elif event == "batch.group":
            size = fields.get("size", 0)
            reg.inc("batch.groups")
            reg.inc("batch.scenarios", size)
            reg.observe("batch.group_size", size)
            reg.inc("batch.distinct_vectors", fields.get("distinct", 0))
            reg.inc("batch.schedules", fields.get("schedules", 0))
            if self.progress is not None:
                self.progress.tick(size)
            if tracer is not None:
                tracer.span(
                    f"batch group ({size} scenarios, "
                    f"{fields.get('distinct', '?')} distinct)",
                    fields.get("ts", 0.0),
                    fields.get("dur", 0.0),
                    cat="batch",
                    pid=fields.get("pid"),
                    tid=fields.get("tid"),
                )
        elif event == "batch.pass":
            # A whole-grid pass measures no per-scenario wall time, so
            # its points add no scenario.wall_s sample.
            scenarios = fields.get("scenarios", 0)
            reg.inc("sweep.scenarios.computed", scenarios)
            reg.inc("sweep.attempts", scenarios)
        elif event == "batch.fallback":
            size = fields.get("size", 0)
            reg.inc("batch.fallbacks")
            reg.inc("batch.scenarios", size)
            reg.observe("batch.group_size", size)
            if self.progress is not None:
                self.progress.tick(size)
            if tracer is not None:
                tracer.instant(
                    f"batch fallback ({size} scenarios)",
                    fields.get("ts", 0.0),
                    cat="batch",
                    pid=fields.get("pid"),
                    tid=fields.get("tid"),
                    args={"error": fields.get("error")},
                )
        elif event == "fault.injected":
            reg.inc("sweep.faults_injected")
            if tracer is not None:
                tracer.instant(
                    f"fault: {fields.get('kind', '?')} "
                    f"@ {fields.get('label', '?')}",
                    fields.get("ts", 0.0),
                    cat="fault",
                    pid=fields.get("pid"),
                    tid=fields.get("tid"),
                )
        # run.start / run.end / unknown events: nothing to fold here
        # (gauges are set by the lifecycle methods; unknown names are
        # forward-compatible extras third parties may emit).
