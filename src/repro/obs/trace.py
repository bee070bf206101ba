"""Execution tracing in the Chrome-trace format ``sim/trace.py`` uses.

The simulated timelines already export complete ("X") events with
``pid``/``tid`` lanes (:func:`repro.sim.trace.to_chrome_trace`); this
tracer records the *run itself* — run / backend shard / scenario
attempt spans, retry sleeps, pool respawns — in the same JSON shape, so
a sweep's execution trace opens in ``chrome://tracing`` or
https://ui.perfetto.dev right next to the timelines it priced.

Timestamps arrive as epoch seconds (``time.time()`` — comparable across
pool workers, unlike ``perf_counter``) with durations measured by the
emitter; export normalizes everything to microseconds relative to the
earliest event, so traces start at t=0 and negative timestamps cannot
occur.  Lanes: ``pid`` is the emitting OS process, ``tid`` the emitting
thread, which makes worker fan-out visually obvious in the viewer.
"""

from __future__ import annotations

import json
import os
import threading

from repro.obs.files import write_atomic


class Tracer:
    """Collects span/instant events and serializes Chrome-trace JSON."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._events: list[dict] = []
        #: The pid that owns the run (drives lane naming on export).
        self._root_pid = os.getpid()

    def __len__(self) -> int:
        return len(self._events)

    def span(
        self,
        name: str,
        ts: float,
        dur: float,
        *,
        cat: str = "sweep",
        pid: int | None = None,
        tid: int | None = None,
        args: dict | None = None,
    ) -> None:
        """One complete ("X") event: ``ts`` epoch seconds, ``dur`` seconds."""
        event = {
            "name": name,
            "cat": cat,
            "ph": "X",
            "ts": float(ts),
            "dur": max(float(dur), 0.0),
            "pid": pid if pid is not None else os.getpid(),
            "tid": tid if tid is not None else threading.get_ident(),
        }
        if args:
            event["args"] = args
        with self._lock:
            self._events.append(event)

    def instant(
        self,
        name: str,
        ts: float,
        *,
        cat: str = "sweep",
        pid: int | None = None,
        tid: int | None = None,
        args: dict | None = None,
    ) -> None:
        """One instant ("i") event, thread-scoped."""
        event = {
            "name": name,
            "cat": cat,
            "ph": "i",
            "s": "t",
            "ts": float(ts),
            "pid": pid if pid is not None else os.getpid(),
            "tid": tid if tid is not None else threading.get_ident(),
        }
        if args:
            event["args"] = args
        with self._lock:
            self._events.append(event)

    def to_chrome_trace(self) -> str:
        """Serialize to Chrome-trace JSON (µs, t0 at the earliest event)."""
        with self._lock:
            events = [dict(e) for e in self._events]
        t0 = min((e["ts"] for e in events), default=0.0)
        out = []
        pids = set()
        for e in events:
            e["ts"] = (e["ts"] - t0) * 1e6
            if "dur" in e:
                e["dur"] = e["dur"] * 1e6
            pids.add(e["pid"])
            out.append(e)
        # Lane names: the driver process vs. pool workers.
        for pid in sorted(pids):
            name = "sweep driver" if pid == self._root_pid else f"worker {pid}"
            out.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": 0,
                    "args": {"name": name},
                }
            )
        return json.dumps({"traceEvents": out}, indent=None)

    def save(self, path) -> str:
        """Atomic write-then-rename, like the cache files and manifest."""
        return write_atomic(path, self.to_chrome_trace())
