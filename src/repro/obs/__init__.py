"""``repro.obs`` — zero-dependency observability for the sweep stack.

Three pillars, all strictly pay-for-what-you-use (with observability
off, every instrumented call site is one :func:`~repro.obs.bus.active`
check and results/caches/manifests stay byte-identical):

* **Metrics** — :class:`MetricsRegistry` counters/gauges/histograms
  with deterministic JSON snapshots (:mod:`repro.obs.metrics`).
* **Tracing** — :class:`Tracer` records run/shard/attempt spans in the
  same Chrome-trace format :mod:`repro.sim.trace` exports, so a sweep
  run opens in https://ui.perfetto.dev next to the simulated timelines
  it priced (:mod:`repro.obs.trace`).
* **Surfacing** — the :func:`subscribe`/:func:`emit` ``on_event`` hook
  (:mod:`repro.obs.bus`), the ``repro`` stdlib-logging hierarchy with
  ``REPRO_LOG=debug`` auto-configuration (:mod:`repro.obs.log`), and
  :class:`ObsSession`, which drives it all for one run and writes the
  run report (:mod:`repro.obs.session`).

Event catalogue (``emit(name, **fields)`` — see :mod:`repro.obs.bus`
for the hook contract; all carry ``pid``/``tid``, spans carry ``ts``
epoch-seconds + ``dur`` seconds):

* ``run.start`` / ``run.end`` — run lifecycle (``points``, ``backend``,
  ``workers`` / ``wall_s``).
* ``scenario.span`` — one computed scenario end-to-end (``label``,
  ``ok``, ``attempts``, ``queue_s``).
* ``scenario.attempt`` — one evaluation attempt (``attempt``, ``ok``,
  ``error``, ``cause``).
* ``scenario.retry`` — one backoff sleep before a retry.
* ``scenario.failed`` — a kept failure (``error``, ``attempts``).
* ``backend.item`` — one result landed (the runner's tick, any backend).
* ``backend.shard`` — one process-pool shard dispatch (``items``).
* ``backend.pool_respawn`` — a crashed pool was respawned
  (``respawns``, ``pending``).
* ``cache.resolved`` — per-run disk-cache resolution (``hits``,
  ``misses``, ``quarantined``).
* ``cache.quarantine`` — one cache entry moved to ``*.corrupt``.
* ``run.evaluator`` — run-wide evaluator-memo totals (``hits``,
  ``misses``, ``evictions``, ``uninstrumented``, plus ``federated``
  on remote runs answered partly by a worker's shared store).
* ``remote.shard`` — one remote-backend shard dispatch (``endpoint``,
  ``items``, ``completed``, ``ok``, ``round``).
* ``remote.host_down`` — a remote worker died or went silent
  (``endpoint``, ``pending``, ``error``).
* ``remote.store`` — merged federated cache-store counters from the
  workers' ``done`` frames (``hits``, ``misses``, ``puts``,
  ``evictions``, ``skews``).
* ``batch.group`` / ``batch.fallback`` — vectorized template groups
  (``size``, ``distinct``, ``schedules`` / ``error``).
* ``batch.pass`` — a whole-grid pass returned (``scenarios``).
* ``fault.injected`` — a scripted :mod:`repro.testing.faults` fault
  fired (``kind``, ``label``, ``attempt``).

This package imports nothing outside the standard library, which is
what lets the otherwise repro-import-free layers (backends, resilience,
faults) emit into it without import cycles.
"""

from repro.obs.bus import (
    active,
    emit,
    label_of,
    pop_collector,
    push_collector,
    subscribe,
    unsubscribe,
)
from repro.obs.log import REPRO_LOG_ENV, configure_logging
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.session import (
    RUN_REPORT_NAME,
    RUN_REPORT_VERSION,
    ObsSession,
    ProgressLine,
    write_json_atomic,
)
from repro.obs.trace import Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ObsSession",
    "ProgressLine",
    "REPRO_LOG_ENV",
    "RUN_REPORT_NAME",
    "RUN_REPORT_VERSION",
    "Tracer",
    "active",
    "configure_logging",
    "emit",
    "label_of",
    "pop_collector",
    "push_collector",
    "subscribe",
    "unsubscribe",
    "write_json_atomic",
]

# REPRO_LOG=debug|info|... wires the handler+bridge at import time, so
# pool workers (fresh processes importing this module while unpickling
# the observed evaluator) log too.  Unset env -> no-op.
configure_logging()
