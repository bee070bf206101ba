"""stdlib-``logging`` integration for the ``repro`` logger hierarchy.

Two pieces:

* :func:`configure_logging` — attach one stream handler to the root
  ``repro`` logger at a requested level.  ``REPRO_LOG=debug`` (or
  ``info``/``warning``/...) in the environment triggers it automatically
  when :mod:`repro.obs` is imported — including inside process-pool
  workers, which inherit the environment and import the module when the
  observed evaluation wrapper unpickles.
* the **event bridge** — a bus subscriber translating emitted events
  into log records under ``repro.obs.events``, so ``REPRO_LOG=debug``
  narrates a run (every attempt, retry sleep, cache resolution) while
  ``REPRO_LOG=warning`` surfaces only the recoveries: quarantined cache
  entries, injected faults, pool respawns, kept failures.

Logging never becomes a second source of truth: the bridge only renders
what the bus already carries, and it skips sidecar-replayed events
(workers logged them live in their own process).
"""

from __future__ import annotations

import logging
import os
import sys

from repro.obs import bus

#: Environment variable enabling auto-configuration at import time.
REPRO_LOG_ENV = "REPRO_LOG"

_LEVELS = {
    "debug": logging.DEBUG,
    "info": logging.INFO,
    "warning": logging.WARNING,
    "warn": logging.WARNING,
    "error": logging.ERROR,
    "critical": logging.CRITICAL,
}

#: Events worth surfacing above the debug narration.
_EVENT_LEVELS = {
    "run.start": logging.INFO,
    "run.end": logging.INFO,
    "scenario.retry": logging.INFO,
    "scenario.failed": logging.WARNING,
    "cache.quarantine": logging.WARNING,
    "backend.pool_respawn": logging.WARNING,
    "fault.injected": logging.WARNING,
}

_configured = False


def _compact(fields: dict) -> str:
    parts = []
    for key in sorted(fields):
        if key.startswith("_") or key in ("pid", "tid"):
            continue
        value = fields[key]
        if isinstance(value, float):
            parts.append(f"{key}={value:.6g}")
        else:
            parts.append(f"{key}={value}")
    return " ".join(parts)


def _bridge(event: str, fields: dict) -> None:
    """Bus subscriber -> ``repro.obs.events`` records (see module doc)."""
    if fields.get("_replayed"):
        return  # the worker that emitted it already logged it
    logger = logging.getLogger("repro.obs.events")
    level = _EVENT_LEVELS.get(event, logging.DEBUG)
    if logger.isEnabledFor(level):
        logger.log(level, "%s %s", event, _compact(fields))


def configure_logging(
    level: "str | int | None" = None, stream=None
) -> logging.Logger | None:
    """Wire the ``repro`` logger to a stream handler and the event bridge.

    ``level`` accepts a name (``"debug"``), a :mod:`logging` constant,
    or ``None`` to read :data:`REPRO_LOG_ENV` (no-op when unset — the
    caller keeps full control of logging by default).  Idempotent: the
    handler and bridge are installed once; later calls only adjust the
    level.  Returns the configured logger, or ``None`` if nothing was
    requested.
    """
    global _configured
    if level is None:
        raw = os.environ.get(REPRO_LOG_ENV, "").strip().lower()
        if not raw:
            return None
        level = _LEVELS.get(raw, logging.INFO)
    elif isinstance(level, str):
        name = level.strip().lower()
        if name not in _LEVELS:
            raise ValueError(
                f"unknown log level {level!r}; known: {', '.join(_LEVELS)}"
            )
        level = _LEVELS[name]
    logger = logging.getLogger("repro")
    logger.setLevel(level)
    if not _configured:
        handler = logging.StreamHandler(stream or sys.stderr)
        handler.setFormatter(
            logging.Formatter(
                "%(asctime)s %(name)s %(levelname)s %(message)s"
            )
        )
        logger.addHandler(handler)
        bus.subscribe(_bridge)
        _configured = True
    return logger
