"""Cache sabotage for the cache and store tests: damage one entry on disk."""

from __future__ import annotations

import json
from pathlib import Path


def corrupt_cache_entry(path) -> None:
    """Truncate a cache entry into undecodable garbage in place."""
    Path(path).write_text('{"values": garbage')


def skew_cache_entry(path) -> None:
    """Version-skew a cache entry: its scenario payload stops
    round-tripping the current :class:`~repro.sweep.grid.Scenario`
    fields (as if written by a different library version)."""
    payload = json.loads(Path(path).read_text())
    scenario = dict(payload.get("scenario") or {})
    scenario["retired_axis"] = True  # a field no current Scenario has
    payload["scenario"] = scenario
    Path(path).write_text(json.dumps(payload, indent=1, sort_keys=True))
