"""The federated cache store: content-addressed, version-stamped, bounded.

A :class:`CacheStore` is what a ``repro serve`` worker consults before
computing a scenario and writes back after: one JSON file per entry
under ``root``, keyed by the same scenario-content digest
(:meth:`Scenario.key <repro.sweep.grid.Scenario.key>` salted with the
objective's qualified name) the :class:`~repro.sweep.runner.SweepRunner`
disk cache uses — so a study computed anywhere in the fleet is a hit
for every client sweeping the same point with the same objective.

Differences from the runner's plain disk cache, which justify a
separate type:

* **Version stamp.**  Every entry records :data:`STORE_VERSION`; a
  skewed entry (written by a different library version) reads as a miss
  and is evicted, never served.  The same constant rides the connection
  handshake (:func:`repro.distrib.protocol.client_handshake`), so a
  client and server disagreeing on the entry format never exchange
  cache payloads at all.
* **Bounded.**  ``max_entries`` / ``max_bytes`` cap the store;
  inserting past a bound evicts least-recently-*used* entries (access
  time is refreshed on every hit), so a long-lived server under heavy
  traffic keeps its hot working set and sheds the tail.
* **Counters.**  ``hits`` / ``misses`` / ``puts`` / ``evictions`` /
  ``skews`` accumulate over the store's lifetime and travel back to
  clients in the shard ``done`` frame, where they surface in
  :meth:`ResultSet.cache_stats <repro.api.result.ResultSet
  .cache_stats>`, :mod:`repro.obs` metrics, and ``run_report.json``.

Entries share the runner cache's format (:func:`~repro.sweep.grid
.encode_entry` / :func:`~repro.sweep.grid.read_entry`) plus the stamp,
are written write-then-rename (torn-read safe under concurrent readers
and rsync), and the whole store is just files — two hosts can merge
stores with ``rsync`` and the result is a valid store.
"""

from __future__ import annotations

import os
import threading
from pathlib import Path

from repro.obs.files import write_atomic
from repro.sweep.grid import encode_entry, read_entry

#: Entry-format version, stamped into every file and checked on read
#: (and at connection handshake time).  Bump on any breaking change to
#: the entry payload shape.
STORE_VERSION = 1


class CacheStore:
    """Content-addressed scenario-result store with LRU bounds."""

    def __init__(
        self,
        root,
        *,
        max_entries: int | None = None,
        max_bytes: int | None = None,
    ) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be >= 1 (or None for unbounded)")
        if max_bytes is not None and max_bytes < 1:
            raise ValueError("max_bytes must be >= 1 (or None for unbounded)")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self._lock = threading.Lock()
        self._counters = {
            "hits": 0, "misses": 0, "puts": 0, "evictions": 0, "skews": 0,
        }

    # -- keys and paths --------------------------------------------------------
    def path_for(self, scenario, salt: str = "") -> Path:
        """The entry file for one (scenario, objective-salt) pair."""
        return self.root / f"{scenario.key(salt)}.json"

    def _entries(self) -> list[Path]:
        return [p for p in self.root.glob("*.json")]

    def __len__(self) -> int:
        return len(self._entries())

    def total_bytes(self) -> int:
        return sum(p.stat().st_size for p in self._entries())

    def stats(self) -> dict:
        """Lifetime counter snapshot (plus current size/byte gauges)."""
        with self._lock:
            snapshot = dict(self._counters)
        snapshot["entries"] = len(self)
        return snapshot

    def _count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self._counters[name] += n

    # -- read ------------------------------------------------------------------
    def get(self, scenario, salt: str = "") -> dict | None:
        """The stored entry for ``scenario``, or ``None`` on a miss.

        Returns ``{"values": ..., "evaluator_cache": ... | None,
        "attempts": int}``.  A hit refreshes the entry's access time
        (the LRU clock).  Undecodable, shape-foreign, version-skewed, or
        scenario-mismatched entries are dropped from the store and read
        as misses — a federated store must never serve a stale shape.
        An entry that cannot be read right now stays: a plain miss.
        """
        path = self.path_for(scenario, salt)
        try:
            hit = read_entry(path, scenario, STORE_VERSION)
        except ValueError:
            self._discard(path, skew=True)
            hit = None
        if hit is None:
            self._count("misses")
            return None
        try:
            os.utime(path)  # refresh the LRU clock
        except OSError:
            pass  # concurrently evicted: the payload in hand is still good
        self._count("hits")
        values, stats, attempts = hit
        return {"values": values, "evaluator_cache": stats, "attempts": attempts}

    # -- write -----------------------------------------------------------------
    def put(
        self,
        scenario,
        values: dict,
        *,
        stats: dict | None = None,
        attempts: int = 1,
        salt: str = "",
    ) -> Path:
        """Store one computed scenario (write-then-rename), then evict
        down to the configured bounds (never evicting the fresh entry)."""
        path = self.path_for(scenario, salt)
        write_atomic(
            path,
            encode_entry(scenario, values, stats, attempts, version=STORE_VERSION),
        )
        self._count("puts")
        self._evict(keep=path)
        return path

    def _discard(self, path: Path, *, skew: bool = False) -> None:
        try:
            os.unlink(path)
        except OSError:
            return  # already gone (concurrent eviction)
        if skew:
            self._count("skews")

    def _evict(self, keep: Path | None = None) -> int:
        """Drop least-recently-used entries until both bounds hold."""
        if self.max_entries is None and self.max_bytes is None:
            return 0
        entries = []
        for path in self._entries():
            try:
                stat = path.stat()
            except OSError:
                continue  # concurrently removed
            entries.append((stat.st_mtime, path.name, path, stat.st_size))
        entries.sort()  # oldest access first; name breaks mtime ties stably
        count = len(entries)
        size = sum(e[3] for e in entries)
        evicted = 0
        for _, _, path, nbytes in entries:
            over_count = self.max_entries is not None and count > self.max_entries
            over_bytes = self.max_bytes is not None and size > self.max_bytes
            if not (over_count or over_bytes):
                break
            if keep is not None and path == keep:
                continue  # the entry being inserted is by definition hottest
            self._discard(path)
            evicted += 1
            count -= 1
            size -= nbytes
        if evicted:
            self._count("evictions", evicted)
        return evicted


def merge_stats(into: dict, extra: dict | None) -> dict:
    """Sum one store-counter snapshot into an accumulator (shared by the
    remote backend when several shard ``done`` frames report stores)."""
    if extra:
        for key in ("hits", "misses", "puts", "evictions", "skews"):
            value = extra.get(key, 0)
            if isinstance(value, int):
                into[key] = into.get(key, 0) + value
    return into
