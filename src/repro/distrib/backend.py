"""The ``remote`` execution backend: shard a grid across study servers.

:class:`RemoteBackend` plugs into the :mod:`repro.api.backends`
registry, so ``Study(...).backend("remote")`` (or ``--backend remote``
on the CLI) fans a sweep out across the ``python -m repro serve``
workers named by :data:`ENDPOINTS_ENV` — without the runner, the study
facade, or the caller changing at all.

How it honors the backend contract (``[fn(item) for item in items]``,
order preserved) over a JSON wire: the ``fn`` the runner hands every
backend is the bare objective or a :class:`~repro.sweep.runner
.Execution` (memo bound / retry policy / observation).  This backend
ships the execution's :meth:`~repro.sweep.runner.Execution
.submit_fields` plus the scenario dicts in a ``submit`` frame, and the
server rebuilds the identical execution around the same objective —
resolved by registry name or imported by qualified name, the
process-backend pickle contract.  Results stream back one frame per
scenario and are reassembled into the values dicts (reserved keys
reattached) the runner's fold loop already understands, so caching,
manifests, resume, keep-going, and metrics work unchanged.

Failure model: a connection that dies or goes silent (no result or
heartbeat within ``heartbeat_timeout``) marks that *host* dead; its
unfinished indices are resharded across the surviving hosts, with one
dispatch failure added to each rescued scenario's attempt count.  Only
when every host is gone does the run fail — as a
:class:`~repro.sweep.resilience.WorkerCrashError` carrying the pending
scenarios, or, under ``on_error="keep"``, as kept failure rows —
exactly the semantics the process backend's pool-crash path
established.  A *handshake rejection* (protocol or cache-store version
skew) is never retried elsewhere: the software disagrees, not the
network, and the run fails loudly.

Scenarios answered from a server's federated cache store come back
``cached: true``; this backend marks their stats with ``federated: 1``,
which :class:`~repro.sweep.runner.SweepRunner` and
:meth:`ResultSet.cache_stats <repro.api.result.ResultSet.cache_stats>`
surface as the *federated* hit class (and strip before writing local
cache files, keeping those byte-identical to a serial run).
"""

from __future__ import annotations

import os
import socket
import threading
import time
from typing import Callable, Sequence

from repro.api.backends import Backend
from repro.distrib.protocol import (
    HandshakeRejected,
    ProtocolError,
    client_handshake,
    recv_frame,
    send_frame,
)
from repro.distrib.store import STORE_VERSION, merge_stats
from repro.obs.bus import active as _obs_active
from repro.obs.bus import emit as _obs_emit
from repro.sweep.grid import scenario_payload
from repro.sweep.resilience import (
    ATTEMPTS_KEY,
    ERROR_KEY,
    ScenarioError,
    WorkerCrashError,
    kept_crash,
)
from repro.sweep.runner import CACHE_STATS_KEY, OBS_KEY, Execution

#: Environment variable naming the worker fleet:
#: ``host:port,host:port,...`` — read at :meth:`RemoteBackend.map` time,
#: so ``backend="remote"`` works with a zero-arg registry factory.
ENDPOINTS_ENV = "REPRO_REMOTE_WORKERS"


class WorkerEndpoint:
    """One ``host:port`` study-server address."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = int(port)

    @classmethod
    def parse(cls, text: "str | WorkerEndpoint") -> "WorkerEndpoint":
        if isinstance(text, WorkerEndpoint):
            return text
        host, sep, port = str(text).strip().rpartition(":")
        if not sep or not host or not port.isdigit():
            raise ValueError(
                f"worker endpoint must look like host:port, got {text!r}"
            )
        return cls(host, int(port))

    def __str__(self) -> str:
        return f"{self.host}:{self.port}"

    def __repr__(self) -> str:
        return f"WorkerEndpoint({self.host!r}, {self.port})"


class _ShardFatal(Exception):
    """A shard failed for a non-host reason (version skew, objective
    error, bad submit) — resharding elsewhere would just fail again."""

    def __init__(self, cause: Exception) -> None:
        super().__init__(str(cause))
        self.cause = cause


def _objective_spec(objective: Callable) -> dict:
    """The wire description of an objective: registry name when it has
    one, importable ``module.qualname`` otherwise."""
    from repro.api.study import OBJECTIVES

    for name, fn in OBJECTIVES.items():
        if fn is objective:
            return {"name": name}
    module = getattr(objective, "__module__", None)
    qualname = getattr(objective, "__qualname__", None)
    if not module or not qualname or "<locals>" in qualname:
        raise TypeError(
            f"remote objectives must be named (see repro.api.study"
            f".OBJECTIVES) or module-level functions importable by "
            f"qualified name; got {objective!r}"
        )
    return {"module": module, "qualname": qualname}


def _split(indices: list, ways: int) -> list[list]:
    """Contiguous near-equal shards (first shards get the remainder)."""
    ways = max(1, min(ways, len(indices)))
    base, extra = divmod(len(indices), ways)
    shards, start = [], 0
    for w in range(ways):
        size = base + (1 if w < extra else 0)
        shards.append(indices[start:start + size])
        start += size
    return shards


class RemoteBackend(Backend):
    """Fan scenarios out over ``python -m repro serve`` workers."""

    name = "remote"

    def __init__(
        self,
        endpoints: "Sequence[str | WorkerEndpoint] | None" = None,
        *,
        connect_timeout: float = 5.0,
        heartbeat_timeout: float = 15.0,
    ) -> None:
        if connect_timeout <= 0 or heartbeat_timeout <= 0:
            raise ValueError("timeouts must be positive seconds")
        self._endpoints = (
            [WorkerEndpoint.parse(e) for e in endpoints]
            if endpoints is not None
            else None
        )
        self.connect_timeout = connect_timeout
        self.heartbeat_timeout = heartbeat_timeout
        #: Merged federated-store counters from the last run's ``done``
        #: frames (hits/misses/puts/evictions/skews), for inspection.
        self.store_stats: dict = {}

    def endpoints(self) -> list[WorkerEndpoint]:
        """The configured fleet (constructor first, then
        :data:`ENDPOINTS_ENV`)."""
        if self._endpoints is not None:
            return list(self._endpoints)
        raw = os.environ.get(ENDPOINTS_ENV, "")
        endpoints = [
            WorkerEndpoint.parse(part)
            for part in raw.split(",")
            if part.strip()
        ]
        if not endpoints:
            raise ValueError(
                f"the remote backend needs worker endpoints: pass "
                f"RemoteBackend(['host:port', ...]) or set "
                f"{ENDPOINTS_ENV}=host:port[,host:port...] (start workers "
                f"with `python -m repro serve`)"
            )
        return endpoints

    # -- the Backend contract --------------------------------------------------
    def map(self, fn, items, *, workers: int = 1) -> list:
        self._require_sync(fn)
        items = list(items)
        if not items:
            return []
        execution = fn if isinstance(fn, Execution) else Execution(fn)
        submit_base = {
            "type": "submit",
            "objective": _objective_spec(execution.objective),
            **execution.submit_fields(),
        }
        endpoints = self.endpoints()
        observing = _obs_active()

        results: dict[int, dict] = {}
        dispatch_failures: dict[int, int] = {}
        self.store_stats = {}
        alive = list(endpoints)
        pending = list(range(len(items)))
        fatal: _ShardFatal | None = None
        round_no = 0
        while pending and alive and fatal is None:
            shards = _split(pending, len(alive))
            outcomes: list[dict] = [{} for _ in shards]

            def run_one(slot: int, endpoint: WorkerEndpoint, shard: list):
                out = outcomes[slot]
                t0, p0 = time.time(), time.perf_counter()
                try:
                    done, store = self._run_shard(
                        endpoint, shard, items, submit_base, observing
                    )
                    out["done"], out["store"] = done, store
                except _ShardFatal as exc:
                    out["fatal"] = exc
                    out["done"] = exc.partial  # results that landed first
                except (OSError, ProtocolError) as exc:
                    # Dead or hung host (timeouts and resets are OSError
                    # subclasses); whatever already streamed back is kept.
                    out["down"] = exc
                    out["done"] = getattr(exc, "partial", {})
                if observing:
                    _obs_emit(
                        "remote.shard",
                        endpoint=str(endpoint),
                        items=len(shard),
                        completed=len(out.get("done", {})),
                        ok="down" not in out and "fatal" not in out,
                        round=round_no,
                        ts=t0,
                        dur=time.perf_counter() - p0,
                    )

            threads = [
                threading.Thread(
                    target=run_one,
                    args=(slot, endpoint, shard),
                    name=f"repro-remote-{endpoint}",
                )
                for slot, (endpoint, shard) in enumerate(zip(alive, shards))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

            survivors = []
            for endpoint, shard, out in zip(alive, shards, outcomes):
                results.update(out.get("done", {}))
                merge_stats(self.store_stats, out.get("store"))
                if "fatal" in out and fatal is None:
                    fatal = out["fatal"]
                if "down" in out:
                    rescued = [i for i in shard if i not in results]
                    for i in rescued:
                        dispatch_failures[i] = dispatch_failures.get(i, 0) + 1
                    if observing:
                        _obs_emit(
                            "remote.host_down",
                            endpoint=str(endpoint),
                            pending=len(rescued),
                            error=type(out["down"]).__name__,
                            ts=time.time(),
                        )
                else:
                    survivors.append(endpoint)
            alive = survivors
            pending = [i for i in pending if i not in results]
            round_no += 1

        if observing and self.store_stats:
            _obs_emit("remote.store", **self.store_stats)
        if fatal is not None:
            raise fatal.cause
        if pending:
            self._fail_pending(pending, items, results, execution.on_error)
        # A scenario rescued from a dead host carries its lost dispatches
        # in the attempt count (the proof recovery re-ran it, mirroring
        # how resumed runs accumulate attempts across manifests).
        for i, extra in dispatch_failures.items():
            _apply_dispatch_failures(results[i], extra)
        return [results[i] for i in range(len(items))]

    # -- shard transport -------------------------------------------------------
    def _run_shard(
        self,
        endpoint: WorkerEndpoint,
        shard: list,
        items: list,
        submit_base: dict,
        observing: bool,
    ) -> tuple[dict, dict | None]:
        """Submit one shard and stream its results back.

        Returns ``(index -> values-with-reserved-keys, store counters)``.
        Host-style failures propagate as :class:`OSError` /
        :class:`ProtocolError` with the partial results attached
        (``exc.partial``); non-host failures raise :class:`_ShardFatal`.
        """
        done: dict[int, dict] = {}
        try:
            sock = socket.create_connection(
                (endpoint.host, endpoint.port), timeout=self.connect_timeout
            )
        except OSError as exc:
            exc.partial = done
            raise
        try:
            sock.settimeout(self.heartbeat_timeout)
            try:
                client_handshake(sock, cache_version=STORE_VERSION)
                send_frame(
                    sock,
                    {
                        **submit_base,
                        "scenarios": [scenario_payload(items[i]) for i in shard],
                    },
                )
                while True:
                    frame = recv_frame(sock)
                    if frame is None:
                        raise ProtocolError(
                            f"{endpoint} closed the connection mid-shard"
                        )
                    kind = frame["type"]
                    if kind == "heartbeat":
                        continue
                    if kind == "result":
                        index = shard[frame["i"]]
                        done[index] = self._fold_frame(frame)
                        if observing:
                            _obs_emit("backend.item", backend=self.name)
                        continue
                    if kind == "done":
                        return done, frame.get("store")
                    if kind == "error":
                        raise _ShardFatal(self._shard_error(frame, items, shard))
                    raise ProtocolError(
                        f"unexpected {kind!r} frame from {endpoint}"
                    )
            except _ShardFatal as exc:
                exc.partial = done
                raise
            except HandshakeRejected as exc:
                fatal = _ShardFatal(exc)
                fatal.partial = done
                raise fatal from exc
            except (OSError, ProtocolError) as exc:
                exc.partial = done
                raise
        finally:
            try:
                sock.close()
            except OSError:
                pass

    def _fold_frame(self, frame: dict) -> dict:
        """Reassemble one result frame into the values dict (reserved
        keys reattached) the runner's fold loop consumes."""
        values = dict(frame.get("values") or {})
        stats = frame.get("stats")
        if frame.get("cached"):
            # A federated-store hit: mark the stats so the runner and
            # ResultSet.cache_stats() can count it as its own hit class
            # (the marker is stripped again before local cache writes).
            stats = dict(stats or {})
            stats["federated"] = 1
        if stats is not None:
            values[CACHE_STATS_KEY] = stats
        error = frame.get("error")
        if error is not None:
            values[ERROR_KEY] = error
        attempts = frame.get("attempts", 1)
        if not isinstance(attempts, int) or attempts < 1:
            attempts = 1
        values[ATTEMPTS_KEY] = attempts
        obs_blob = frame.get("obs")
        if obs_blob is not None:
            values[OBS_KEY] = obs_blob
        return values

    def _shard_error(self, frame: dict, items: list, shard: list) -> Exception:
        """The exception a server-side shard failure re-raises here."""
        error = frame.get("error") or {}
        scenario = None
        fields = error.get("scenario")
        if isinstance(fields, dict):
            from repro.sweep.grid import Scenario

            try:
                scenario = Scenario(**fields)
            except TypeError:
                scenario = None
        return ScenarioError(
            f"remote evaluation failed: {error.get('type', 'Error')}: "
            f"{error.get('message', '')}",
            scenario=scenario,
            attempts=error.get("attempts", 1),
        )

    def _fail_pending(
        self, pending: list, items: list, results: dict, on_error: str
    ) -> None:
        """Every host is gone with work unfinished — fail like the
        process backend's exhausted-pool path does."""
        pending_scenarios = tuple(items[i] for i in pending)
        message = (
            f"all remote workers failed; {len(pending)} scenario(s) "
            f"unfinished"
        )
        if on_error != "keep":
            raise WorkerCrashError(
                message,
                scenario=pending_scenarios[0],
                pending=pending_scenarios,
            )
        for i in pending:
            results[i] = kept_crash(
                WorkerCrashError(
                    message, scenario=items[i], pending=pending_scenarios
                )
            )


def _apply_dispatch_failures(values: dict, extra: int) -> dict:
    """Add host-death dispatch failures to a rescued row's attempt count."""
    if extra:
        values[ATTEMPTS_KEY] = values.get(ATTEMPTS_KEY, 1) + extra
    return values
