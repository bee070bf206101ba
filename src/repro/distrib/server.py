"""The long-lived study server behind ``python -m repro serve``.

A :class:`StudyServer` accepts connections speaking the
:mod:`repro.distrib.protocol` frame vocabulary, evaluates submitted
shards on one evaluation thread, and streams one ``result`` frame per
scenario back as it lands — interleaved with ``heartbeat`` frames so a
client can tell "still computing" from "host hung".  Several clients
may be connected at once; they queue on that thread and share the
server's process-wide evaluator memos.  Pricing is pure Python and
holds the GIL, so more threads only add contention: scale out by
running more ``repro serve`` processes and listing them all in
:data:`~repro.distrib.backend.ENDPOINTS_ENV`.

Execution fidelity is the whole point: a submitted shard is evaluated
through the *same* :class:`~repro.sweep.runner.Execution` the client's
:class:`~repro.sweep.runner.SweepRunner` would run locally — the retry
policy and keep-going semantics, and the observation sidecar when the
client is observing — rebuilt from the submit frame, so a remote run
computes byte-identical values to the serial reference and the
client's fold loop, caching, manifest, and metrics all work unchanged
on the streamed frames.

When constructed with a :class:`~repro.distrib.store.CacheStore`, the
server consults it before computing (answered scenarios come back
``cached: true`` — a *federated* hit on the client) and writes every
freshly computed success into it, so the store accumulates the fleet's
work across submissions and server restarts.
"""

from __future__ import annotations

import importlib
import os
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor, wait

from repro.distrib.protocol import (
    ProtocolError,
    recv_frame,
    send_frame,
    server_handshake,
)
from repro.distrib.store import STORE_VERSION, CacheStore
from repro.sweep.grid import Scenario, objective_salt, scenario_payload
from repro.sweep.resilience import SweepError, error_payload
from repro.sweep.runner import Execution, pop_reserved
from repro.testing.faults import WORKER_TAG_ENV

#: Default seconds between ``heartbeat`` frames while a shard computes.
HEARTBEAT_INTERVAL = 1.0


def resolve_objective(spec: dict):
    """Resolve a wire objective spec to the callable it names.

    ``{"name": ...}`` looks up the named-objective table
    (:data:`repro.api.study.OBJECTIVES`); ``{"module": ..., "qualname":
    ...}`` imports a module-level function by qualified name — the same
    contract the process backend's pickling imposes, which is why any
    objective that works on ``backend="process"`` works remotely too.
    """
    if not isinstance(spec, dict):
        raise ValueError(f"objective spec must be an object, got {spec!r}")
    name = spec.get("name")
    if name is not None:
        from repro.api.study import OBJECTIVES

        fn = OBJECTIVES.get(name)
        if fn is None:
            raise ValueError(
                f"unknown named objective {name!r}; this server knows: "
                f"{', '.join(sorted(OBJECTIVES))}"
            )
        return fn
    module, qualname = spec.get("module"), spec.get("qualname")
    if not module or not qualname or "<locals>" in qualname:
        raise ValueError(
            f"objective spec needs a name or an importable module-level "
            f"module/qualname pair, got {spec!r}"
        )
    try:
        obj = importlib.import_module(module)
        for part in qualname.split("."):
            obj = getattr(obj, part)
    except (ImportError, AttributeError) as exc:
        raise ValueError(
            f"cannot resolve objective {module}.{qualname} on this "
            f"server: {exc}"
        ) from exc
    if not callable(obj):
        raise ValueError(f"{module}.{qualname} is not callable")
    return obj


class StudyServer:
    """Socket front-end + one evaluation thread for remote shards.

    ``store`` (optional) is the federated :class:`~repro.distrib.store
    .CacheStore` consulted before computing.  ``tag`` names this worker
    for fault-plan scoping: it is exported as
    :data:`~repro.testing.faults.WORKER_TAG_ENV` so a
    :class:`~repro.testing.faults.Fault` with a ``worker`` field fires
    only on the server it targets.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        store: CacheStore | None = None,
        heartbeat_interval: float = HEARTBEAT_INTERVAL,
        tag: str | None = None,
    ) -> None:
        if heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be positive seconds")
        self.host = host
        self.port = port
        self.store = store
        self.heartbeat_interval = heartbeat_interval
        self.tag = tag
        self._sock: socket.socket | None = None
        self._pool: ThreadPoolExecutor | None = None
        self._accept_thread: threading.Thread | None = None
        self._stopping = threading.Event()
        self.connections_served = 0
        self.shards_served = 0

    # -- lifecycle -------------------------------------------------------------
    def start(self) -> "StudyServer":
        """Bind, start the evaluation thread, and accept in a daemon thread."""
        if self._sock is not None:
            raise RuntimeError("server already started")
        if self.tag is not None:
            os.environ[WORKER_TAG_ENV] = self.tag
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((self.host, self.port))
        sock.listen(16)
        self.port = sock.getsockname()[1]
        self._sock = sock
        self._pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve"
        )
        self._stopping.clear()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, daemon=True, name="repro-serve-accept"
        )
        self._accept_thread.start()
        return self

    def close(self) -> None:
        """Stop accepting and shut the evaluation thread down."""
        self._stopping.set()
        sock, self._sock = self._sock, None
        if sock is not None:
            # Closing alone does not wake a thread blocked in accept()
            # on Linux; shutting the socket down does.
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=2.0)
            self._accept_thread = None
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    def __enter__(self) -> "StudyServer":
        return self.start() if self._sock is None else self

    def __exit__(self, *exc) -> None:
        self.close()

    def _accept_loop(self) -> None:
        while not self._stopping.is_set():
            sock = self._sock
            if sock is None:
                return
            try:
                conn, _addr = sock.accept()
            except OSError:
                return  # closed underneath us: shutting down
            self.connections_served += 1
            threading.Thread(
                target=self._serve_connection,
                args=(conn,),
                daemon=True,
                name="repro-serve-conn",
            ).start()

    # -- one connection --------------------------------------------------------
    def _serve_connection(self, sock: socket.socket) -> None:
        try:
            if not server_handshake(sock, cache_version=STORE_VERSION):
                return
            while not self._stopping.is_set():
                frame = recv_frame(sock)
                if frame is None:
                    return  # client done: clean EOF between frames
                kind = frame["type"]
                if kind == "ping":
                    send_frame(sock, {"type": "pong"})
                elif kind == "submit":
                    self._serve_shard(sock, frame)
                else:
                    send_frame(
                        sock,
                        {
                            "type": "error",
                            "error": {
                                "type": "ProtocolError",
                                "message": f"unexpected frame {kind!r}",
                            },
                        },
                    )
                    return
        except (ProtocolError, OSError):
            return  # client vanished mid-frame: nothing to answer
        finally:
            try:
                sock.close()
            except OSError:
                pass

    def _serve_shard(self, sock: socket.socket, submit: dict) -> None:
        """Execute one submitted shard, streaming results and heartbeats."""
        self.shards_served += 1
        try:
            objective = resolve_objective(submit.get("objective"))
            evaluate = Execution.from_submit(objective, submit)
            scenarios = [
                Scenario(**fields) for fields in submit.get("scenarios", ())
            ]
        except (TypeError, ValueError) as exc:
            send_frame(
                sock,
                {
                    "type": "error",
                    "error": {"type": type(exc).__name__, "message": str(exc)},
                },
            )
            return
        salt = objective_salt(objective)

        served = 0
        misses: list[tuple[int, Scenario]] = []
        for i, scenario in enumerate(scenarios):
            entry = (
                self.store.get(scenario, salt)
                if self.store is not None
                else None
            )
            if entry is not None:
                send_frame(
                    sock,
                    {
                        "type": "result",
                        "i": i,
                        "values": entry["values"],
                        "stats": entry["evaluator_cache"],
                        "attempts": entry["attempts"],
                        "cached": True,
                    },
                )
                served += 1
            else:
                misses.append((i, scenario))

        pool = self._pool
        if pool is None:
            raise ProtocolError("server is shutting down")
        # One evaluation thread finishes a shard's futures in order.
        futures = [(pool.submit(evaluate, sc), i, sc) for i, sc in misses]
        try:
            for future, i, scenario in futures:
                while not wait([future], timeout=self.heartbeat_interval).done:
                    send_frame(sock, {"type": "heartbeat", "ts": time.time()})
                try:
                    values = future.result()
                except Exception as exc:
                    # The shard fails as a whole (on_error="raise"
                    # semantics — kept failures arrive as ERROR_KEY rows,
                    # not exceptions).  Serialize and stop.
                    payload = (
                        error_payload(exc)
                        if isinstance(exc, SweepError)
                        else {"type": type(exc).__name__, "message": str(exc)}
                    )
                    payload.setdefault("scenario", scenario_payload(scenario))
                    send_frame(sock, {"type": "error", "error": payload})
                    return
                if not self._send_result(sock, i, scenario, values, salt):
                    return
                served += 1
        finally:
            for future, _, _ in futures:
                future.cancel()
        send_frame(
            sock,
            {
                "type": "done",
                "count": served,
                "store": self.store.stats() if self.store is not None else None,
            },
        )

    def _send_result(
        self, sock: socket.socket, i: int, scenario, values: dict, salt: str
    ) -> bool:
        """Pop the runner's reserved keys into explicit frame fields,
        feed the store, and stream one ``result`` frame."""
        values = dict(values)
        stats, attempts, error, obs_blob = pop_reserved(values)
        if error is None and self.store is not None:
            self.store.put(
                scenario, values, stats=stats, attempts=attempts, salt=salt
            )
        frame = {
            "type": "result",
            "i": i,
            "values": values,
            "stats": stats,
            "attempts": attempts,
            "cached": False,
        }
        if error is not None:
            frame["error"] = error
        if obs_blob is not None:
            frame["obs"] = obs_blob
        try:
            send_frame(sock, frame)
        except (TypeError, ValueError) as exc:
            # The objective returned something JSON cannot carry.  The
            # dump failed before any byte hit the wire, so the stream is
            # still clean enough to answer with a proper error.
            send_frame(
                sock,
                {
                    "type": "error",
                    "error": {
                        "type": type(exc).__name__,
                        "message": (
                            f"objective returned non-JSON-serializable "
                            f"values: {exc}"
                        ),
                        "scenario": scenario_payload(scenario),
                    },
                },
            )
            return False
        return True


def serve(
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    cache_dir=None,
    max_entries: int | None = None,
    max_bytes: int | None = None,
    heartbeat_interval: float = HEARTBEAT_INTERVAL,
    tag: str | None = None,
    stream=None,
) -> int:
    """Blocking entry point for ``python -m repro serve``.

    Prints ``listening on HOST:PORT`` (the one line harnesses parse —
    with ``port=0`` it carries the OS-assigned port) and serves until
    interrupted.  Returns the CLI exit code.
    """
    import sys

    stream = stream if stream is not None else sys.stdout
    store = None
    if cache_dir is not None:
        store = CacheStore(
            cache_dir, max_entries=max_entries, max_bytes=max_bytes
        )
    server = StudyServer(
        host,
        port,
        store=store,
        heartbeat_interval=heartbeat_interval,
        tag=tag,
    )
    server.start()
    print(f"listening on {server.host}:{server.port}", file=stream, flush=True)
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        return 0
    finally:
        server.close()
