"""``repro.distrib`` — the distributed sweep service.

The step from library to service, on nothing but the standard library:

* :mod:`repro.distrib.protocol` — length-prefixed JSON frames and the
  versioned handshake every connection starts with.
* :mod:`repro.distrib.server` — :class:`StudyServer` and the
  ``python -m repro serve`` entry point: a long-lived worker that
  evaluates submitted shards on one thread and streams results; scale
  out by running more of them.
* :mod:`repro.distrib.backend` — :class:`RemoteBackend`, registered as
  ``"remote"`` in :mod:`repro.api.backends`: shards a grid across the
  fleet named by :data:`~repro.distrib.backend.ENDPOINTS_ENV`,
  streaming results and resharding dead hosts' work onto survivors.
* :mod:`repro.distrib.store` — :class:`CacheStore`, the federated
  content-addressed result store servers consult before computing.

Quickstart (two shells)::

    $ python -m repro serve --port 7341 --cache-dir /var/repro/store
    listening on 127.0.0.1:7341
    $ python -m repro serve --port 7342 --cache-dir /var/repro/store
    listening on 127.0.0.1:7342

    $ REPRO_REMOTE_WORKERS=127.0.0.1:7341,127.0.0.1:7342 \\
      python -m repro sweep --smoke --backend remote

This package is imported lazily — selecting ``backend="remote"`` is
what pulls it in; nothing here loads on ``import repro.api``.
"""

from repro.distrib.backend import ENDPOINTS_ENV, RemoteBackend, WorkerEndpoint
from repro.distrib.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    HandshakeRejected,
    ProtocolError,
    client_handshake,
    expect_frame,
    recv_frame,
    send_frame,
    server_handshake,
)
from repro.distrib.server import StudyServer, serve
from repro.distrib.store import STORE_VERSION, CacheStore, merge_stats

__all__ = [
    "CacheStore",
    "ENDPOINTS_ENV",
    "HandshakeRejected",
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "RemoteBackend",
    "STORE_VERSION",
    "StudyServer",
    "WorkerEndpoint",
    "client_handshake",
    "expect_frame",
    "merge_stats",
    "recv_frame",
    "send_frame",
    "serve",
    "server_handshake",
]
