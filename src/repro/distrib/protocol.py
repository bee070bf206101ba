"""Wire protocol for the distributed sweep service: framed JSON + handshake.

One frame is a 4-byte big-endian length prefix followed by that many
bytes of UTF-8 JSON — the same spec dialect :meth:`Study.describe
<repro.api.study.Study.describe>` speaks, so everything on the wire is
human-readable with ``nc`` and a JSON pretty-printer.  The protocol is
deliberately tiny:

=============  ================================================================
frame type     meaning
=============  ================================================================
``hello``      client -> server: protocol + cache-store version announcement
``welcome``    server -> client: handshake accepted (echoes versions)
``reject``     server -> client: version skew or malformed handshake; the
               connection is closed after this frame
``submit``     client -> server: one shard — objective spec, the execution
               fields (``retry`` policy, ``on_error``, ``max_entries`` memo
               bound, ``observed``, ``run_t0``), scenario dicts
``result``     server -> client: one evaluated scenario (``i`` = shard index,
               physical ``values``; the runner's reserved keys travel as
               separate ``stats`` / ``attempts`` / ``error`` / ``obs``
               fields; ``cached`` when the federated store answered it)
``heartbeat``  server -> client: liveness while a shard computes; a client
               that stops seeing these declares the host hung
``done``       server -> client: shard complete (``count`` results streamed,
               ``store`` = the federated store's counter snapshot)
``error``      server -> client: the shard failed as a whole (objective
               exception under ``on_error="raise"``, unresolvable objective,
               malformed scenarios); carries a serialized payload
``ping``       client -> server: liveness probe, answered with ``pong``
=============  ================================================================

Versioning: :data:`PROTOCOL_VERSION` guards the frame vocabulary and
:data:`repro.distrib.store.STORE_VERSION` guards the federated cache
entry format.  The handshake rejects a skew in either direction — a
client from a different library version must fail loudly at connect
time, never by mis-parsing frames or serving stale cache shapes.

Nothing here imports beyond the stdlib (and :mod:`repro.obs.bus`-free),
so both ends of the socket can use it without pulling the evaluation
stack into the import graph.
"""

from __future__ import annotations

import json
import socket
import struct

#: Frame-vocabulary version; bumped on any breaking wire change.
PROTOCOL_VERSION = 1

#: Hard bound on one frame's body.  A 60k-scenario submit frame is a few
#: MiB; anything past this is a corrupt length prefix, not a study.
MAX_FRAME_BYTES = 64 * 1024 * 1024

_LENGTH = struct.Struct(">I")


class ProtocolError(ConnectionError):
    """The peer spoke something that is not this protocol (bad frame,
    version skew, unexpected frame type)."""


class HandshakeRejected(ProtocolError):
    """The server refused the handshake — protocol or cache-store
    version skew.  Not retryable on another connection to the same
    server: the *software* disagrees, not the network."""


def send_frame(sock: socket.socket, payload: dict) -> None:
    """Serialize ``payload`` and write one length-prefixed frame."""
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"refusing to send a {len(body)}-byte frame "
            f"(limit {MAX_FRAME_BYTES})"
        )
    sock.sendall(_LENGTH.pack(len(body)) + body)


def _recv_exact(sock: socket.socket, n: int) -> bytes | None:
    """Read exactly ``n`` bytes; ``None`` on a clean EOF at a frame
    boundary (zero bytes read), :class:`ProtocolError` on a torn frame."""
    chunks: list[bytes] = []
    remaining = n
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            if remaining == n and not chunks:
                return None
            raise ProtocolError(
                f"connection closed mid-frame ({n - remaining}/{n} bytes)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> dict | None:
    """Read one frame; ``None`` on clean EOF.

    Raises :class:`ProtocolError` for torn frames, oversize lengths, or
    bodies that are not a JSON object; ``socket.timeout`` propagates so
    callers can treat a silent peer as a hung host.
    """
    header = _recv_exact(sock, _LENGTH.size)
    if header is None:
        return None
    (length,) = _LENGTH.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame length {length} exceeds the {MAX_FRAME_BYTES}-byte "
            f"bound (corrupt stream?)"
        )
    body = _recv_exact(sock, length)
    if body is None:
        raise ProtocolError("connection closed between header and body")
    try:
        payload = json.loads(body)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"frame body is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict) or "type" not in payload:
        raise ProtocolError(
            f"frame body must be an object with a 'type' field, got "
            f"{type(payload).__name__}"
        )
    return payload


def expect_frame(sock: socket.socket, *types: str) -> dict:
    """Read one frame and require its type to be one of ``types``."""
    frame = recv_frame(sock)
    if frame is None:
        raise ProtocolError(
            f"connection closed while waiting for {'/'.join(types)}"
        )
    if frame["type"] not in types:
        raise ProtocolError(
            f"expected a {'/'.join(types)} frame, got {frame['type']!r}"
        )
    return frame


def client_handshake(sock: socket.socket, *, cache_version: int) -> dict:
    """Run the client side of the versioned handshake.

    Sends ``hello`` and waits for ``welcome``; a ``reject`` frame (the
    server's version-skew verdict) raises :class:`HandshakeRejected`
    with the server's reason attached.
    """
    send_frame(
        sock,
        {
            "type": "hello",
            "protocol": PROTOCOL_VERSION,
            "cache_version": cache_version,
        },
    )
    frame = expect_frame(sock, "welcome", "reject")
    if frame["type"] == "reject":
        raise HandshakeRejected(
            frame.get("reason", "server rejected the handshake")
        )
    return frame


def server_handshake(sock: socket.socket, *, cache_version: int) -> bool:
    """Run the server side of the handshake; ``False`` means rejected
    (the reject frame has been sent and the connection should close)."""
    frame = recv_frame(sock)
    if frame is None:
        return False  # port-scan / probe connections close silently
    reason = None
    if frame.get("type") != "hello":
        reason = f"expected a hello frame, got {frame.get('type')!r}"
    elif frame.get("protocol") != PROTOCOL_VERSION:
        reason = (
            f"protocol version skew: server speaks {PROTOCOL_VERSION}, "
            f"client sent {frame.get('protocol')!r}"
        )
    elif frame.get("cache_version") != cache_version:
        reason = (
            f"cache-store version skew: server store is v{cache_version}, "
            f"client expects v{frame.get('cache_version')!r}"
        )
    if reason is not None:
        send_frame(sock, {"type": "reject", "reason": reason})
        return False
    send_frame(
        sock,
        {
            "type": "welcome",
            "protocol": PROTOCOL_VERSION,
            "cache_version": cache_version,
        },
    )
    return True
