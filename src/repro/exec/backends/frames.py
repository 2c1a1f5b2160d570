"""Versioned tagged-frame wire format for cross-host worker links.

Every worker process — the ``pool`` backend's spawned loopback workers
and ``socket`` workers attached from other hosts — talks to its
coordinator over a TCP socket.  The two ends need not run the same code
version, so the socket carries an explicit *framed* protocol:

+--------+---------+---------+----------+-----------+------+
| magic  | version | tag len | body len | tag       | body |
| 1 byte | 1 byte  | 1 byte  | 4 bytes  | ascii     | pkl  |
+--------+---------+---------+----------+-----------+------+

* **Version byte** — a peer speaking a different protocol version is
  detected on the very first frame and fails *loud*
  (:class:`FrameVersionError`), instead of silently wedging the drain
  loop with frames the other side cannot parse.
* **Graceful unknown-tag skip** — a frame whose version matches but
  whose tag is unknown is *skipped* (counted, never fatal), so adding a
  new optional frame type does not strand older coordinators.
* Bodies are pickled: results/telemetry payloads are arbitrary Python
  objects.  Frames are only ever exchanged between mutually trusting
  hosts (loopback or an SSH-tunneled worker you launched) — the same
  trust model as ``multiprocessing`` itself; never expose the
  coordinator port to an untrusted network.

The known tags are the attempt stream (``hb``/``tel``/``res``) plus
the lifecycle tags (``hello``/``job``/``bye``).

Protocol v2 (PR 9) hardens the format against a lossy transport:

* **CRC-32 integrity check** — the header carries a checksum over
  ``tag + body``.  A bit-flip anywhere in a frame (cosmic ray, faulty
  NIC, the chaos injector) is detected at receive time and raised as
  :class:`FrameCorruptError` instead of being unpickled into silently
  corrupt data — the transport's contribution to the masked/SDC/
  detected taxonomy is turning would-be SDC into *detected*.
* **Job-id-tagged attempt bodies** — the socket backend's ``hb``/
  ``tel``/``res`` bodies carry the job id they belong to, so a
  duplicated or replayed frame can never be attributed to the wrong
  attempt (see :mod:`repro.exec.backends.socket_worker`).
"""

from __future__ import annotations

import pickle
import socket
import struct
import zlib
from typing import Any, Optional, Tuple

__all__ = [
    "FRAME_MAGIC",
    "FRAME_TAGS",
    "FrameCorruptError",
    "FrameError",
    "FrameProtocolError",
    "FrameVersionError",
    "PROTOCOL_VERSION",
    "TAG_BYE",
    "TAG_HEARTBEAT",
    "TAG_HELLO",
    "TAG_JOB",
    "TAG_RESULT",
    "TAG_TELEMETRY",
    "recv_frame",
    "send_frame",
    "send_frame_bytes",
]

#: First byte of every frame; anything else on the wire is not ours.
FRAME_MAGIC = 0xA5
#: Bump on any incompatible change to frame layout or body schemas.
#: v2: CRC-32 over tag+body in the header; job-id-tagged attempt bodies.
PROTOCOL_VERSION = 2

#: magic, version, tag len, body len, crc32(tag + body)
_HEADER = struct.Struct("!BBBII")
#: Refuse absurd frames before allocating for them (a corrupt length
#: field must not look like a 4 GiB body).
MAX_BODY_BYTES = 256 * 1024 * 1024

# Lifecycle tags.
TAG_HELLO = "hello"  #: worker -> coordinator: registration card
TAG_JOB = "job"      #: coordinator -> worker: one attempt to execute
TAG_BYE = "bye"      #: either side: orderly leave
# Attempt-stream tags.
TAG_HEARTBEAT = "hb"
TAG_TELEMETRY = "tel"
TAG_RESULT = "res"

#: Every tag this protocol version understands.  Frames with a matching
#: version but a tag outside this set are skipped by receivers.
FRAME_TAGS = frozenset(
    {TAG_HELLO, TAG_JOB, TAG_BYE, TAG_HEARTBEAT, TAG_TELEMETRY, TAG_RESULT}
)


class FrameError(RuntimeError):
    """Base class for wire-protocol violations."""


class FrameProtocolError(FrameError):
    """Bad magic, torn header, or an unparseable body."""


class FrameVersionError(FrameError):
    """Peer speaks a different protocol version — fail loud, never hang."""


class FrameCorruptError(FrameProtocolError):
    """Checksum mismatch: the frame was damaged in transit.

    Raised instead of handing corrupt bytes to ``pickle`` — on-the-wire
    bit rot becomes a *detected* fault (connection dropped, attempt
    retried) rather than silent data corruption in a result payload.
    """


def send_frame_bytes(sock: socket.socket, tag: str, body: bytes) -> None:
    """Send one frame whose body is already pickled."""
    tag_bytes = tag.encode("ascii")
    if len(tag_bytes) > 255:
        raise ValueError(f"tag too long: {tag!r}")
    crc = zlib.crc32(tag_bytes + body) & 0xFFFFFFFF
    header = _HEADER.pack(
        FRAME_MAGIC, PROTOCOL_VERSION, len(tag_bytes), len(body), crc
    )
    sock.sendall(header + tag_bytes + body)


def send_frame(sock: socket.socket, tag: str, payload: Any = None) -> None:
    """Pickle ``payload`` and send it as one tagged frame."""
    send_frame_bytes(
        sock, tag, pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    )


def _recv_exact(sock: socket.socket, n: int) -> Optional[bytes]:
    """Read exactly ``n`` bytes; ``None`` on clean EOF at a boundary."""
    chunks: list[bytes] = []
    remaining = n
    while remaining > 0:
        chunk = sock.recv(remaining)
        if not chunk:
            if chunks:
                raise FrameProtocolError(
                    f"connection closed mid-frame ({n - remaining}/{n} bytes)"
                )
            return None
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> Optional[Tuple[str, Any]]:
    """Receive one ``(tag, payload)`` frame; ``None`` on clean EOF.

    Raises :class:`FrameVersionError` on a version mismatch and
    :class:`FrameProtocolError` on garbage — both are *loud* so a
    mismatched or corrupted peer is dropped immediately rather than
    hanging the coordinator's drain loop.  Unknown-but-well-formed tags
    are returned to the caller, whose drain loop decides to skip them
    (see :data:`FRAME_TAGS`).
    """
    raw = _recv_exact(sock, _HEADER.size)
    if raw is None:
        return None
    magic, version, tag_len, body_len, crc = _HEADER.unpack(raw)
    if magic != FRAME_MAGIC:
        raise FrameProtocolError(
            f"bad frame magic 0x{magic:02x} (expected 0x{FRAME_MAGIC:02x})"
        )
    if version != PROTOCOL_VERSION:
        raise FrameVersionError(
            f"peer speaks frame protocol v{version}, this side v"
            f"{PROTOCOL_VERSION}; refusing to guess — upgrade the older side"
        )
    if body_len > MAX_BODY_BYTES:
        raise FrameProtocolError(
            f"frame body of {body_len} bytes exceeds the "
            f"{MAX_BODY_BYTES}-byte cap (corrupt length field?)"
        )
    tag_raw = _recv_exact(sock, tag_len) if tag_len else b""
    if tag_len and tag_raw is None:
        raise FrameProtocolError("connection closed before frame tag")
    body = _recv_exact(sock, body_len) if body_len else b""
    if body_len and body is None:
        raise FrameProtocolError("connection closed before frame body")
    got_crc = zlib.crc32((tag_raw or b"") + (body or b"")) & 0xFFFFFFFF
    if got_crc != crc:
        raise FrameCorruptError(
            f"frame checksum mismatch (header 0x{crc:08x}, computed "
            f"0x{got_crc:08x}); frame damaged in transit"
        )
    try:
        tag = (tag_raw or b"").decode("ascii")
        payload = pickle.loads(body) if body else None
    except Exception as exc:
        raise FrameProtocolError(
            f"undecodable frame: {type(exc).__name__}: {exc}"
        ) from exc
    return tag, payload
