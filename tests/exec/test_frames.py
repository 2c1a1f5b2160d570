"""Tests for the versioned tagged-frame wire format (satellite 2).

Covers the frames themselves (roundtrip, version mismatch fails loud,
unknown tags survive) and the coordinator's unknown-tag skip.
"""

import socket
import struct
import time
import zlib

import pytest

from repro.exec.backends import frames
from repro.exec.backends.socket_worker import SocketWorkerBackend
from repro.exec.job import Job

_HEADER = struct.Struct("!BBBII")


def _pack_header(version, tag, body_len, crc=None):
    """Hand-pack a v2 header; crc defaults to the tag-only checksum."""
    if crc is None:
        crc = zlib.crc32(tag) & 0xFFFFFFFF
    return _HEADER.pack(frames.FRAME_MAGIC, version, len(tag), body_len, crc)


@pytest.fixture()
def pair():
    a, b = socket.socketpair()
    yield a, b
    a.close()
    b.close()


class TestFrameRoundtrip:
    def test_roundtrip_payload(self, pair):
        a, b = pair
        frames.send_frame(a, frames.TAG_RESULT, ("ok", {"x": 1}, None))
        tag, payload = frames.recv_frame(b)
        assert tag == frames.TAG_RESULT
        assert payload == ("ok", {"x": 1}, None)

    def test_roundtrip_none_payload(self, pair):
        a, b = pair
        frames.send_frame(a, frames.TAG_BYE)
        assert frames.recv_frame(b) == (frames.TAG_BYE, None)

    def test_multiple_frames_in_order(self, pair):
        a, b = pair
        for i in range(5):
            frames.send_frame(a, frames.TAG_HEARTBEAT, float(i))
        got = [frames.recv_frame(b) for _ in range(5)]
        assert got == [(frames.TAG_HEARTBEAT, float(i)) for i in range(5)]

    def test_clean_eof_returns_none(self, pair):
        a, b = pair
        a.close()
        assert frames.recv_frame(b) is None

    def test_mid_frame_eof_is_loud(self, pair):
        a, b = pair
        header = _pack_header(frames.PROTOCOL_VERSION, b"hb", 100)
        a.sendall(header + b"hb")  # promises a 100-byte body, sends none
        a.close()
        with pytest.raises(frames.FrameProtocolError):
            frames.recv_frame(b)


class TestFrameVersioning:
    def test_version_mismatch_fails_loud(self, pair):
        a, b = pair
        header = _pack_header(frames.PROTOCOL_VERSION + 1, b"hb", 0)
        a.sendall(header + b"hb")
        with pytest.raises(frames.FrameVersionError) as excinfo:
            frames.recv_frame(b)
        # The error must say which versions disagreed — it is the one
        # message an operator sees when mixing old and new workers.
        assert str(frames.PROTOCOL_VERSION) in str(excinfo.value)

    def test_bad_magic_fails_loud(self, pair):
        a, b = pair
        a.sendall(b"\x00" * _HEADER.size)
        with pytest.raises(frames.FrameProtocolError):
            frames.recv_frame(b)

    def test_absurd_body_length_rejected(self, pair):
        a, b = pair
        header = _pack_header(
            frames.PROTOCOL_VERSION, b"hb", frames.MAX_BODY_BYTES + 1
        )
        a.sendall(header + b"hb")
        with pytest.raises(frames.FrameProtocolError):
            frames.recv_frame(b)

    def test_corrupt_body_detected_by_checksum(self, pair):
        # A flipped bit in the body must raise FrameCorruptError — wire
        # rot becomes a detected fault, never silently unpickled data.
        a, b = pair
        body = b"\x80\x04N."  # pickled None
        crc = zlib.crc32(b"hb" + body) & 0xFFFFFFFF
        corrupted = bytearray(body)
        corrupted[0] ^= 0x01
        a.sendall(
            _pack_header(frames.PROTOCOL_VERSION, b"hb", len(body), crc)
            + b"hb" + bytes(corrupted)
        )
        with pytest.raises(frames.FrameCorruptError):
            frames.recv_frame(b)

    def test_unknown_tag_is_returned_not_fatal(self, pair):
        # recv_frame hands unknown-but-well-formed tags to the caller;
        # drain loops decide to skip them (forward compatibility).
        a, b = pair
        frames.send_frame(a, "future-frame", {"new": "field"})
        tag, payload = frames.recv_frame(b)
        assert tag == "future-frame"
        assert tag not in frames.FRAME_TAGS
        frames.send_frame(a, frames.TAG_RESULT, ("ok", 1, None))
        assert frames.recv_frame(b)[0] == frames.TAG_RESULT


def _noop():
    return None


class TestCoordinatorUnknownTagSkip:
    """The coordinator's reader applies the same skip rule: a
    well-formed unknown tag is counted and skipped, garbage drops the
    worker and its attempt is a crash."""

    def _attempt_after(self, send):
        """Register a hand-driven worker, take one job, ``send`` frames."""
        backend = SocketWorkerBackend()
        sock = socket.create_connection(backend.address, timeout=5.0)
        try:
            frames.send_frame(
                sock, frames.TAG_HELLO, {"name": "hand", "pid": None}
            )
            backend.submit(Job(id="j", fn=_noop), None, None)
            tag, spec = frames.recv_frame(sock)
            assert tag == frames.TAG_JOB and spec["job_id"] == "j"
            send(sock)
            deadline = time.monotonic() + 5.0
            done = []
            while not done and time.monotonic() < deadline:
                done = backend.poll()
                time.sleep(0.005)
            (attempt,) = done
            return attempt, backend.describe()
        finally:
            sock.close()
            backend.shutdown()

    def test_unknown_tagged_tuple_skipped(self):
        def send(sock):
            frames.send_frame(sock, "future-tag", {"optional": True})
            frames.send_frame(sock, frames.TAG_RESULT, ("j", "ok", 42, None))

        attempt, described = self._attempt_after(send)
        assert attempt.status == "ok"
        assert attempt.result == 42
        assert described["unknown_skipped"] == 1

    def test_untagged_garbage_still_classifies_crash(self):
        attempt, _ = self._attempt_after(
            lambda sock: sock.sendall(b"\x00" * 32)
        )
        assert attempt.status == "crash"
        assert "FrameProtocolError" in attempt.error
