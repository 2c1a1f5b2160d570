"""HTTP boundary fuzz: hostile requests get a 4xx or a clean close.

The service's hand-rolled HTTP/1.1 parser (``serve/server.py``) sits
directly on the network.  Whatever a broken or malicious client sends
— random bytes, any prefix of a valid request, a lying
``Content-Length``, oversized heads, bad POST fields, a client that
stalls or half-closes — must be answered with a typed 4xx (or the
connection closed cleanly), never a 500 or a hang, and must leave no
file descriptor or asyncio task behind.  Connections persist: requests
on one connection are answered in order, and an error, a close
request or an idle deadline ends it.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import re
import socket
import time

import pytest

from repro.serve import ServeClient, ServerThread, build_app
from repro.serve import server as server_mod

from .conftest import wait_until

_STATUS = re.compile(rb"HTTP/1\.1 (\d{3}) ")

_BODY = json.dumps(
    {"workload": "spin", "params": {"duration_s": 0.0, "tag": "fuzz"}}
).encode()
VALID_POST = (
    b"POST /v1/experiments HTTP/1.1\r\n"
    b"Host: fuzz\r\n"
    b"Content-Type: application/json\r\n"
    b"Content-Length: " + str(len(_BODY)).encode() + b"\r\n"
    b"\r\n" + _BODY
)


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


@pytest.fixture(scope="module")
def server():
    handle = ServerThread(build_app(backend="serial")).start()
    yield handle
    handle.stop(drain=False)


def _tasks(handle) -> int:
    """Tasks alive on the server's loop, not counting the probe itself."""

    async def _count() -> int:
        return len(asyncio.all_tasks()) - 1

    future = asyncio.run_coroutine_threadsafe(_count(), handle._loop)
    return future.result(timeout=5.0)


@pytest.fixture
def baseline(server):
    """Yields the server; afterwards fds, tasks and the server-fault
    counter must be back where they started."""
    fds, tasks = _open_fds(), _tasks(server)
    errors = server.app.metrics.counter("serve.http_errors").value
    yield server
    wait_until(lambda: _open_fds() <= fds and _tasks(server) <= tasks)
    assert server.app.metrics.counter("serve.http_errors").value == errors


def _exchange(address, blob: bytes, half_close: bool = True,
              timeout_s: float = 5.0) -> int | None:
    """Send ``blob``; return the response status, or None on a clean
    close without a response.  A hang fails the test."""
    sock = socket.create_connection(address, timeout=timeout_s)
    try:
        try:
            sock.sendall(blob)
            if half_close:
                sock.shutdown(socket.SHUT_WR)
        except (BrokenPipeError, ConnectionResetError):
            pass  # the server answered early and closed: read the reply
        data = b""
        try:
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                data += chunk
        except ConnectionResetError:
            pass
        except socket.timeout:
            pytest.fail(f"no reply within {timeout_s}s to {blob[:60]!r}")
    finally:
        sock.close()
    if not data:
        return None
    match = _STATUS.match(data)
    assert match, f"not an HTTP response: {data[:80]!r}"
    return int(match.group(1))


def _assert_client_error(status, blob):
    assert status is None or 400 <= status < 500, (status, blob[:80])


def test_valid_post_is_accepted(baseline):
    assert _exchange(baseline.address, VALID_POST) == 202


def test_random_bytes(baseline):
    rng = random.Random(0x5EB1)
    for _ in range(120):
        blob = rng.randbytes(rng.randrange(0, 200))
        if rng.random() < 0.5:  # give some blobs a line structure
            blob = blob.replace(b"\x00", b"\r\n")
        _assert_client_error(_exchange(baseline.address, blob), blob)


def test_every_truncation_point_of_a_valid_post(baseline):
    for cut in range(len(VALID_POST)):
        blob = VALID_POST[:cut]
        _assert_client_error(_exchange(baseline.address, blob), blob)


@pytest.mark.parametrize("declared", [
    b"abc", b"-5", b"+5", b"5.0", b"0x10", b"", b" ", b"1 2",
    "１２".encode(),  # fullwidth digits
])
def test_lying_content_length_is_a_400(baseline, declared):
    blob = (b"POST /v1/experiments HTTP/1.1\r\nContent-Length: "
            + declared + b"\r\n\r\n" + _BODY)
    assert _exchange(baseline.address, blob) == 400


def test_length_beyond_the_body_then_half_close_is_a_400(baseline):
    blob = VALID_POST.replace(
        b"Content-Length: " + str(len(_BODY)).encode(),
        b"Content-Length: " + str(len(_BODY) + 50).encode(),
    )
    assert _exchange(baseline.address, blob) == 400


def test_length_short_of_the_body_is_a_client_error(baseline):
    blob = VALID_POST.replace(
        b"Content-Length: " + str(len(_BODY)).encode(),
        b"Content-Length: " + str(len(_BODY) // 2).encode(),
    )
    _assert_client_error(_exchange(baseline.address, blob), blob)


def test_oversized_declared_body_is_a_413(baseline):
    blob = (b"POST /v1/experiments HTTP/1.1\r\nContent-Length: "
            + str(10 ** 20).encode() + b"\r\n\r\n")
    assert _exchange(baseline.address, blob) == 413


@pytest.mark.parametrize("blob", [
    b"GET /healthz HTTP/1.1\r\nX-Big: " + b"a" * 200_000 + b"\r\n\r\n",
    b"GET /" + b"a" * 100_000 + b" HTTP/1.1\r\n\r\n",
    b"GET /healthz HTTP/1.1\r\n" + b"X-Many: 0123456789\r\n" * 5000 + b"\r\n",
], ids=["long-header-line", "long-request-line", "many-headers"])
def test_oversized_head_is_a_400(baseline, blob):
    assert _exchange(baseline.address, blob, timeout_s=10.0) == 400


def test_client_stalled_after_one_header_gets_a_400(baseline, monkeypatch):
    monkeypatch.setattr(server_mod, "REQUEST_DEADLINE_S", 0.3)
    start = time.monotonic()
    status = _exchange(
        baseline.address, b"GET /healthz HTTP/1.1\r\nHost: x\r\n",
        half_close=False,
    )
    assert status == 400
    assert time.monotonic() - start < 3.0


def test_client_stalled_in_the_body_gets_a_400(baseline, monkeypatch):
    monkeypatch.setattr(server_mod, "REQUEST_DEADLINE_S", 0.3)
    assert _exchange(
        baseline.address, VALID_POST[:-5], half_close=False
    ) == 400


def test_slow_dribble_is_cut_off_at_the_deadline(baseline, monkeypatch):
    """One deadline covers the whole request: a client that keeps
    sending a byte at a time never extends it."""
    monkeypatch.setattr(server_mod, "REQUEST_DEADLINE_S", 0.3)
    sock = socket.create_connection(baseline.address, timeout=5.0)
    start = time.monotonic()
    try:
        sock.sendall(b"GET /healthz HTTP/1.1\r\n")
        reply = b""
        sock.settimeout(0.05)
        while time.monotonic() - start < 5.0:
            try:
                sock.sendall(b"X")
            except (BrokenPipeError, ConnectionResetError):
                pass
            try:
                reply = sock.recv(65536)
            except socket.timeout:
                continue
            break
    finally:
        sock.close()
    assert reply.startswith(b"HTTP/1.1 400 ")
    assert time.monotonic() - start < 3.0


def test_half_close_after_the_head_is_a_400(baseline):
    head = VALID_POST[: VALID_POST.index(b"\r\n\r\n") + 4]
    assert _exchange(baseline.address, head) == 400


def test_connect_and_close_leaves_nothing_behind(baseline):
    for _ in range(20):
        socket.create_connection(baseline.address, timeout=5.0).close()


# -- typed 400s for bad POST fields ------------------------------------------


def _post(fields: dict) -> bytes:
    body = json.dumps({"workload": "spin", "params": {"tag": "field"},
                       **fields}).encode()
    return (b"POST /v1/experiments HTTP/1.1\r\nContent-Length: "
            + str(len(body)).encode() + b"\r\n\r\n" + body)


@pytest.mark.parametrize("field,value", [
    ("wait_timeout_s", "abc"),
    ("wait_timeout_s", "5"),
    ("wait_timeout_s", None),
    ("wait_timeout_s", True),
    ("wait_timeout_s", float("nan")),
    ("wait_timeout_s", float("inf")),
    ("wait_timeout_s", -1),
    pytest.param("wait_timeout_s", 10 ** 400, id="wait_timeout_s-10**400"),
    ("repetitions", 1.5),
    ("repetitions", True),
    ("repetitions", "2"),
    ("repetitions", None),
])
def test_bad_post_field_is_a_400(baseline, field, value):
    assert _exchange(baseline.address, _post({field: value})) == 400


@pytest.mark.parametrize("fields", [
    {"wait_timeout_s": 0}, {"wait_timeout_s": 2.5}, {"repetitions": 2.0},
])
def test_good_post_field_is_accepted(baseline, fields):
    assert _exchange(baseline.address, _post(fields)) in (200, 202)


# -- persistent connections --------------------------------------------------

HEALTHZ = b"GET /healthz HTTP/1.1\r\nHost: fuzz\r\n\r\n"
METRICS = b"GET /metrics HTTP/1.1\r\nHost: fuzz\r\n\r\n"


def _responses(address, blob: bytes, half_close: bool = False,
               timeout_s: float = 5.0) -> list[tuple[int, dict, bytes]]:
    """Send ``blob`` on one connection and read until the server closes
    it; returns every ``(status, headers, body)`` in order."""
    sock = socket.create_connection(address, timeout=timeout_s)
    data = b""
    try:
        sock.sendall(blob)
        if half_close:
            sock.shutdown(socket.SHUT_WR)
        while chunk := sock.recv(65536):
            data += chunk
    except socket.timeout:
        pytest.fail(f"connection still open after {timeout_s}s: {data[:80]!r}")
    finally:
        sock.close()
    out = []
    while data:
        head, _, data = data.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        headers = {k.strip().lower(): v.strip() for k, _, v in
                   (line.partition(":") for line in lines[1:])}
        length = int(headers["content-length"])
        out.append((int(lines[0].split()[1]), headers, data[:length]))
        data = data[length:]
    return out


def test_pipelined_requests_are_answered_in_order(baseline):
    replies = _responses(baseline.address, HEALTHZ + METRICS,
                         half_close=True)
    assert [status for status, _, _ in replies] == [200, 200]
    assert replies[0][1]["content-type"] == "application/json"
    assert replies[1][1]["content-type"].startswith("text/plain")
    assert all("connection" not in headers for _, headers, _ in replies)


def test_idle_connection_is_closed_silently_at_the_deadline(
        baseline, monkeypatch):
    monkeypatch.setattr(server_mod, "REQUEST_DEADLINE_S", 0.3)
    start = time.monotonic()
    assert _responses(baseline.address, b"") == []
    assert 0.25 <= time.monotonic() - start < 3.0


def test_idle_deadline_restarts_after_each_answer(baseline, monkeypatch):
    monkeypatch.setattr(server_mod, "REQUEST_DEADLINE_S", 0.3)
    sock = socket.create_connection(baseline.address, timeout=5.0)
    try:
        for _ in range(3):
            time.sleep(0.2)
            sock.sendall(HEALTHZ)
            assert _STATUS.match(sock.recv(65536)).group(1) == b"200"
        start = time.monotonic()
        assert sock.recv(65536) == b""
        assert time.monotonic() - start < 3.0
    finally:
        sock.close()


def test_partial_second_request_on_a_live_connection_is_a_400(
        baseline, monkeypatch):
    monkeypatch.setattr(server_mod, "REQUEST_DEADLINE_S", 0.3)
    replies = _responses(baseline.address, HEALTHZ + b"GET /heal")
    assert [status for status, _, _ in replies] == [200, 400]
    assert replies[1][1]["connection"] == "close"


@pytest.mark.parametrize("request_", [
    b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
    b"GET /healthz HTTP/1.1\r\nConnection: keep-alive, Close\r\n\r\n",
    b"GET /healthz HTTP/1.0\r\n\r\n",
], ids=["connection-close", "close-token", "http-1.0"])
def test_close_request_ends_the_connection_after_one_answer(
        baseline, request_):
    # The pipelined second request is never read.
    replies = _responses(baseline.address, request_ + HEALTHZ)
    assert [status for status, _, _ in replies] == [200]
    assert replies[0][1]["connection"] == "close"


@pytest.mark.parametrize("request_,status", [
    (b"GET /nope HTTP/1.1\r\n\r\n", 404),
    (b"GET /v1/experiments HTTP/1.1\r\n\r\n", 405),
    (b"POST /v1/experiments HTTP/1.1\r\nContent-Length: 1\r\n\r\n{", 400),
    (b"GET /healthz HTTP/1.1\r\nContent-Length: x\r\n\r\n", 400),
    (b"GET\r\n\r\n", 400),
], ids=["404", "405", "bad-json", "bad-length", "bad-request-line"])
def test_any_4xx_ends_the_connection(baseline, request_, status):
    replies = _responses(baseline.address, request_ + HEALTHZ)
    assert [s for s, _, _ in replies] == [status]
    assert replies[0][1]["connection"] == "close"


def test_sequential_client_requests_ride_one_connection(baseline):
    connections = baseline.app.metrics.counter("serve.connections")
    before = connections.value
    with ServeClient(*baseline.address, timeout_s=10.0) as client:
        for i in range(50):
            if i % 2:
                status, _, _ = client.submit(
                    "spin", {"duration_s": 0.0, "tag": "reuse"}, wait=True)
                assert status == 200
            else:
                assert client.healthz()["status"] == "ok"
    assert connections.value - before == 1


def test_client_reconnects_when_the_server_closed_its_idle_connection(
        baseline, monkeypatch):
    monkeypatch.setattr(server_mod, "REQUEST_DEADLINE_S", 0.2)
    connections = baseline.app.metrics.counter("serve.connections")
    before, tasks = connections.value, _tasks(baseline)
    with ServeClient(*baseline.address, timeout_s=10.0) as client:
        assert client.healthz()["status"] == "ok"
        wait_until(lambda: _tasks(baseline) <= tasks)  # the server hung up
        status, _, body = client.submit(
            "spin", {"duration_s": 0.0, "tag": "reconnect"}, wait=True)
    assert status == 200 and body["runs"][0]["status"] == "succeeded"
    assert connections.value - before == 2
