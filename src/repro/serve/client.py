"""Minimal clients for the experiment service (stdlib only).

:class:`ServeClient` is the blocking convenience wrapper (tests, the
selftest, simple scripts) over ``http.client``.  It keeps one
persistent HTTP/1.1 connection per calling thread and reconnects once
when a reused connection turns out to have been closed by the server
(idle past its deadline, or draining) before any response byte came
back.  Use it as a context manager, or call :meth:`ServeClient.close`.

:func:`arequest` is the asyncio variant the open-loop load generator
uses: one connection per exchange, sent with ``Connection: close`` and
read to EOF, so concurrency is bounded only by sockets.
"""

from __future__ import annotations

import http.client
import json
import random
import threading
import time
from typing import Any, Optional

__all__ = ["ServeClient", "arequest"]


class ServeClient:
    """Blocking JSON client for one server address.

    Each calling thread gets its own persistent connection, opened on
    its first request; :meth:`close` (or leaving a ``with`` block)
    closes them all.

    With ``busy_retries > 0`` the client is a *polite* one: a 429 from
    admission control is retried, honoring the server's ``Retry-After``
    hint with capped exponential backoff plus jitter (so a thundering
    herd of shed clients does not return in lockstep and re-shed
    itself).  The default is 0 — callers that want to *observe* shedding
    (tests, the load benchmark's open loop) see every 429.
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout_s: float = 60.0,
        busy_retries: int = 0,
        backoff_cap_s: float = 10.0,
        jitter: float = 0.25,
    ) -> None:
        if busy_retries < 0:
            raise ValueError("busy_retries must be non-negative")
        if backoff_cap_s <= 0:
            raise ValueError("backoff_cap_s must be positive")
        if not 0.0 <= jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")
        self.host = host
        self.port = port
        self.timeout_s = timeout_s
        self.busy_retries = busy_retries
        self.backoff_cap_s = backoff_cap_s
        self.jitter = jitter
        #: 429 responses absorbed by backoff (observability for tests).
        self.busy_retried = 0
        self._local = threading.local()
        self._conns: list[http.client.HTTPConnection] = []
        self._conns_lock = threading.Lock()

    def close(self) -> None:
        """Close every thread's connection; a later request reopens."""
        with self._conns_lock:
            conns, self._conns = self._conns, []
        for conn in conns:
            conn.close()
        self._local = threading.local()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _connection(self) -> http.client.HTTPConnection:
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout_s
            )
            self._local.conn = conn
            with self._conns_lock:
                self._conns.append(conn)
        return conn

    def _busy_delay(self, attempt: int, retry_after: Optional[str]) -> float:
        """Backoff before retry ``attempt``: server hint, doubled per
        attempt, capped, jittered."""
        try:
            hint = max(0.0, float(retry_after)) if retry_after else 0.1
        except ValueError:
            hint = 0.1
        delay = min(self.backoff_cap_s, hint * (2 ** (attempt - 1)))
        if self.jitter:
            delay *= 1.0 + random.uniform(-self.jitter, self.jitter)
        return max(0.0, delay)

    def request(
        self, method: str, path: str, payload: Optional[dict] = None
    ) -> tuple[int, dict, Any]:
        """One exchange; returns ``(status, headers, parsed body)``.

        JSON responses are parsed; anything else (the Prometheus text
        of ``/metrics``) comes back as ``str``.  429 responses are
        retried up to ``busy_retries`` times (see class docstring).
        """
        attempt = 0
        while True:
            status, headers, parsed = self._request_once(method, path, payload)
            if status != 429 or attempt >= self.busy_retries:
                return status, headers, parsed
            attempt += 1
            self.busy_retried += 1
            time.sleep(self._busy_delay(attempt, headers.get("retry-after")))

    def _request_once(
        self, method: str, path: str, payload: Optional[dict] = None
    ) -> tuple[int, dict, Any]:
        body = None
        headers = {}
        if payload is not None:
            body = json.dumps(payload).encode()
            headers["Content-Type"] = "application/json"
        conn = self._connection()
        reused = conn.sock is not None
        try:
            try:
                conn.request(method, path, body=body, headers=headers)
                resp = conn.getresponse()
            except (BrokenPipeError, ConnectionResetError):
                # RemoteDisconnected is a ConnectionResetError: the
                # server closed the connection before answering.  Only a
                # reused one may have been closed while idle; the
                # request never reached it, so a fresh one may resend.
                conn.close()
                if not reused:
                    raise
                conn.request(method, path, body=body, headers=headers)
                resp = conn.getresponse()
            raw = resp.read()
        except BaseException:
            conn.close()  # a half-done exchange leaves it unusable
            raise
        resp_headers = {k.lower(): v for k, v in resp.getheaders()}
        if "application/json" in resp_headers.get("content-type", ""):
            parsed: Any = json.loads(raw.decode() or "null")
        else:
            parsed = raw.decode()
        return resp.status, resp_headers, parsed

    # -- conveniences ------------------------------------------------------

    def submit(
        self,
        workload: str,
        params: Optional[dict] = None,
        wait: bool = False,
        **extra: Any,
    ) -> tuple[int, dict, Any]:
        payload = {"workload": workload, "params": params or {}, **extra}
        if wait:
            payload["wait"] = True
        return self.request("POST", "/v1/experiments", payload)

    def run(self, run_id: str) -> tuple[int, dict, Any]:
        return self.request("GET", f"/v1/runs/{run_id}")

    def healthz(self) -> dict:
        status, _, body = self.request("GET", "/healthz")
        if status != 200:
            raise RuntimeError(f"healthz returned {status}")
        return body

    def metrics_text(self) -> str:
        status, _, body = self.request("GET", "/metrics")
        if status != 200:
            raise RuntimeError(f"/metrics returned {status}")
        return body


async def arequest(
    host: str,
    port: int,
    method: str,
    path: str,
    payload: Optional[dict] = None,
    timeout_s: float = 60.0,
) -> tuple[int, dict, Any]:
    """Async one-shot HTTP/1.1 exchange (connection per request)."""
    # Imported here: blocking ServeClient users never pay for asyncio.
    import asyncio

    reader, writer = await asyncio.wait_for(
        asyncio.open_connection(host, port), timeout_s
    )
    try:
        body = b"" if payload is None else json.dumps(payload).encode()
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {host}:{port}\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Content-Type: application/json\r\n"
            "Connection: close\r\n\r\n"
        )
        writer.write(head.encode() + body)
        await writer.drain()
        raw = await asyncio.wait_for(reader.read(), timeout_s)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, BrokenPipeError):  # pragma: no cover
            pass
    header_blob, _, rest = raw.partition(b"\r\n\r\n")
    lines = header_blob.decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1])
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    if "application/json" in headers.get("content-type", ""):
        parsed: Any = json.loads(rest.decode() or "null")
    else:
        parsed = rest.decode()
    return status, headers, parsed
