"""The experiment service: a stdlib-asyncio HTTP/JSON front end.

``ExperimentServer`` composes the serve subsystem — admission control,
request coalescing, the dispatcher pump, and a backend from
:func:`repro.exec.backends.make_backend` — behind four endpoints:

* ``POST /v1/experiments`` — submit a design point (``{"workload":
  "cluster", "params": {...}}``), a repetition fan-out
  (``"repetitions": N`` gives each rep a distinct ``rep`` param), or a
  sweep (``"sweep": [params, ...]``).  Returns 202 with run ids, or
  waits for completion with ``"wait": true`` (also ``?wait=1``).
  Overload answers 429 with ``Retry-After``; a draining server answers
  503; malformed JSON and unknown workloads answer 400.
* ``GET /v1/runs/<id>`` — status + result of one run record (404 for
  unknown ids).
* ``GET /metrics`` — live Prometheus text via the same
  :func:`repro.obs.export.registry_state_to_prometheus` exporter the
  offline telemetry path uses, so a scrape during load and a merged
  RunReport export are format-identical.
* ``GET /healthz`` — liveness + queue/in-flight snapshot.

The HTTP layer is deliberately tiny: HTTP/1.1 with persistent
connections, one JSON body per exchange, parsed with the stdlib only.
A connection answers its requests in order and stays open until the
client sends ``Connection: close`` or speaks HTTP/1.0, a response is an
error (any 4xx or 5xx: after a bad head the next request's start is
unknown), the server drains, or the client sends nothing for
``REQUEST_DEADLINE_S``.  Requests run on the asyncio event loop;
execution happens on the dispatcher thread; completion wakes waiters
via ``call_soon_threadsafe``.

Graceful shutdown (SIGTERM/SIGINT or :meth:`ExperimentServer.drain`):
new submissions are rejected with 503 while queued and in-flight runs
finish and every waiter receives its result; then the listener closes,
idle connections are closed, and a request still in progress gets its
answer with ``Connection: close``.
"""

from __future__ import annotations

import asyncio
import json
import math
import signal
import time
from typing import Any, Optional

from ..core.instrument import MetricsRegistry
from ..exec.cache import ResultCache
from ..exec.runners import Runner
from ..obs.export import registry_state_to_prometheus
from .admission import AdmissionController, QueueFull
from .coalesce import Coalescer, RunRecord
from .dispatch import Dispatcher
from .workloads import design_point

__all__ = ["ExperimentServer"]

_MAX_BODY = 1 << 20  # 1 MiB of JSON is already a pathological sweep
_MAX_HEAD = 1 << 16  # request line + headers; also the reader's line limit
_DEFAULT_WAIT_TIMEOUT_S = 60.0

#: Seconds a client has to send its whole request, head and body, from
#: its first byte.  One deadline over both, so a client that stalls
#: anywhere gets a 400.  An open connection that sends no byte for as
#: long is closed without a response.
REQUEST_DEADLINE_S = 30.0


class _HttpError(Exception):
    """Internal: mapped to a JSON error response."""

    def __init__(self, status: int, message: str,
                 headers: Optional[dict] = None,
                 extra: Optional[dict] = None) -> None:
        super().__init__(message)
        self.status = status
        self.message = message
        self.headers = headers or {}
        self.extra = extra or {}


_REASONS = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large",
    429: "Too Many Requests", 500: "Internal Server Error",
    503: "Service Unavailable",
}


class ExperimentServer:
    """Long-running experiment service over one execution backend."""

    def __init__(
        self,
        runner: Runner,
        cache: ResultCache,
        metrics: MetricsRegistry,
        host: str = "127.0.0.1",
        port: int = 0,
        max_queue: int = 128,
        max_inflight: int = 4,
        retry_after_s: float = 1.0,
        job_timeout_s: Optional[float] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.metrics = metrics
        self.cache = cache
        self.admission = AdmissionController(
            max_queue=max_queue,
            max_inflight=max_inflight,
            retry_after_s=retry_after_s,
            metrics=metrics,
        )
        self.coalescer = Coalescer(cache, metrics=metrics)
        self.dispatcher = Dispatcher(
            runner,
            self.admission,
            self.coalescer,
            timeout_s=job_timeout_s,
            metrics=metrics,
        )
        self.started_at = time.monotonic()
        self.draining = False
        self._server: Optional[asyncio.AbstractServer] = None
        #: Connection handlers, and the writers of those waiting for
        #: the first byte of their next request.
        self._handlers: set[asyncio.Task] = set()
        self._idle: set[asyncio.StreamWriter] = set()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stopped: Optional[asyncio.Event] = None

    # -- lifecycle ---------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        """Bound (host, port); the real port once started with port 0."""
        return (self.host, self.port)

    async def start(self) -> None:
        """Bind the listener and start the dispatcher pump."""
        self._loop = asyncio.get_running_loop()
        self._stopped = asyncio.Event()
        self.dispatcher.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port, limit=_MAX_HEAD
        )
        self.port = self._server.sockets[0].getsockname()[1]

    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT initiate a graceful drain (best-effort)."""
        assert self._loop is not None
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                self._loop.add_signal_handler(
                    sig, lambda: asyncio.ensure_future(self.drain())
                )
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass

    async def drain(self, timeout_s: float = 30.0) -> bool:
        """Graceful shutdown: 503 new work, finish existing, stop.

        Returns ``True`` when every queued and in-flight run completed
        (and so every waiter was answered) before the timeout.
        """
        if self.draining:
            return True
        self.draining = True
        loop = asyncio.get_running_loop()
        drained = await loop.run_in_executor(
            None, lambda: self.dispatcher.stop(drain=True, timeout_s=timeout_s)
        )
        if self._server is not None:
            self._server.close()
        # Idle connections end now; one mid-request finishes its answer
        # (sent with Connection: close) within the request deadline.
        # Both before wait_closed, which on Python 3.12 waits for every
        # connection to end.
        for writer in self._idle:
            writer.close()
        if self._handlers:
            await asyncio.wait(set(self._handlers), timeout=REQUEST_DEADLINE_S)
        if self._server is not None:
            await self._server.wait_closed()
        if self._stopped is not None:
            self._stopped.set()
        return drained

    async def serve_until_stopped(self) -> None:
        """Block until :meth:`drain` (or a signal) completes shutdown."""
        assert self._stopped is not None, "start() first"
        await self._stopped.wait()

    # -- HTTP plumbing -----------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.metrics.counter("serve.connections").inc()
        task = asyncio.current_task()
        self._handlers.add(task)
        try:
            close = False
            while not close:
                self._idle.add(writer)
                try:
                    first = await asyncio.wait_for(
                        reader.readexactly(1), REQUEST_DEADLINE_S
                    )
                except (asyncio.TimeoutError, asyncio.IncompleteReadError,
                        ConnectionError):
                    return  # idle past the deadline, or the client left
                finally:
                    self._idle.discard(writer)
                try:
                    status, headers, body, close = await self._handle_request(
                        reader, first
                    )
                except _HttpError as exc:
                    status, headers, body = self._error_response(exc)
                except ConnectionError:
                    raise
                except Exception as exc:  # noqa: BLE001 - the loop must survive
                    self.metrics.counter("serve.http_errors").inc()
                    status, headers, body = self._error_response(
                        _HttpError(500, f"{type(exc).__name__}: {exc}")
                    )
                close = close or status >= 400 or self.draining
                writer.write(self._render(status, headers, body, close))
                await writer.drain()
        except (ConnectionError, BrokenPipeError):  # client went away
            pass
        finally:
            self._handlers.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError):  # pragma: no cover
                pass

    @staticmethod
    def _render(status: int, headers: dict, body: bytes,
                close: bool) -> bytes:
        reason = _REASONS.get(status, "Unknown")
        lines = [f"HTTP/1.1 {status} {reason}"]
        headers = {"Content-Length": str(len(body)), **headers}
        if close:
            headers["Connection"] = "close"
        lines.extend(f"{k}: {v}" for k, v in headers.items())
        return ("\r\n".join(lines) + "\r\n\r\n").encode() + body

    @staticmethod
    def _json_body(payload: Any) -> tuple[dict, bytes]:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode()
        return {"Content-Type": "application/json"}, body

    def _error_response(self, exc: _HttpError) -> tuple[int, dict, bytes]:
        headers, body = self._json_body({"error": exc.message, **exc.extra})
        headers.update(exc.headers)
        return exc.status, headers, body

    async def _handle_request(
        self, reader: asyncio.StreamReader, first: bytes
    ) -> tuple[int, dict, bytes, bool]:
        """Read and route one request whose first byte was ``first``;
        the last item says whether the client asked to close."""
        try:
            method, target, raw, close = await asyncio.wait_for(
                self._read_request(reader, first), REQUEST_DEADLINE_S
            )
        except asyncio.TimeoutError:
            raise _HttpError(400, "request timed out") from None
        path, _, query = target.partition("?")
        return (*await self._route(method.upper(), path, query, raw), close)

    @staticmethod
    async def _read_request(
        reader: asyncio.StreamReader, first: bytes
    ) -> tuple[str, str, bytes, bool]:
        """Read one request's head and body; a malformed one is a 400.

        ``first`` is the request's first byte, already read; it counts
        towards the head's size like any other.
        """
        head: list[bytes] = []
        size = 0
        while not head or head[-1] not in (b"\r\n", b"\n", b""):
            try:
                line = first if first == b"\n" else (
                    first + await reader.readline())
            except ValueError:  # one line over the reader's limit
                size = _MAX_HEAD + 1
            else:
                size += len(line)
                head.append(line)
            first = b""
            if size > _MAX_HEAD:
                raise _HttpError(400, f"request head over {_MAX_HEAD} bytes")
        parts = head[0].decode("latin-1").split()
        if len(parts) != 3:
            raise _HttpError(400, f"malformed request line: {parts!r}")
        method, target, version = parts
        headers: dict[str, str] = {}
        for line in head[1:-1]:
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        declared = headers.get("content-length", "0")
        if not (declared.isascii() and declared.isdigit()):
            raise _HttpError(400, f"bad Content-Length: {declared[:64]!r}")
        length = int(declared)
        if length > _MAX_BODY:
            raise _HttpError(413, f"body over {_MAX_BODY} bytes")
        try:
            raw = await reader.readexactly(length)
        except asyncio.IncompleteReadError as exc:
            raise _HttpError(
                400,
                f"body ended after {len(exc.partial)} of {length} bytes",
            ) from None
        tokens = headers.get("connection", "").lower().split(",")
        close = (version.upper() != "HTTP/1.1"
                 or "close" in (t.strip() for t in tokens))
        return method, target, raw, close

    # -- routing -----------------------------------------------------------

    async def _route(
        self, method: str, path: str, query: str, raw: bytes
    ) -> tuple[int, dict, bytes]:
        if path == "/healthz" and method == "GET":
            headers, body = self._json_body(self._health())
            return 200, headers, body
        if path == "/metrics" and method == "GET":
            text = registry_state_to_prometheus(self.metrics.to_state())
            return 200, {
                "Content-Type": "text/plain; version=0.0.4; charset=utf-8"
            }, text.encode()
        if path.startswith("/v1/runs/") and method == "GET":
            return self._get_run(path[len("/v1/runs/"):])
        if path == "/v1/experiments":
            if method != "POST":
                raise _HttpError(405, "POST only")
            return await self._post_experiments(query, raw)
        if path == "/v1/scenarios" and method == "GET":
            return self._get_scenarios()
        raise _HttpError(404, f"no route for {method} {path}")

    def _health(self) -> dict:
        return {
            "status": "draining" if self.draining else "ok",
            "uptime_s": time.monotonic() - self.started_at,
            "queue_depth": self.admission.depth(),
            "inflight": self.admission.inflight(),
            "live_design_points": self.coalescer.live_entries(),
            "runs": len(self.coalescer.runs),
        }

    def _get_scenarios(self) -> tuple[int, dict, bytes]:
        """The standard scenario library, resolvable over HTTP.

        Clients submit any listed id as ``{"workload": "scenario",
        "params": {"scenario": "<id>"}}`` — the same bundles, same
        digests, by name.
        """
        from ..scenarios import get as get_scenario
        from ..scenarios import list_ids

        headers, body = self._json_body({
            "scenarios": [
                get_scenario(sid).to_dict() for sid in list_ids()
            ],
        })
        return 200, headers, body

    def _get_run(self, run_id: str) -> tuple[int, dict, bytes]:
        record = self.coalescer.get(run_id)
        if record is None:
            raise _HttpError(404, f"unknown run {run_id!r}")
        headers, body = self._json_body(record.to_json())
        return 200, headers, body

    async def _post_experiments(
        self, query: str, raw: bytes
    ) -> tuple[int, dict, bytes]:
        if self.draining:
            raise _HttpError(
                503, "server is draining; not accepting new work",
                {"Retry-After": "5"},
            )
        try:
            payload = json.loads(raw.decode("utf-8") or "null")
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise _HttpError(400, f"malformed JSON body: {exc}") from None
        if not isinstance(payload, dict):
            raise _HttpError(400, "body must be a JSON object")

        wait = bool(payload.get("wait")) or query in ("wait=1", "wait=true")
        wait_timeout = self._wait_timeout(payload)
        records = self._submit_all(payload)
        done = all(r.terminal for r in records)
        if wait and not done:
            await self._await_records(records, wait_timeout)
            done = all(r.terminal for r in records)
        response = {
            "runs": [r.to_json() for r in records],
            "count": len(records),
        }
        if len(records) == 1:
            response["run_id"] = records[0].run_id
        headers, body = self._json_body(response)
        return (200 if done else 202), headers, body

    @staticmethod
    def _wait_timeout(payload: dict) -> float:
        value = payload.get("wait_timeout_s", _DEFAULT_WAIT_TIMEOUT_S)
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            try:
                seconds = float(value)
            except OverflowError:  # an int beyond float range
                seconds = math.inf
            if 0 <= seconds < math.inf:
                return seconds
        raise _HttpError(400, "'wait_timeout_s' must be a finite number >= 0")

    def _submit_all(self, payload: dict) -> list[RunRecord]:
        workload = payload.get("workload")
        if not isinstance(workload, str):
            raise _HttpError(400, "missing 'workload' (string)")
        base = payload.get("params") or {}
        if not isinstance(base, dict):
            raise _HttpError(400, "'params' must be a JSON object")
        sweep = payload.get("sweep")
        repetitions = payload.get("repetitions", 1)
        if sweep is not None:
            if not isinstance(sweep, list) or not all(
                isinstance(p, dict) for p in sweep
            ):
                raise _HttpError(400, "'sweep' must be a list of objects")
            param_sets = [{**base, **p} for p in sweep]
        else:
            integral = isinstance(repetitions, int) or (
                isinstance(repetitions, float) and repetitions.is_integer())
            if isinstance(repetitions, bool) or not integral:
                raise _HttpError(400, "'repetitions' must be an integer")
            repetitions = int(repetitions)
            if not 1 <= repetitions <= 10_000:
                raise _HttpError(400, "'repetitions' must be in [1, 10000]")
            if repetitions == 1:
                param_sets = [base]
            else:
                # Each repetition is its own design point (distinct seed
                # lineage) — reps must not coalesce with each other.
                param_sets = [{**base, "rep": i} for i in range(repetitions)]
        points = []
        for params in param_sets:
            try:
                points.append(design_point(workload, params))
            except ValueError as exc:
                raise _HttpError(400, str(exc)) from None
        records: list[RunRecord] = []
        for point in points:
            record, entry = self.coalescer.submit(point)
            if entry is not None:
                try:
                    self.admission.try_admit(entry)
                except QueueFull as exc:
                    # Abort the remainder of the sweep; points admitted
                    # before the queue filled keep running and stay
                    # pollable — their ids ride along in the 429 body.
                    self.coalescer.abandon(entry)
                    raise _HttpError(
                        429, str(exc),
                        {"Retry-After": str(int(exc.retry_after_s + 0.999))},
                        extra={
                            "admitted_runs": [r.run_id for r in records],
                        },
                    ) from None
            records.append(record)
        return records

    async def _await_records(
        self, records: list[RunRecord], timeout_s: float
    ) -> None:
        assert self._loop is not None
        loop = self._loop
        futures = []
        for record in records:
            fut: asyncio.Future = loop.create_future()
            futures.append(fut)

            def _wake(fut: asyncio.Future = fut) -> None:
                def _set() -> None:
                    if not fut.done():
                        fut.set_result(None)
                try:
                    loop.call_soon_threadsafe(_set)
                except RuntimeError:  # loop closed mid-shutdown
                    pass

            record.add_done_callback(_wake)
        try:
            await asyncio.wait_for(
                asyncio.gather(*futures), timeout=max(0.001, timeout_s)
            )
        except asyncio.TimeoutError:
            # Not an error: the response reports non-terminal statuses
            # and the client falls back to polling GET /v1/runs/<id>.
            pass
