"""Composition helpers: build and run an :class:`ExperimentServer`.

:func:`build_app` wires the whole serve stack (metrics registry, result
cache, backend from :func:`~repro.exec.backends.make_backend`,
admission, coalescer, dispatcher, HTTP server) from flat options — the
CLI, the selftest, the test suite, and the load benchmark all come
through here so they exercise the same composition.

:class:`ServerThread` runs an app on a private asyncio loop in a
daemon thread: the pattern for embedding the service in a benchmark or
test process whose main thread stays a plain blocking client.
"""

from __future__ import annotations

import asyncio
import tempfile
import threading
from typing import Optional

from ..core.instrument import MetricsRegistry
from ..exec.backends import make_backend
from ..exec.cache import ResultCache
from .server import ExperimentServer

__all__ = ["ServerThread", "build_app"]


def build_app(
    backend: str = "serial",
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    host: str = "127.0.0.1",
    port: int = 0,
    max_queue: int = 128,
    max_inflight: Optional[int] = None,
    retry_after_s: float = 1.0,
    job_timeout_s: Optional[float] = None,
    metrics: Optional[MetricsRegistry] = None,
    hedge_ms: Optional[float] = None,
) -> ExperimentServer:
    """Build a ready-to-start server from CLI-shaped options.

    The result cache is mandatory for the service (it *is* the
    coalescer's identity and fast path); without ``cache_dir`` an
    ephemeral per-process directory is used, which still coalesces and
    serves repeats hot for the server's lifetime but persists nothing.
    ``max_inflight`` defaults to the backend parallelism (``jobs``).

    ``hedge_ms`` arms tail-latency hedging: the backend is wrapped in a
    :class:`~repro.exec.backends.hedge.HedgedRunner` that duplicates
    any request still running after that many milliseconds onto a free
    worker and takes the first result.  A negative, ``nan`` or infinite
    delay raises ``ValueError``.
    """
    registry = metrics if metrics is not None else MetricsRegistry(enabled=True)
    root = cache_dir or tempfile.mkdtemp(prefix="repro-serve-cache-")
    cache = ResultCache(root, metrics=registry)
    runner = make_backend(backend, jobs=jobs, cache_dir=root, metrics=registry)
    if hedge_ms is not None:
        from ..exec.backends.hedge import HedgedRunner

        try:
            runner = HedgedRunner(runner, hedge_ms / 1e3, metrics=registry)
        except ValueError:
            runner.shutdown()
            raise
    return ExperimentServer(
        runner=runner,
        cache=cache,
        metrics=registry,
        host=host,
        port=port,
        max_queue=max_queue,
        max_inflight=max_inflight if max_inflight is not None else max(1, jobs),
        retry_after_s=retry_after_s,
        job_timeout_s=job_timeout_s,
    )


class ServerThread:
    """Run an :class:`ExperimentServer` on a private loop in a thread.

    Usage::

        with ServerThread(build_app(backend="socket", jobs=2)) as srv, \
                ServeClient(*srv.address) as client:
            ...

    Exit drains gracefully (default) so every in-flight run completes
    and its waiters are answered before the thread dies.
    """

    def __init__(self, app: ExperimentServer,
                 drain_timeout_s: float = 30.0) -> None:
        self.app = app
        self.drain_timeout_s = drain_timeout_s
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._boot_error: Optional[BaseException] = None

    @property
    def address(self) -> tuple[str, int]:
        return self.app.address

    def start(self) -> "ServerThread":
        if self._thread is not None:
            raise RuntimeError("server thread already started")
        self._thread = threading.Thread(
            target=self._run, name="repro-serve", daemon=True
        )
        self._thread.start()
        self._started.wait(timeout=30.0)
        if self._boot_error is not None:
            raise RuntimeError("server failed to start") from self._boot_error
        if not self._started.is_set():
            raise RuntimeError("server did not start within 30s")
        return self

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        self._loop = loop
        asyncio.set_event_loop(loop)

        async def _main() -> None:
            try:
                await self.app.start()
            except BaseException as exc:  # surface bind errors to starter
                self._boot_error = exc
                self._started.set()
                raise
            self._started.set()
            await self.app.serve_until_stopped()

        try:
            loop.run_until_complete(_main())
        except Exception:
            pass
        finally:
            loop.close()

    def stop(self, drain: bool = True) -> bool:
        """Drain (optionally) and stop; returns True on a clean drain."""
        if self._loop is None or self._thread is None:
            return True
        if self.app.draining or not self._thread.is_alive():
            # Something else (a selftest-driven drain, a signal) already
            # began the shutdown and stops the loop itself; a second
            # drain scheduled now could land on a loop that never runs it.
            self._thread.join(timeout=self.drain_timeout_s + 10.0)
            return not self._thread.is_alive()
        try:
            fut = asyncio.run_coroutine_threadsafe(
                self.app.drain(self.drain_timeout_s if drain else 0.0),
                self._loop,
            )
            drained = fut.result(timeout=self.drain_timeout_s + 10.0)
        except Exception:
            drained = False
        self._thread.join(timeout=10.0)
        return drained

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
