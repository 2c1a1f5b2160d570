"""The dispatcher's wait: admission wakes it, a full backend does not.

``poll_interval_s=30`` makes any fallback to the timed poll show up as
a stall: a fresh entry must be dispatched because :meth:`try_admit`
woke the dispatcher, never because a poll came round.
"""

from __future__ import annotations

import errno
import os
import time

import pytest

from repro.core.instrument import MetricsRegistry
from repro.exec.cache import ResultCache
from repro.exec.runners import SerialRunner
from repro.serve import ServeClient, ServerThread, build_app
from repro.serve.admission import AdmissionController
from repro.serve.coalesce import Coalescer
from repro.serve.dispatch import Dispatcher
from repro.serve.workloads import design_point

from .conftest import wait_until


class _FullRunner:
    """A backend that never has a free slot; counts dispatcher passes."""

    def __init__(self) -> None:
        self.polls = 0

    def capacity(self) -> int:
        return 0

    def submit(self, *args, **kwargs) -> None:  # pragma: no cover
        raise AssertionError("a full backend must not be submitted to")

    def poll(self) -> list:
        self.polls += 1
        return []

    def shutdown(self) -> None:
        pass


@pytest.fixture
def pump(tmp_path):
    """Callable building a started dispatcher over ``runner``."""
    dispatchers: list[Dispatcher] = []

    def _make(runner, poll_interval_s: float):
        metrics = MetricsRegistry(enabled=True)
        admission = AdmissionController(max_queue=8, max_inflight=1,
                                        metrics=metrics)
        coalescer = Coalescer(ResultCache(tmp_path / "cache", metrics=metrics),
                              metrics=metrics)
        dispatcher = Dispatcher(runner, admission, coalescer,
                                poll_interval_s=poll_interval_s,
                                metrics=metrics)
        dispatcher.start()
        dispatchers.append(dispatcher)
        return dispatcher

    yield _make
    for dispatcher in dispatchers:
        dispatcher.stop(drain=False)


def _admit(dispatcher: Dispatcher, tag: str):
    record, entry = dispatcher.coalescer.submit(
        design_point("spin", {"duration_s": 0.0, "tag": tag})
    )
    dispatcher.admission.try_admit(entry)
    return record


class TestDispatcherWait:
    def test_admission_wakes_idle_dispatcher(self, pump):
        dispatcher = pump(SerialRunner(), poll_interval_s=30.0)
        time.sleep(0.1)  # let the pump finish its first pass and block
        record = _admit(dispatcher, "wake")
        wait_until(lambda: record.terminal, timeout_s=1.0)
        assert record.status == "succeeded"

    def test_full_backend_with_queued_work_does_not_spin(self, pump):
        runner = _FullRunner()
        interval = 0.05
        dispatcher = pump(runner, poll_interval_s=interval)
        _admit(dispatcher, "stuck")
        start = runner.polls
        window = 0.5
        time.sleep(window)
        passes = runner.polls - start
        assert passes <= 2 * window / interval + 2
        assert dispatcher.admission.depth() == 1

    def test_stop_wakes_blocked_dispatcher(self, pump):
        dispatcher = pump(SerialRunner(), poll_interval_s=30.0)
        time.sleep(0.1)
        start = time.monotonic()
        assert dispatcher.stop(drain=False) is True
        assert time.monotonic() - start < 1.0
        assert not dispatcher._thread.is_alive()


def test_back_to_back_requests_never_lose_a_wakeup(tmp_path):
    app = build_app(backend="serial", cache_dir=str(tmp_path / "cache"))
    app.dispatcher.poll_interval_s = 30.0
    with ServerThread(app) as server, ServeClient(
        *server.address, timeout_s=30.0
    ) as client:
        for i in range(200):
            status, _, body = client.submit(
                "spin", {"duration_s": 0.0, "tag": f"b2b-{i}"},
                wait=True, wait_timeout_s=5.0,
            )
            assert status == 200, f"request {i} was not answered in time"
            assert body["runs"][0]["status"] == "succeeded"
        assert app.dispatcher.dispatched == 200


def test_a_failed_cache_write_keeps_the_dispatcher_serving(
        tmp_path, monkeypatch):
    cache_dir = tmp_path / "cache"
    app = build_app(backend="serial", cache_dir=str(cache_dir))
    replace = os.replace

    def disk_full(src, dst):
        if str(dst).startswith(str(cache_dir)):
            raise OSError(errno.ENOSPC, "No space left on device")
        return replace(src, dst)

    monkeypatch.setattr(os, "replace", disk_full)
    with ServerThread(app) as server, ServeClient(
        *server.address, timeout_s=30.0
    ) as client:
        for i in range(2):
            status, _, body = client.submit(
                "spin", {"duration_s": 0.0, "tag": f"full-{i}"},
                wait=True, wait_timeout_s=10.0,
            )
            assert status == 200, f"fresh point {i} was not answered"
            assert body["runs"][0]["status"] == "succeeded"
        wait_until(lambda: app.coalescer.live_entries() == 0)
        assert app.metrics.counter("exec.cache.write_failed").value == 2
        assert app.cache.stats()["write_failed"] == 2
        assert "exec_cache_write_failed" in client.metrics_text()
        assert app.dispatcher._thread.is_alive()
