"""Server surface: endpoints, metrics parity, graceful shutdown.

The acceptance criteria pinned here: ``GET /metrics`` served live
matches the existing Prometheus exporter format, and graceful shutdown
drains in-flight runs with all waiters receiving results.
"""

from __future__ import annotations

import asyncio
import gc
import os
import re
import signal
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import pytest

import repro
from repro.obs.export import registry_state_to_prometheus
from repro.serve import ServeClient, ServerThread, build_app
from repro.serve.cli import main, selftest
from repro.serve.workloads import design_point, run_spin

from .conftest import wait_until


class TestEndpoints:
    def test_healthz_shape(self, serve_factory):
        _, client = serve_factory()
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["uptime_s"] >= 0
        assert health["queue_depth"] == 0
        assert health["inflight"] == 0

    def test_wait_returns_terminal_200(self, serve_factory):
        _, client = serve_factory()
        status, _, body = client.submit(
            "cluster",
            {"n_servers": 4, "arrival_rate": 2.0, "n_requests": 500, "seed": 7},
            wait=True,
        )
        assert status == 200
        run = body["runs"][0]
        assert run["status"] == "succeeded"
        for field in ("p50_ms", "p95_ms", "p99_ms", "utilization"):
            assert field in run["result"]

    def test_get_run_roundtrip(self, serve_factory):
        _, client = serve_factory()
        _, _, body = client.submit("spin", {"duration_s": 0.01}, wait=True)
        run_id = body["run_id"]
        status, _, fetched = client.run(run_id)
        assert status == 200
        assert fetched["run_id"] == run_id
        assert fetched["status"] == "succeeded"
        assert "cache_key" in fetched

    def test_query_param_wait(self, serve_factory):
        handle, client = serve_factory()
        status, _, body = client.request(
            "POST", "/v1/experiments?wait=1",
            {"workload": "spin", "params": {"duration_s": 0.01}},
        )
        assert status == 200
        assert body["runs"][0]["status"] == "succeeded"


class TestMetricsParity:
    def test_live_scrape_matches_exporter_format(self, serve_factory):
        handle, client = serve_factory()
        client.submit("spin", {"duration_s": 0.01}, wait=True)
        # The answer comes before the cache write (and its counter), so
        # scrape only once the entry has retired and the state is still.
        wait_until(lambda: handle.app.coalescer.live_entries() == 0)
        scraped = client.metrics_text()
        # Byte-identical to exporting the same registry state directly:
        # /metrics *is* registry_state_to_prometheus, not a lookalike.
        direct = registry_state_to_prometheus(handle.app.metrics.to_state())
        assert scraped == direct
        assert "# TYPE repro_serve_requests_total counter" in scraped
        assert "# TYPE repro_serve_latency_ms summary" in scraped
        assert 'repro_serve_latency_ms{quantile="0.5"}' in scraped

    def test_scrape_during_load(self, serve_factory):
        handle, client = serve_factory(max_inflight=1)
        client.submit("spin", {"duration_s": 0.3, "tag": "busy"})
        wait_until(lambda: handle.app.admission.inflight() == 1)
        scraped = client.metrics_text()  # mid-flight scrape must serve
        assert "repro_serve_dispatched_total 1" in scraped
        assert client.healthz()["inflight"] == 1


class TestGracefulShutdown:
    def test_drain_completes_inflight_and_answers_waiters(self, serve_factory):
        handle, client = serve_factory(max_inflight=1)
        app = handle.app
        # One running + one queued design point, each with a waiter
        # blocked on wait=1 from a separate thread.
        results: dict[str, object] = {}

        def waiter(tag: str) -> None:
            results[tag] = client.submit(
                "spin", {"duration_s": 0.25, "tag": tag}, wait=True
            )

        threads = [
            threading.Thread(target=waiter, args=(tag,)) for tag in ("w1", "w2")
        ]
        for thread in threads:
            thread.start()
        wait_until(lambda: app.admission.inflight() + app.admission.depth() == 2)
        drained = handle.stop(drain=True)
        for thread in threads:
            thread.join(timeout=20.0)
        assert drained is True
        for tag in ("w1", "w2"):
            status, _, body = results[tag]
            assert status == 200
            assert body["runs"][0]["status"] == "succeeded"

    def test_draining_rejects_new_work_with_503(self, serve_factory):
        handle, client = serve_factory(max_inflight=1)
        app = handle.app
        client.submit("spin", {"duration_s": 0.4, "tag": "drainee"})
        wait_until(lambda: app.admission.inflight() == 1)
        fut = asyncio.run_coroutine_threadsafe(
            app.drain(timeout_s=15.0), handle._loop
        )
        wait_until(lambda: app.draining)
        status, headers, _ = client.submit("spin", {"duration_s": 0.01})
        assert status == 503
        assert "retry-after" in headers
        assert fut.result(timeout=20.0) is True
        # Reads still work on a drained server's state.
        assert app.coalescer.live_entries() == 0


    def test_stop_after_external_drain_returns_promptly(self, tmp_path):
        # The selftest's shape: drain from outside, then stop().  A
        # second drain scheduled on the closing loop used to never run
        # and leave stop() blocked on it for drain_timeout_s + 10 s.
        for i in range(10):
            handle = ServerThread(
                build_app(cache_dir=str(tmp_path / f"c{i}"))
            ).start()
            fut = asyncio.run_coroutine_threadsafe(
                handle.app.drain(timeout_s=5.0), handle._loop
            )
            assert fut.result(timeout=10.0) is True
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                start = time.monotonic()
                handle.stop(drain=False)
                elapsed = time.monotonic() - start
                gc.collect()
            assert elapsed < 5.0
            assert not [w for w in caught if "never awaited" in str(w.message)]


    def test_drain_closes_idle_persistent_connections(self, tmp_path):
        handle = ServerThread(build_app(cache_dir=str(tmp_path / "c"))).start()
        with ServeClient(*handle.address, timeout_s=10.0) as client:
            assert client.healthz()["status"] == "ok"  # left open, idle
            start = time.monotonic()
            assert handle.stop(drain=True) is True
            assert time.monotonic() - start < 2.0
            assert not handle._thread.is_alive()

    def test_sigterm_with_an_idle_client_exits_promptly(self, tmp_path):
        env = dict(os.environ, PYTHONUNBUFFERED="1", PYTHONPATH=os.pathsep.join(
            [str(Path(repro.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--cache", str(tmp_path / "c")],
            stdout=subprocess.PIPE, text=True, env=env,
        )
        try:
            banner = proc.stdout.readline()
            host, port = re.search(r"http://([\d.]+):(\d+)", banner).groups()
            with ServeClient(host, int(port), timeout_s=10.0) as client:
                assert client.healthz()["status"] == "ok"  # left open, idle
                start = time.monotonic()
                proc.send_signal(signal.SIGTERM)
                assert proc.wait(timeout=10.0) == 0
                assert time.monotonic() - start < 2.0
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.communicate()


class TestHedgedServe:
    def test_hedge_answers_a_straggler_once_with_the_unhedged_result(
        self, serve_factory, tmp_path
    ):
        # slow_every=1: every tag stalls slow_s on its first execution
        # only, so the hedge (a second execution) runs in base_s.
        params = {"base_s": 0.02, "slow_s": 3.0, "slow_every": 1,
                  "tag": "strag", "scratch_dir": str(tmp_path / "markers")}
        handle, client = serve_factory(
            backend="pool", jobs=2, hedge_ms=100,
            cache_dir=str(tmp_path / "hedged"),
        )
        runner = handle.app.dispatcher.runner
        assert runner.backend.wait_for_workers(2, timeout_s=30.0) == 2
        start = time.perf_counter()
        status, _, body = client.submit("straggler", params, wait=True)
        elapsed_s = time.perf_counter() - start
        assert status == 200
        run = body["runs"][0]
        assert run["status"] == "succeeded"
        assert elapsed_s < params["slow_s"] / 2
        assert (runner.hedges_launched, runner.hedges_won) == (1, 1)
        # The losing primary is cancelled (its worker killed), and no
        # second result reaches the coalescer.
        wait_until(lambda: runner.active() == 0)
        assert handle.app.metrics.counter("serve.completed").value == 1

        _, plain = serve_factory(cache_dir=str(tmp_path / "plain"))
        status, _, unhedged = plain.submit("straggler", params, wait=True)
        assert status == 200
        assert unhedged["runs"][0]["result"] == run["result"]


    def test_metrics_show_the_hedge_counters(self, serve_factory, tmp_path):
        # The wrapper counts on the app registry, which /metrics
        # exports, not on the session registry a server never enables.
        params = {"base_s": 0.02, "slow_s": 3.0, "slow_every": 1,
                  "tag": "counted", "scratch_dir": str(tmp_path / "markers")}
        handle, client = serve_factory(
            backend="pool", jobs=2, hedge_ms=100,
            cache_dir=str(tmp_path / "hedged"),
        )
        assert handle.app.dispatcher.runner.backend.wait_for_workers(
            2, timeout_s=30.0) == 2
        status, _, _ = client.submit("straggler", params, wait=True)
        assert status == 200
        wait_until(lambda: handle.app.coalescer.live_entries() == 0)
        scraped = client.metrics_text()
        assert "repro_exec_router_hedge_launched_total 1" in scraped
        assert "repro_exec_router_hedge_won_total 1" in scraped


class TestSelftest:
    def test_selftest_passes_serial(self, tmp_path):
        assert selftest(backend="serial", cache_dir=str(tmp_path / "c")) == 0


class TestRetiredLinger:
    def test_cli_rejects_linger_flag(self):
        with pytest.raises(SystemExit) as exc_info:
            main(["--linger-ms", "2"])
        assert exc_info.value.code == 2

    def test_build_app_rejects_linger(self):
        with pytest.raises(TypeError):
            build_app(linger_ms=2)


class TestCliNumbers:
    @pytest.mark.parametrize("flag", ["--timeout", "--hedge-ms"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-1", "0", "x"])
    def test_timeout_and_hedge_must_be_finite_positive_numbers(
        self, flag, value, capsys
    ):
        with pytest.raises(SystemExit) as exc_info:
            main(["--selftest", flag, value])
        assert exc_info.value.code == 2
        assert "must be a finite number > 0" in capsys.readouterr().err


class TestWorkloadValidation:
    def test_design_point_identity_is_param_canonical(self):
        a = design_point("spin", {"b": 1, "a": 2})
        b = design_point("spin", {"a": 2, "b": 1})
        assert a.design_id == b.design_id

    def test_spin_bounds(self):
        try:
            run_spin({"duration_s": 100})
        except ValueError:
            pass
        else:  # pragma: no cover
            raise AssertionError("expected ValueError")
