"""Admission-control edge cases: shedding, re-admission, bad input.

The ISSUE's contract: queue-full shedding returns 429 with Retry-After,
saturation followed by drain re-admits, and malformed JSON / unknown
ids return 400/404 without killing the server loop.
"""

from __future__ import annotations

import pytest

from repro.serve.admission import AdmissionController, QueueFull

from .conftest import wait_until


class TestAdmissionController:
    def test_queue_bound_sheds(self):
        adm = AdmissionController(max_queue=2, max_inflight=1)
        adm.try_admit("a")
        adm.try_admit("b")
        with pytest.raises(QueueFull) as exc_info:
            adm.try_admit("c")
        assert exc_info.value.retry_after_s > 0
        assert adm.shed == 1
        assert adm.admitted == 2

    def test_retry_after_scales_with_backlog(self):
        adm = AdmissionController(max_queue=4, max_inflight=1, retry_after_s=0.5)
        for entry in "abcd":
            adm.try_admit(entry)
        assert adm.next_ready() == "a"
        adm.try_admit("e")  # pop freed one slot: re-admitted
        with pytest.raises(QueueFull) as exc_info:
            adm.try_admit("f")
        # 4 queued + 1 in flight over capacity 1 -> 5x the base hint.
        assert exc_info.value.retry_after_s == pytest.approx(0.5 * 5)

    def test_max_inflight_limits_dispatch(self):
        adm = AdmissionController(max_queue=8, max_inflight=2)
        for entry in "abc":
            adm.try_admit(entry)
        assert adm.next_ready() == "a"
        assert adm.next_ready() == "b"
        assert adm.next_ready() is None  # saturated
        adm.release()
        assert adm.next_ready() == "c"

    def test_drain_reopens_admission(self):
        adm = AdmissionController(max_queue=1, max_inflight=1)
        adm.try_admit("a")
        with pytest.raises(QueueFull):
            adm.try_admit("b")
        assert adm.next_ready() == "a"
        adm.release()
        adm.try_admit("b")  # queue drained: admitted again
        assert adm.depth() == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            AdmissionController(max_queue=0)
        with pytest.raises(ValueError):
            AdmissionController(max_inflight=0)
        with pytest.raises(ValueError):
            AdmissionController(retry_after_s=0)


class TestHttpShedding:
    def test_queue_full_returns_429_with_retry_after_then_readmits(
        self, serve_factory
    ):
        handle, client = serve_factory(max_queue=1, max_inflight=1)
        app = handle.app
        # Occupy the backend with a slow point, then fill the queue.
        status, _, first = client.submit("spin", {"duration_s": 0.4, "tag": "hold"})
        assert status == 202
        wait_until(lambda: app.admission.inflight() == 1)
        status, _, _ = client.submit("spin", {"duration_s": 0.01, "tag": "q"})
        assert status == 202
        # Queue now holds one entry: the next distinct point is shed.
        status, headers, body = client.submit(
            "spin", {"duration_s": 0.01, "tag": "shed-me"}
        )
        assert status == 429
        assert int(headers["retry-after"]) >= 1
        assert "error" in body
        # ...but a duplicate of in-flight work still coalesces: no 429.
        status, _, dup = client.submit("spin", {"duration_s": 0.4, "tag": "hold"})
        assert status == 202
        assert dup["runs"][0]["coalesced"] is True
        # Saturation then drain: once the backlog clears, the same shed
        # point is admitted and completes.
        wait_until(app.dispatcher.idle, timeout_s=15.0)
        status, _, body = client.submit(
            "spin", {"duration_s": 0.01, "tag": "shed-me"}, wait=True
        )
        assert status == 200
        assert body["runs"][0]["status"] == "succeeded"
        metrics = client.metrics_text()
        assert "repro_serve_shed_total 1" in metrics

    def test_bad_requests_do_not_kill_the_server(self, serve_factory):
        _, client = serve_factory()
        status, _, body = client.request(
            "POST", "/v1/experiments", payload=None
        )
        assert status == 400  # empty body is malformed JSON
        conn_status, _, _ = client.request("GET", "/v1/runs/run-404404")
        assert conn_status == 404
        status, _, _ = client.request("GET", "/no/such/route")
        assert status == 404
        status, _, _ = client.request("GET", "/v1/experiments")
        assert status == 405
        status, _, body = client.submit("no-such-workload", {})
        assert status == 400
        assert "unknown workload" in body["error"]
        status, _, body = client.submit("experiment", {"id": "E99"})
        assert status == 400
        status, _, body = client.submit("spin", {"duration_s": 999})
        # Validation inside the workload fails the *run*, not the server.
        assert status in (200, 202, 400)
        # After all that abuse the loop still serves.
        assert client.healthz()["status"] == "ok"
        status, _, body = client.submit("spin", {"duration_s": 0.01}, wait=True)
        assert status == 200
        assert body["runs"][0]["status"] == "succeeded"

    def test_malformed_json_body(self, serve_factory):
        import http.client

        handle, client = serve_factory()
        host, port = handle.address
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            conn.request(
                "POST", "/v1/experiments", body=b"{not json",
                headers={"Content-Type": "application/json"},
            )
            resp = conn.getresponse()
            assert resp.status == 400
            assert b"malformed JSON" in resp.read()
        finally:
            conn.close()
        assert client.healthz()["status"] == "ok"

    def test_bad_repetitions_and_sweep_shapes(self, serve_factory):
        _, client = serve_factory()
        status, _, _ = client.submit("spin", {}, repetitions="many")
        assert status == 400
        status, _, _ = client.submit("spin", {}, repetitions=0)
        assert status == 400
        status, _, _ = client.submit("spin", {}, sweep="nope")
        assert status == 400
        status, _, _ = client.request("POST", "/v1/experiments", {"workload": 7})
        assert status == 400
