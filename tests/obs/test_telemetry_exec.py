"""Cross-process telemetry through the exec pipeline.

The decisive property: the **same job** run by the in-process
SerialRunner and by a ``pool`` worker process must ship back the
byte-identical span stream, and the engine must merge per-job payloads
independently of pool scheduling order.
"""

import time

import pytest

from repro.core import instrument
from repro.core.events import Simulator
from repro.core.instrument import MetricsRegistry
from repro.exec import (
    ExecutionEngine,
    Job,
    JobGraph,
    SerialRunner,
    make_backend,
    run_jobs,
)
from repro.obs.spans import span_stream_digest
from repro.obs.telemetry import (
    TelemetryOptions,
    begin_worker,
    merge_job_telemetry,
    payload_spans,
)


def _sim_job(config):
    """A tiny kernel model: N no-op events + one counter + a histogram."""
    sim = Simulator()
    scope = sim.metrics.scoped("tel.job")
    n = config["n"]
    for i in range(n):
        sim.schedule(float(i + 1), _tick, i)
    sim.run()
    scope.counter("events").inc(n)
    scope.histogram("t").observe_many([float(i + 1) for i in range(n)])
    tracer = getattr(sim.metrics, "tracer", None)
    if tracer is not None:
        tracer.emit("tel.mark", 0.0, float(n), n=n)
    return {"n": n, "end": sim.now}


def _tick(sim, payload):
    pass


class TestWorkerScope:
    def test_fresh_session_installed_and_restored(self):
        outer = MetricsRegistry(enabled=True)
        prev = instrument.install_session(outer)
        try:
            scope = begin_worker(TelemetryOptions())
            assert instrument.current_session() is scope.registry
            assert instrument.current_session() is not outer
            payload = scope.finish()
            assert instrument.current_session() is outer
            assert payload["spans"] == [] and payload["spans_dropped"] == 0
        finally:
            instrument.install_session(prev)

    def test_double_finish_raises(self):
        scope = begin_worker(TelemetryOptions())
        scope.finish()
        with pytest.raises(RuntimeError):
            scope.finish()

    def test_simulators_born_in_scope_are_traced(self):
        scope = begin_worker(TelemetryOptions())
        try:
            result = _sim_job({"n": 5})
        finally:
            payload = scope.finish()
        assert result["n"] == 5
        names = [r.name for r in payload_spans(payload)]
        assert "kernel.run" in names and "tel.mark" in names
        assert payload["metrics"]["counters"]["tel.job.events"] == 5

    def test_foreign_registry_sim_stays_out_of_capture(self):
        scope = begin_worker(TelemetryOptions())
        try:
            own = Simulator(metrics=MetricsRegistry(enabled=True))
            own.schedule(1.0, _tick)
            own.run()
        finally:
            payload = scope.finish()
        assert payload_spans(payload) == []

    def test_profiler_capture(self):
        scope = begin_worker(TelemetryOptions(profile_period=1))
        try:
            _sim_job({"n": 7})
        finally:
            payload = scope.finish()
        assert sum(payload["profile"].values()) == 7

    def test_trace_disabled_still_ships_metrics(self):
        scope = begin_worker(TelemetryOptions(trace=False))
        try:
            _sim_job({"n": 2})
        finally:
            payload = scope.finish()
        assert payload["spans"] == []
        assert payload["metrics"]["counters"]["tel.job.events"] == 2


def _run_one(runner, options):
    runner.submit(Job(id="j", fn=_sim_job, config={"n": 6}),
                  {"n": 6}, None, telemetry=options)
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        done = runner.poll()
        if done:
            return done[0]
        time.sleep(0.005)
    raise AssertionError("attempt did not complete")


class TestRunners:
    def test_serial_attempt_carries_payload(self):
        attempt = _run_one(SerialRunner(), TelemetryOptions())
        assert attempt.status == "ok"
        assert attempt.telemetry is not None
        assert any(r.name == "tel.mark"
                   for r in payload_spans(attempt.telemetry))

    def test_pool_attempt_carries_payload(self):
        runner = make_backend("pool", 1)
        try:
            attempt = _run_one(runner, TelemetryOptions())
        finally:
            runner.shutdown()
        assert attempt.status == "ok"
        assert attempt.telemetry is not None

    def test_serial_and_pool_span_streams_identical(self):
        serial = _run_one(SerialRunner(), TelemetryOptions())
        runner = make_backend("pool", 1)
        try:
            pooled = _run_one(runner, TelemetryOptions())
        finally:
            runner.shutdown()
        assert (span_stream_digest(payload_spans(serial.telemetry))
                == span_stream_digest(payload_spans(pooled.telemetry)))
        assert serial.telemetry["metrics"] == pooled.telemetry["metrics"]

    def test_no_telemetry_means_no_payload(self):
        runner = SerialRunner()
        runner.submit(Job(id="j", fn=_sim_job, config={"n": 1}), {"n": 1}, None)
        (attempt,) = runner.poll()
        assert attempt.telemetry is None


class TestEngineMerge:
    def _graph(self, ns=(3, 5)):
        graph = JobGraph()
        for n in ns:
            graph.add(Job(id=f"j{n}", fn=_sim_job, config={"n": n}))
        return graph

    def test_report_telemetry_merged_in_sorted_job_order(self):
        report = run_jobs(self._graph(), telemetry=TelemetryOptions())
        merged = report.telemetry
        assert merged is not None
        assert sorted(merged["spans"]) == ["j3", "j5"]
        assert merged["metrics"]["counters"]["tel.job.events"] == 8
        assert merged["missing"] == []

    def test_serial_and_pool_reports_agree(self):
        serial = run_jobs(self._graph(), jobs=1,
                          telemetry=TelemetryOptions()).telemetry
        pooled = run_jobs(self._graph(), jobs=2,
                          telemetry=TelemetryOptions()).telemetry
        assert serial["metrics"] == pooled["metrics"]
        for jid in ("j3", "j5"):
            assert (span_stream_digest(payload_spans({"spans": serial["spans"][jid]}))
                    == span_stream_digest(payload_spans({"spans": pooled["spans"][jid]})))

    def test_exec_job_spans_emitted_on_session_tracer(self):
        from repro.obs.spans import Tracer

        registry = MetricsRegistry(enabled=True)
        registry.tracer = Tracer()
        prev = instrument.install_session(registry)
        try:
            engine = ExecutionEngine(runner=SerialRunner(),
                                     telemetry=TelemetryOptions())
            engine.run(self._graph())
        finally:
            instrument.install_session(prev)
        exec_spans = registry.tracer.sink.records("exec")
        assert sorted(dict(r.attrs)["job"] for r in exec_spans) == ["j3", "j5"]
        assert all(r.status == "ok" for r in exec_spans)
        assert all(dict(r.attrs)["job_status"] == "succeeded"
                   for r in exec_spans)

    def test_telemetry_off_leaves_report_field_none(self):
        assert run_jobs(self._graph()).telemetry is None

    def test_merge_job_telemetry_lists_missing_payloads(self):
        scope = begin_worker(TelemetryOptions())
        _sim_job({"n": 2})
        payload = scope.finish()
        merged = merge_job_telemetry({"b": payload, "a": None})
        assert merged["missing"] == ["a"]
        assert list(merged["spans"]) == ["b"]
