"""Backend-equivalence suite (satellite 3).

The whole point of the routed execution layer is that *where* a sweep
runs is an operational choice, not a scientific one: the same seeded
sweep must produce identical results, merged telemetry, and span
digests on the serial runner, the 2-worker pool, and a 2-worker socket
backend — also when the pool loses a worker mid-run.  ``RunReport.digest()`` pins exactly that, and these tests pin
``digest()``.

The model jobs are the observability CLI's (cluster / hedging / NoC /
harvest) — real simulators with canonical seeds, not toy lambdas.
"""

import os

import pytest

from repro.exec import Job, JobGraph, run_jobs
from repro.obs.cli import MODEL_JOBS, MODEL_SEEDS
from repro.obs.telemetry import TelemetryOptions

#: (backend name, jobs) cells every equivalence test sweeps over.
BACKENDS = [("serial", 1), ("pool", 2), ("socket", 2)]


def _graph():
    graph = JobGraph()
    for model in sorted(MODEL_JOBS):
        graph.add(Job(
            id=f"eq-{model}",
            fn=MODEL_JOBS[model],
            config={"seed": MODEL_SEEDS[model]},
        ))
    return graph


def _run(backend, jobs, telemetry=None):
    return run_jobs(_graph(), jobs=jobs, backend=backend,
                    telemetry=telemetry)


@pytest.fixture(scope="module")
def reports():
    """One sweep per backend, with full telemetry capture."""
    telemetry = TelemetryOptions(profile_period=0)
    return {
        name: _run(name, jobs, telemetry=telemetry)
        for name, jobs in BACKENDS
    }


class TestEquivalence:
    def test_all_backends_succeed(self, reports):
        for name, report in reports.items():
            assert report.ok, f"{name}: {report.one_line()}"
            assert report.backend == name

    def test_identical_result_rows(self, reports):
        serial = reports["serial"]
        for name, report in reports.items():
            for jid, record in serial.records.items():
                other = report[jid]
                assert other.status is record.status, (name, jid)
                assert other.result == record.result, (name, jid)

    def test_identical_merged_telemetry_metrics(self, reports):
        states = {
            name: report.telemetry["metrics"]
            for name, report in reports.items()
        }
        assert states["pool"] == states["serial"]
        assert states["socket"] == states["serial"]

    def test_identical_span_digests(self, reports):
        from repro.obs.spans import span_stream_digest
        from repro.obs.telemetry import payload_spans

        digests = {}
        for name, report in reports.items():
            digests[name] = {
                jid: span_stream_digest(payload_spans({"spans": spans}))
                for jid, spans in report.telemetry["spans"].items()
            }
        assert digests["pool"] == digests["serial"]
        assert digests["socket"] == digests["serial"]

    def test_report_digests_identical(self, reports):
        digests = {n: r.digest() for n, r in reports.items()}
        assert len(set(digests.values())) == 1, digests

    def test_no_telemetry_left_behind(self, reports):
        for name, report in reports.items():
            assert report.telemetry["missing"] == [], name


def _crash_once(config):
    """Kills its worker on the first attempt (no marker yet), then
    answers; with the marker already present it never crashes."""
    marker = config["marker"]
    if not os.path.exists(marker):
        with open(marker, "w", encoding="utf-8"):
            pass
        os._exit(9)
    return {"answered": True}


class TestWorkerLoss:
    def test_pool_losing_a_worker_mid_run_matches_serial(self, tmp_path):
        def run(backend, jobs, marker):
            graph = _graph()
            graph.add(Job(id="eq-crash-once", fn=_crash_once,
                          config={"marker": str(marker)}))
            return run_jobs(graph, jobs=jobs, backend=backend, retries=1,
                            telemetry=TelemetryOptions(profile_period=0))

        present = tmp_path / "present"
        present.touch()
        serial = run("serial", 1, present)
        pooled = run("pool", 2, tmp_path / "absent")
        assert serial.ok and pooled.ok, pooled.one_line()
        assert pooled["eq-crash-once"].attempts == 2  # a worker was lost
        assert pooled.digest() == serial.digest()


class TestDigestSensitivity:
    """digest() must change when results change — else it pins nothing."""

    def test_digest_differs_across_seeds(self):
        graph1 = JobGraph()
        graph1.add(Job(id="j", fn=MODEL_JOBS["hedging"],
                       config={"seed": 1}))
        graph2 = JobGraph()
        graph2.add(Job(id="j", fn=MODEL_JOBS["hedging"],
                       config={"seed": 2}))
        assert run_jobs(graph1).digest() != run_jobs(graph2).digest()

    def test_digest_ignores_wall_time(self):
        graph = JobGraph()
        graph.add(Job(id="j", fn=MODEL_JOBS["noc"], config={"seed": 5}))
        a, b = run_jobs(graph), run_jobs(graph)
        assert a.digest() == b.digest()  # wall clocks differ; digests don't


class TestArrayConsistency:
    """The array backend reports the same rows (it has no live
    telemetry channel, so only result rows are compared)."""

    def test_array_rows_match_serial(self, reports):
        array_report = run_jobs(_graph(), backend="array", jobs=2)
        serial = reports["serial"]
        assert array_report.ok
        for jid, record in serial.records.items():
            assert array_report[jid].result == record.result, jid
