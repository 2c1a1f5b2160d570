"""Tests for the elastic socket-worker backend.

Worker processes are real (forked, speaking the framed TCP protocol
over loopback), so these tests exercise the same machinery as
``--backend socket`` — including the mid-sweep worker-kill path that
the checkpoint/resume stack makes free.
"""

import os
import time

import pytest

from repro.exec import ExecutionEngine, Job, JobGraph, JobStatus
from repro.exec.backends.socket_worker import (
    SocketWorkerBackend,
    spawn_local_worker,
)
from repro.exec.heartbeat import heartbeat


def value_job(config):
    return {"value": config["x"] * 2}


def raising_job():
    raise RuntimeError("injected fault")


def slow_beating_job(config):
    for step in range(20):
        heartbeat(progress=float(step))
        time.sleep(0.05)
    return {"steps": 20}


def checkpointing_job(config):
    """Resumable work: progress survives worker death via a file."""
    path = config["checkpoint_path"]
    os.makedirs(os.path.dirname(path), exist_ok=True)
    done = 0
    if os.path.exists(path):
        with open(path) as fh:
            done = int(fh.read().strip() or 0)
    for step in range(done, config["steps"]):
        heartbeat(progress=float(step + 1))
        time.sleep(0.03)
        with open(path, "w") as fh:
            fh.write(str(step + 1))
    return {"steps": config["steps"]}


def unpicklable_result_job():
    return lambda: None


@pytest.fixture()
def backend():
    b = SocketWorkerBackend(spawn=2)
    yield b
    b.shutdown()


def _run(backend, graph, **engine_kwargs):
    engine = ExecutionEngine(runner=backend, **engine_kwargs)
    return engine.run(graph)


class TestSocketSweep:
    def test_sweep_completes_across_two_workers(self, backend):
        graph = JobGraph()
        for i in range(8):
            graph.add(Job(id=f"j{i}", fn=value_job, config={"x": i}))
        report = _run(backend, graph)
        assert report.ok
        assert report.backend == "socket"
        assert report["j3"].result == {"value": 6}

    def test_job_error_is_contained(self, backend):
        graph = JobGraph()
        graph.add(Job(id="good", fn=value_job, config={"x": 1}))
        graph.add(Job(id="bad", fn=raising_job))
        report = _run(backend, graph)
        assert report["good"].status is JobStatus.SUCCEEDED
        assert report["bad"].status is JobStatus.FAILED
        assert "injected fault" in report["bad"].error

    def test_unpicklable_submit_fails_that_job_only(self, backend):
        graph = JobGraph()
        graph.add(Job(id="ok", fn=value_job, config={"x": 1}))
        graph.add(Job(id="closure", fn=lambda config: 1))
        report = _run(backend, graph)
        assert report["ok"].status is JobStatus.SUCCEEDED
        assert report["closure"].status is JobStatus.FAILED
        assert "submit failed" in report["closure"].error

    def test_unpicklable_result_reported_not_hung(self, backend):
        graph = JobGraph()
        graph.add(Job(id="j", fn=unpicklable_result_job))
        report = _run(backend, graph)
        assert report["j"].status is JobStatus.FAILED
        assert "not transferable" in report["j"].error

    def test_elastic_late_join(self):
        # Start with zero workers; one joins after jobs are queued.
        backend = SocketWorkerBackend(spawn=0, no_worker_timeout_s=20.0)
        try:
            graph = JobGraph()
            for i in range(3):
                graph.add(Job(id=f"j{i}", fn=value_job, config={"x": i}))
            late = []

            class LateJoiner:
                """Engine-facing runner shim that attaches a worker late."""

                def __getattr__(self, name):
                    return getattr(backend, name)

                def poll(self):
                    if not late:
                        late.append(spawn_local_worker(backend.address))
                    return backend.poll()

            report = ExecutionEngine(runner=LateJoiner()).run(graph)
            assert report.ok
            assert backend.workers_joined >= 1
        finally:
            backend.shutdown()

    def test_heartbeats_reach_coordinator(self, backend):
        graph = JobGraph()
        graph.add(Job(id="j", fn=slow_beating_job, config={}))
        engine = ExecutionEngine(runner=backend, hang_timeout_s=5.0)
        report = engine.run(graph)
        assert report.ok


class TestWorkerDeath:
    def test_killed_worker_job_resumes_free(self, tmp_path):
        """Kill the busy worker mid-job: checkpoint resume loses nothing."""
        backend = SocketWorkerBackend(spawn=2)
        try:
            graph = JobGraph()
            graph.add(Job(
                id="resumable",
                fn=checkpointing_job,
                config={"steps": 30},
                checkpoint_key="checkpoint_path",
                retries=0,  # only the free (progress-backed) resume path
            ))

            killed = []
            # The engine hands the job this path (checkpoint_root/<id>).
            progress_file = tmp_path / "resumable"

            def checkpointed_steps():
                try:
                    return int(progress_file.read_text().strip() or 0)
                except (OSError, ValueError):
                    return 0

            class Assassin:
                """Runner shim: kill a busy spawned worker once.

                Only after the job checkpointed a step: its progress
                heartbeat has then gone out, so the resume is free.  A
                kill before the first heartbeat is (correctly) a failed
                attempt with ``retries=0``, which is not this test.
                """

                def __getattr__(self, name):
                    return getattr(backend, name)

                def poll(self):
                    if not killed and checkpointed_steps() >= 1:
                        snapshot = backend.describe()
                        busy = [w for w in snapshot["workers"]
                                if w["busy_with"]]
                        if busy:
                            pid = busy[0]["pid"]
                            for proc in backend.spawned_processes():
                                if proc.pid == pid and proc.is_alive():
                                    proc.kill()
                                    killed.append(pid)
                    return backend.poll()

            engine = ExecutionEngine(
                runner=Assassin(),
                checkpoint_root=str(tmp_path),
                hang_timeout_s=10.0,
            )
            report = engine.run(graph)
            assert killed, "test never saw a busy worker to kill"
            assert report["resumable"].status is JobStatus.SUCCEEDED
            assert report["resumable"].resumes >= 1
            assert report["resumable"].result == {"steps": 30}
            assert backend.workers_lost >= 1
        finally:
            backend.shutdown()

    def test_no_workers_fails_fast_not_forever(self):
        backend = SocketWorkerBackend(spawn=0, no_worker_timeout_s=0.3)
        try:
            graph = JobGraph()
            graph.add(Job(id="j", fn=value_job, config={"x": 1}))
            start = time.perf_counter()
            report = ExecutionEngine(runner=backend).run(graph)
            elapsed = time.perf_counter() - start
            assert report["j"].status is JobStatus.FAILED
            assert "no socket workers" in report["j"].error
            assert elapsed < 10.0
        finally:
            backend.shutdown()


class TestIntrospection:
    def test_describe_and_wait(self, backend):
        assert backend.wait_for_workers(2, timeout_s=10.0) == 2
        snapshot = backend.describe()
        assert len(snapshot["workers"]) == 2
        assert snapshot["queued"] == 0
        assert snapshot["workers_joined"] == 2

    def test_capabilities_elastic(self, backend):
        assert backend.name == "socket"
        # Elastic: room in the queue, not the attached worker count.
        assert backend.capacity() == backend.max_queue
