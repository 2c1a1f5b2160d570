"""Watchdog supervision, crash classification, and progress-aware retry.

The resilience contract for the execution layer (PR4):

* a worker that dies without reporting is classified ``crash``
  immediately — never waiting out the wall-clock timeout (the
  child-death race regression);
* a worker that has heartbeated and then goes silent is classified
  ``hung`` and killed well before the wall-clock timeout;
* an attempt that advanced the job's progress high-water mark before
  failing is resumed for *free* — the retry budget meters lost
  progress, not attempts.
"""

import os
import time

from repro.exec import (
    ExecutionEngine,
    Job,
    JobGraph,
    ResultCache,
    SerialRunner,
    make_backend,
)
from repro.exec.heartbeat import heartbeat
from repro.exec.runners import ATTEMPT_HUNG
from repro.resilience import JobCheckpointStore


def crashing_job():
    os._exit(7)  # dies before sending any frame: the death-race case


def close_then_exit_job():
    """Closes every socket the worker holds, then exits a moment later:
    the coordinator sees the connection drop before the process is gone."""
    import gc
    import socket

    for obj in gc.get_objects():
        if isinstance(obj, socket.socket):
            obj.close()
    time.sleep(0.2)
    os._exit(7)


def beating_job():
    for step in (0.25, 0.5, 1.0):
        heartbeat(step)
    return {"done": True}


def beat_then_hang_job():
    heartbeat(1.0)
    time.sleep(30)  # goes silent: the watchdog must catch this


def silent_hang_job():
    time.sleep(30)  # never beats: must get timeout semantics, not hung


def hang_once_job(config):
    """Checkpoints per rep; hangs (silently) once, mid-run.

    First attempt: beats rep 1, saves it, then sleeps — the watchdog
    kills it.  Second attempt (fresh worker): resumes from the saved
    rep and completes.  End-to-end this is watchdog detect -> kill ->
    free resume from durable checkpoint.
    """
    store = JobCheckpointStore(config["ckpt_dir"])
    done = store.load("cell") or 0
    marker = os.path.join(config["ckpt_dir"], "hung.marker")
    for rep in range(done, 3):
        heartbeat(float(rep + 1))
        store.save("cell", rep + 1)
        if not os.path.exists(marker):
            with open(marker, "w", encoding="utf-8") as fh:
                fh.write("hung\n")
            time.sleep(30)
    return {"reps": 3}


def _drain(runner, timeout_s=15.0):
    deadline = time.monotonic() + timeout_s
    done = []
    while runner.active() and time.monotonic() < deadline:
        done.extend(runner.poll())
        time.sleep(0.005)
    done.extend(runner.poll())
    return done


class TestDeathRace:
    def test_crash_classified_immediately_not_at_timeout(self):
        """A worker dead before its first frame is a ``crash`` with its
        exit code as soon as its connection drops — not a 30s wait for
        the wall-clock deadline."""
        runner = make_backend("pool", 1)
        start = time.monotonic()
        runner.submit(Job(id="a", fn=crashing_job), None, 30.0)
        (attempt,) = _drain(runner)
        wall = time.monotonic() - start
        assert attempt.status == "crash"
        assert "exited with code 7" in attempt.error
        assert wall < 5.0  # nowhere near the 30s timeout
        runner.shutdown()

    def test_exit_after_the_liveness_sample_reports_the_exit_code(self):
        """The race's other order: the connection closes while the
        worker process is still alive, and it exits only afterwards.
        The crash must still carry the exit code."""
        runner = make_backend("pool", 1)
        runner.submit(Job(id="a", fn=close_then_exit_job), None, 30.0)
        (attempt,) = _drain(runner)
        assert attempt.status == "crash"
        assert "exited with code 7" in attempt.error
        runner.shutdown()


class TestHeartbeats:
    def test_pool_runner_receives_beats(self):
        runner = make_backend("pool", 1)
        runner.submit(Job(id="a", fn=beating_job), None, None)
        (attempt,) = _drain(runner)
        assert attempt.ok
        assert attempt.heartbeats == 3
        assert attempt.progress == 1.0
        runner.shutdown()

    def test_serial_runner_records_beats(self):
        """Serial can't preempt, but progress accounting must agree
        with the pool backend so retry policy is backend-independent."""
        runner = SerialRunner()
        runner.submit(Job(id="a", fn=beating_job), None, None)
        (attempt,) = runner.poll()
        assert attempt.ok
        assert attempt.heartbeats == 3
        assert attempt.progress == 1.0


class TestHangDetection:
    def test_silent_beater_killed_fast(self):
        """Detect+kill latency must be a small fraction (< 25%) of the
        wall-clock timeout — the whole point of the watchdog."""
        timeout_s = 40.0
        runner = make_backend("pool", 1)
        start = time.monotonic()
        runner.submit(
            Job(id="a", fn=beat_then_hang_job), None, timeout_s,
            hang_timeout_s=0.5,
        )
        (attempt,) = _drain(runner)
        wall = time.monotonic() - start
        assert attempt.status == ATTEMPT_HUNG
        assert attempt.progress == 1.0
        assert "no heartbeat" in attempt.error
        assert wall < timeout_s * 0.25
        assert runner.active() == 0  # worker actually killed
        runner.shutdown()

    def test_never_beating_job_is_not_watchdogged(self):
        """Jobs that never beat keep plain timeout semantics: silence
        from a non-participant is not evidence of a hang."""
        runner = make_backend("pool", 1)
        runner.submit(
            Job(id="a", fn=silent_hang_job), None, 0.3, hang_timeout_s=0.1
        )
        (attempt,) = _drain(runner)
        assert attempt.status == "timeout"
        runner.shutdown()


# Module-level mutable state for the serial-runner engine tests (the
# engine re-invokes the same fn in-process on retry).
_FLAKY_CALLS = {"n": 0}
_TREADMILL_CALLS = {"n": 0}


def flaky_after_progress_job():
    _FLAKY_CALLS["n"] += 1
    heartbeat(1.0)
    if _FLAKY_CALLS["n"] == 1:
        raise RuntimeError("worker lost after checkpoint")
    return {"ok": True}


def treadmill_job():
    """Always advances progress, always fails: must hit max_resumes."""
    _TREADMILL_CALLS["n"] += 1
    heartbeat(float(_TREADMILL_CALLS["n"]))
    raise RuntimeError("always fails")


class TestProgressAwareRetry:
    def test_progress_backed_failure_resumes_for_free(self):
        """retries=0, yet the job succeeds: the first attempt beat
        progress before dying, so its retry is free (not charged)."""
        _FLAKY_CALLS["n"] = 0
        graph = JobGraph()
        graph.add(Job(id="a", fn=flaky_after_progress_job, retries=0))
        engine = ExecutionEngine(runner=SerialRunner(), backoff_s=0.0)
        report = engine.run(graph)
        record = report.records["a"]
        assert record.ok
        assert record.attempts == 2
        assert record.resumes == 1

    def test_max_resumes_caps_the_treadmill(self):
        """A job that inches forward forever cannot pin the sweep."""
        _TREADMILL_CALLS["n"] = 0
        graph = JobGraph()
        graph.add(Job(id="a", fn=treadmill_job, retries=0))
        engine = ExecutionEngine(
            runner=SerialRunner(), backoff_s=0.0, max_resumes=2
        )
        report = engine.run(graph)
        record = report.records["a"]
        assert record.status.value == "failed"
        assert record.resumes == 2
        assert record.attempts == 3  # 1 initial + 2 free resumes

    def test_no_progress_failure_charges_retry_budget(self):
        """Failures without any heartbeat stay on the charged path."""
        graph = JobGraph()

        def always_fails():
            raise RuntimeError("no beat, no mercy")

        graph.add(Job(id="a", fn=always_fails, retries=1))
        engine = ExecutionEngine(runner=SerialRunner(), backoff_s=0.0)
        report = engine.run(graph)
        record = report.records["a"]
        assert record.status.value == "failed"
        assert record.attempts == 2  # initial + 1 charged retry
        assert record.resumes == 0


def checkpoint_echo_job(config):
    return {"checkpoint_path": config.get("checkpoint_path")}


class TestCheckpointInjection:
    def test_checkpoint_path_injected_for_declared_jobs(self, tmp_path):
        graph = JobGraph()
        graph.add(Job(
            id="cell/1", fn=checkpoint_echo_job, config={},
            checkpoint_key="checkpoint_path",
        ))
        engine = ExecutionEngine(
            runner=SerialRunner(), checkpoint_root=str(tmp_path)
        )
        report = engine.run(graph)
        path = report.records["cell/1"].result["checkpoint_path"]
        assert path == os.path.join(str(tmp_path), "cell_1")  # sanitized

    def test_no_injection_without_checkpoint_key(self, tmp_path):
        graph = JobGraph()
        graph.add(Job(id="a", fn=checkpoint_echo_job, config={}))
        engine = ExecutionEngine(
            runner=SerialRunner(), checkpoint_root=str(tmp_path)
        )
        report = engine.run(graph)
        assert report.records["a"].result["checkpoint_path"] is None

    def test_checkpoint_path_not_in_cache_key(self, tmp_path):
        """Moving the checkpoint root must not change cache identity:
        a run with root B gets a warm hit on a result cached under
        root A."""
        def run_with_root(root):
            graph = JobGraph()
            graph.add(Job(
                id="a", fn=checkpoint_echo_job, config={"x": 1},
                checkpoint_key="checkpoint_path",
            ))
            engine = ExecutionEngine(
                runner=SerialRunner(),
                cache=ResultCache(str(tmp_path / "cache")),
                checkpoint_root=str(root),
            )
            return engine.run(graph).records["a"]

        cold = run_with_root(tmp_path / "rootA")
        warm = run_with_root(tmp_path / "rootB")
        assert not cold.cached
        assert warm.cached
        assert warm.cache_key == cold.cache_key


class TestWatchdogResumeIntegration:
    def test_hang_kill_resume_completes_from_checkpoint(self, tmp_path):
        """Full loop: worker beats, checkpoints rep 1, goes silent;
        watchdog kills it as ``hung``; the engine grants a free resume
        (retries=0); the fresh worker resumes from the durable
        checkpoint and finishes — all well under the wall timeout."""
        graph = JobGraph()
        graph.add(Job(
            id="sweep", fn=hang_once_job,
            config={"ckpt_dir": str(tmp_path)},
            timeout_s=60.0, retries=0,
        ))
        engine = ExecutionEngine(
            runner=make_backend("pool", 1),
            hang_timeout_s=0.5,
            backoff_s=0.0,
        )
        start = time.monotonic()
        report = engine.run(graph)
        wall = time.monotonic() - start
        record = report.records["sweep"]
        assert record.ok
        assert record.result == {"reps": 3}
        assert record.resumes == 1
        assert record.attempts == 2
        assert wall < 15.0  # nowhere near the 30s hang or 60s timeout
