"""Tests for the serial runner and the ``pool`` backend (spawned socket workers)."""

import os
import time

import pytest

from repro.exec import Job, Runner, SerialRunner, make_backend


def ok_job():
    return {"value": 42}


def config_job(config):
    return {"doubled": config["x"] * 2}


def raising_job():
    raise RuntimeError("injected fault")


def hanging_job():
    time.sleep(30)


def crashing_job():
    os._exit(7)  # simulates a segfault / OOM kill: no exception, no result


def unpicklable_result_job():
    return lambda: None


def lingering_job():
    """Returns promptly but leaves a non-daemon thread running in the
    worker well after the result is sent."""
    import threading

    threading.Thread(target=time.sleep, args=(2.0,), daemon=False).start()
    return {"value": 1}


def _drain(runner, timeout_s=10.0):
    """Poll until every submitted attempt is reaped."""
    deadline = time.monotonic() + timeout_s
    done = []
    while runner.active() and time.monotonic() < deadline:
        done.extend(runner.poll())
        time.sleep(0.005)
    done.extend(runner.poll())
    return done


class TestSerialRunner:
    def test_protocol_conformance(self):
        assert isinstance(SerialRunner(), Runner)
        pool = make_backend("pool", 1)
        assert isinstance(pool, Runner)
        pool.shutdown()

    def test_success(self):
        runner = SerialRunner()
        runner.submit(Job(id="a", fn=ok_job), None, None)
        (attempt,) = runner.poll()
        assert attempt.ok and attempt.result == {"value": 42}
        assert runner.poll() == []

    def test_config_passed(self):
        runner = SerialRunner()
        runner.submit(Job(id="a", fn=config_job), {"x": 3}, None)
        (attempt,) = runner.poll()
        assert attempt.result == {"doubled": 6}

    def test_error_contained(self):
        runner = SerialRunner()
        runner.submit(Job(id="a", fn=raising_job), None, None)
        (attempt,) = runner.poll()
        assert attempt.status == "error"
        assert "injected fault" in attempt.error

    def test_post_hoc_timeout(self):
        """Serial can't interrupt; an overrun is classified after the fact."""
        runner = SerialRunner()
        runner.submit(Job(id="a", fn=lambda: time.sleep(0.05)), None, 0.01)
        (attempt,) = runner.poll()
        assert attempt.status == "timeout"

    def test_closures_allowed(self):
        """The serial fallback must handle unpicklable callables."""
        captured = {"x": 5}
        runner = SerialRunner()
        runner.submit(Job(id="a", fn=lambda: captured["x"]), None, None)
        (attempt,) = runner.poll()
        assert attempt.result == 5


class TestPoolBackend:
    def test_bad_worker_count_rejected(self):
        from repro.exec.backends import PoolBackend

        with pytest.raises(ValueError):
            PoolBackend(0)

    def test_success_roundtrip(self):
        runner = make_backend("pool", 2)
        runner.submit(Job(id="a", fn=config_job), {"x": 21}, None)
        (attempt,) = _drain(runner)
        assert attempt.ok and attempt.result == {"doubled": 42}
        runner.shutdown()

    def test_worker_error_contained(self):
        runner = make_backend("pool", 1)
        runner.submit(Job(id="a", fn=raising_job), None, None)
        (attempt,) = _drain(runner)
        assert attempt.status == "error"
        assert "injected fault" in attempt.error
        runner.shutdown()

    def test_worker_crash_contained(self):
        """A worker dying without reporting must not raise in the parent,
        and its replacement runs the next job."""
        runner = make_backend("pool", 1)
        runner.submit(Job(id="a", fn=crashing_job), None, None)
        (attempt,) = _drain(runner)
        assert attempt.status == "crash"
        runner.submit(Job(id="b", fn=ok_job), None, None)
        (attempt,) = _drain(runner)
        assert attempt.ok and attempt.result == {"value": 42}
        runner.shutdown()

    def test_hung_worker_terminated_on_timeout(self):
        runner = make_backend("pool", 1)
        start = time.monotonic()
        runner.submit(Job(id="a", fn=hanging_job), None, 0.3)
        (attempt,) = _drain(runner)
        assert attempt.status == "timeout"
        assert time.monotonic() - start < 10.0  # nowhere near the 30s sleep
        assert runner.active() == 0
        runner.shutdown()

    def test_unpicklable_result_reported_as_error(self):
        runner = make_backend("pool", 1)
        runner.submit(Job(id="a", fn=unpicklable_result_job), None, None)
        (attempt,) = _drain(runner)
        assert attempt.status == "error"
        assert "not transferable" in attempt.error
        runner.shutdown()

    def test_capacity_accounting(self):
        runner = make_backend("pool", 2)
        assert runner.capacity() == 2
        runner.submit(Job(id="a", fn=hanging_job), None, 5.0)
        assert runner.capacity() == 1 and runner.active() == 1
        with pytest.raises(RuntimeError):
            runner.submit(Job(id="a", fn=ok_job), None, None)  # duplicate id
        runner.shutdown()
        assert runner.active() == 0

    def test_overcommit_rejected(self):
        runner = make_backend("pool", 1)
        runner.submit(Job(id="a", fn=hanging_job), None, 5.0)
        with pytest.raises(RuntimeError):
            runner.submit(Job(id="b", fn=ok_job), None, None)
        runner.shutdown()

    def test_lingering_child_does_not_block_poll(self):
        """A job that leaves a thread running in its worker after
        sending its result must not stall poll() or hold its slot."""
        runner = make_backend("pool", 1)
        runner.submit(Job(id="a", fn=lingering_job), None, None)
        (attempt,) = _drain(runner)
        assert attempt.ok and attempt.result == {"value": 1}
        assert runner.capacity() == 1
        start = time.monotonic()
        runner.submit(Job(id="b", fn=ok_job), None, None)
        (attempt,) = _drain(runner)
        assert attempt.ok
        assert time.monotonic() - start < 1.0  # the thread lingers ~2s
        runner.shutdown()

    def test_parallel_workers_overlap(self):
        """4 sleep-bound jobs on 4 workers finish ~concurrently."""
        runner = make_backend("pool", 4)
        assert runner.wait_for_workers(4) == 4
        start = time.monotonic()
        for i in range(4):
            runner.submit(Job(id=f"j{i}", fn=sleep_job), {"s": 0.25}, None)
        attempts = _drain(runner)
        wall = time.monotonic() - start
        assert len(attempts) == 4 and all(a.ok for a in attempts)
        assert wall < 0.25 * 4 * 0.8  # clearly faster than serial
        runner.shutdown()

    def test_cancel_kills_the_worker_and_frees_its_slot(self):
        """Cancelling a running attempt kills its worker (a hedge loser
        stops holding a slot) and the replacement takes the next job;
        the cancelled attempt never appears in poll()."""
        runner = make_backend("pool", 1)
        assert runner.wait_for_workers(1) == 1
        runner.submit(Job(id="a", fn=hanging_job), None, 30.0)
        (victim,) = runner.spawned_processes()
        assert runner.cancel("a")
        assert runner.capacity() == 1 and runner.active() == 0
        victim.join(5.0)
        assert not victim.is_alive()
        runner.submit(Job(id="b", fn=ok_job), None, None)
        done = _drain(runner)
        assert [a.job_id for a in done] == ["b"] and done[0].ok
        runner.shutdown()

    def test_cancel_on_socket_worker_abandons_cooperatively(self):
        """Without respawn, a cancelled job's worker finishes it and
        lives on; only the result is dropped."""
        from repro.exec.backends import SocketWorkerBackend

        runner = SocketWorkerBackend(spawn=1)
        assert runner.wait_for_workers(1) == 1
        runner.submit(Job(id="a", fn=sleep_job), {"s": 0.2}, None)
        (worker,) = runner.spawned_processes()
        assert runner.cancel("a")
        runner.submit(Job(id="b", fn=ok_job), None, None)
        done = _drain(runner)
        assert [a.job_id for a in done] == ["b"] and done[0].ok
        assert worker.is_alive()
        runner.shutdown()

    def test_more_crashes_than_the_respawn_budget_complete(self):
        """Every worker lost to its job is replaced, past max_respawns:
        a sweep with more crashing attempts than the budget finishes.
        Four workers (more than a small CI host's cores) lose and
        respawn concurrently; every attempt must still be reported."""
        runner = make_backend("pool", 4)
        n = runner.max_respawns + 6
        attempts = []
        for i in range(n):
            while runner.capacity() == 0:
                attempts.extend(runner.poll())
                time.sleep(0.002)
            runner.submit(Job(id=f"c{i}", fn=crashing_job), None, 30.0)
        attempts.extend(_drain(runner, timeout_s=60.0))
        assert len(attempts) == n
        assert all(a.status == "crash" for a in attempts)
        assert runner.respawns >= n
        runner.submit(Job(id="after", fn=ok_job), None, None)
        (attempt,) = _drain(runner)
        assert attempt.ok
        runner.shutdown()


def sleep_job(config):
    time.sleep(config["s"])
    return {"slept": config["s"]}
