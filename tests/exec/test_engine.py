"""Tests for the execution engine: scheduling, cache, retries, report."""

import errno
import os
import time

import pytest

from repro.core.instrument import MetricsRegistry
from repro.exec import (
    ExecutionEngine,
    Job,
    JobGraph,
    JobStatus,
    ResultCache,
    SerialRunner,
    make_backend,
    run_jobs,
)

_FLAKY_CALLS = {"n": 0}


def ok_job():
    return {"value": 1.0}


def config_echo(config):
    return dict(config)


def raising_job():
    raise ValueError("always fails")


def tuple_result_job():
    return {"pair": (1, 2)}


def hanging_job():
    time.sleep(30)


def flaky_job():
    """Fails on the first call, succeeds afterwards (serial runner only)."""
    _FLAKY_CALLS["n"] += 1
    if _FLAKY_CALLS["n"] < 2:
        raise RuntimeError("transient")
    return {"attempt": _FLAKY_CALLS["n"]}


def flaky_file_job(config):
    """Cross-process flaky job: fails until a marker file exists."""
    import pathlib

    marker = pathlib.Path(config["marker"])
    if marker.exists():
        return {"recovered": True}
    marker.write_text("tried once")
    raise RuntimeError("transient (first attempt)")


class TestEngineBasics:
    def test_all_succeed(self):
        graph = JobGraph([Job(id=f"j{i}", fn=ok_job) for i in range(3)])
        report = ExecutionEngine().run(graph)
        assert report.ok and len(report) == 3
        assert report.counts()["succeeded"] == 3
        assert report["j0"].attempts == 1

    def test_result_accessor(self):
        graph = JobGraph([Job(id="a", fn=ok_job), Job(id="b", fn=raising_job)])
        report = ExecutionEngine().run(graph)
        assert report.result("a") == {"value": 1.0}
        with pytest.raises(RuntimeError):
            report.result("b")

    def test_failure_contained_and_reported(self):
        graph = JobGraph([Job(id="bad", fn=raising_job), Job(id="good", fn=ok_job)])
        report = ExecutionEngine().run(graph)
        assert report["bad"].status is JobStatus.FAILED
        assert "always fails" in report["bad"].error
        assert report["good"].ok
        assert not report.ok

    def test_jobs_run_in_insertion_order(self):
        order_seen = []

        def track(config):
            order_seen.append(config["name"])
            return {}

        graph = JobGraph(
            Job(id=name, fn=track, config={"name": name})
            for name in ("late", "early", "middle")
        )
        report = ExecutionEngine().run(graph)
        assert report.ok
        assert order_seen == ["late", "early", "middle"]
        assert list(report.records) == order_seen

    def test_seed_injection_deterministic(self):
        graph = JobGraph(
            [Job(id="a", fn=config_echo, config={"x": 1}, seed_key="seed")]
        )
        first = ExecutionEngine(base_seed=7).run(graph).result("a")
        graph2 = JobGraph(
            [Job(id="a", fn=config_echo, config={"x": 1}, seed_key="seed")]
        )
        second = ExecutionEngine(base_seed=7).run(graph2).result("a")
        third = ExecutionEngine(base_seed=8).run(
            JobGraph([Job(id="a", fn=config_echo, config={"x": 1}, seed_key="seed")])
        ).result("a")
        assert first == second
        assert first["seed"] != third["seed"]

    def test_metrics_counters(self):
        registry = MetricsRegistry()
        graph = JobGraph([Job(id="a", fn=ok_job), Job(id="b", fn=raising_job)])
        ExecutionEngine(metrics=registry).run(graph)
        snap = registry.snapshot()
        assert snap["exec.jobs.succeeded"]["value"] == 1
        assert snap["exec.jobs.failed"]["value"] == 1

    def test_report_rendering(self):
        graph = JobGraph([Job(id="a", fn=ok_job), Job(id="b", fn=raising_job)])
        report = ExecutionEngine().run(graph)
        text = report.summary()
        assert "succeeded" in text and "failed" in text
        assert "2 jobs" in report.one_line()

    def test_validation(self):
        with pytest.raises(ValueError):
            ExecutionEngine(default_retries=-1)
        with pytest.raises(ValueError):
            run_jobs(JobGraph(), jobs=0)


class TestEngineRetries:
    def test_flaky_job_recovers_serial(self):
        _FLAKY_CALLS["n"] = 0
        graph = JobGraph([Job(id="flaky", fn=flaky_job, retries=2)])
        report = ExecutionEngine(backoff_s=0.001).run(graph)
        record = report["flaky"]
        assert record.ok and record.attempts == 2

    def test_flaky_job_recovers_across_processes(self, tmp_path):
        marker = tmp_path / "marker"
        graph = JobGraph(
            [
                Job(
                    id="flaky",
                    fn=flaky_file_job,
                    config={"marker": str(marker)},
                    retries=1,
                )
            ]
        )
        report = ExecutionEngine(
            runner=make_backend("pool", 2), backoff_s=0.001
        ).run(graph)
        assert report["flaky"].ok and report["flaky"].attempts == 2

    def test_retries_exhausted_is_failed(self):
        graph = JobGraph([Job(id="bad", fn=raising_job, retries=2)])
        report = ExecutionEngine(backoff_s=0.001).run(graph)
        assert report["bad"].status is JobStatus.FAILED
        assert report["bad"].attempts == 3  # 1 try + 2 retries

    def test_engine_default_retries_apply(self):
        _FLAKY_CALLS["n"] = 0
        graph = JobGraph([Job(id="flaky", fn=flaky_job)])
        report = ExecutionEngine(default_retries=1, backoff_s=0.001).run(graph)
        assert report["flaky"].ok


class TestEngineTimeout:
    def test_hung_job_times_out_but_sweep_finishes(self):
        graph = JobGraph(
            [
                Job(id="hang", fn=hanging_job, timeout_s=0.3),
                Job(id="good", fn=ok_job),
            ]
        )
        start = time.monotonic()
        report = ExecutionEngine(runner=make_backend("pool", 2)).run(graph)
        assert time.monotonic() - start < 10.0
        assert report["hang"].status is JobStatus.TIMEOUT
        assert report["good"].ok


class TestEngineCache:
    def _graph(self):
        return JobGraph(
            [Job(id=f"j{i}", fn=config_echo, config={"x": i}) for i in range(3)]
        )

    def test_cold_then_warm(self, tmp_path):
        cold = ExecutionEngine(cache=ResultCache(tmp_path, version="t")).run(
            self._graph()
        )
        assert cold.ok and cold.cache_hits() == 0
        warm_cache = ResultCache(tmp_path, version="t")
        warm = ExecutionEngine(cache=warm_cache).run(self._graph())
        assert warm.ok and warm.cache_hits() == 3
        assert all(r.cached for r in warm.records.values())
        assert warm.cache_stats["hits"] == 3
        assert warm.cache_stats["misses"] == 0
        # Results survive the JSON round-trip intact.
        assert warm.result("j2") == {"x": 2}

    def test_version_bump_invalidates(self, tmp_path):
        ExecutionEngine(cache=ResultCache(tmp_path, version="v1")).run(self._graph())
        rerun = ExecutionEngine(cache=ResultCache(tmp_path, version="v2")).run(
            self._graph()
        )
        assert rerun.cache_hits() == 0

    def test_corrupt_artifact_reruns_job(self, tmp_path):
        cache = ResultCache(tmp_path, version="t")
        ExecutionEngine(cache=cache).run(self._graph())
        # Truncate one artifact in place.
        paths = list(tmp_path.rglob("*.json"))
        assert len(paths) == 3
        paths[0].write_text("{truncated", encoding="utf-8")
        warm_cache = ResultCache(tmp_path, version="t")
        warm = ExecutionEngine(cache=warm_cache).run(self._graph())
        assert warm.ok
        assert warm.cache_hits() == 2  # two hits, one rerun
        assert warm_cache.corrupt == 1
        # The rewritten artifact hits again on the next pass.
        final = ExecutionEngine(cache=ResultCache(tmp_path, version="t")).run(
            self._graph()
        )
        assert final.cache_hits() == 3

    def test_same_fn_same_config_distinct_jobs_distinct_artifacts(self, tmp_path):
        """Jobs sharing a callable and config must not share a cache key.

        This is the registry shape: every experiment is a bound
        Experiment.execute with config=None.  Warm reruns must hand each
        job its *own* result, not the first job's.
        """

        def build():
            return JobGraph(
                [
                    Job(id="j0", fn=config_echo, config={"x": 0}, seed_key="seed"),
                    Job(id="j1", fn=config_echo, config={"x": 0}, seed_key="seed"),
                ]
            )

        cold = ExecutionEngine(cache=ResultCache(tmp_path, version="t")).run(build())
        assert cold.ok and cold.cache_hits() == 0
        # Distinct derived seeds → distinct results; a shared artifact
        # would have completed j1 from j0's cached (or just-written) row.
        assert cold.result("j0") != cold.result("j1")
        warm = ExecutionEngine(cache=ResultCache(tmp_path, version="t")).run(build())
        assert warm.cache_hits() == 2
        assert warm.result("j0") == cold.result("j0")
        assert warm.result("j1") == cold.result("j1")

    def test_unkeyable_config_runs_uncached_not_crash(self, tmp_path):
        cache = ResultCache(tmp_path, version="t")
        graph = JobGraph([Job(id="odd", fn=len, config={"x": object()})])
        report = ExecutionEngine(cache=cache).run(graph)
        assert report["odd"].ok
        assert report["odd"].cache_key is None
        assert cache.unkeyable == 1
        assert cache.writes == 0

    def test_cold_and_warm_results_agree_on_types(self, tmp_path):
        """A cached job's cold run reports the JSON-canonical result."""

        def build():
            return JobGraph([Job(id="t", fn=tuple_result_job)])

        cold = ExecutionEngine(cache=ResultCache(tmp_path, version="t")).run(build())
        warm = ExecutionEngine(cache=ResultCache(tmp_path, version="t")).run(build())
        assert warm.cache_hits() == 1
        assert cold.result("t") == {"pair": [1, 2]}  # tuple → list, cold too
        assert cold.result("t") == warm.result("t")

    def test_a_full_disk_fails_no_job(self, tmp_path, monkeypatch):
        """A cache write that raises ``OSError`` is counted, not fatal."""

        def build():
            return JobGraph([Job(id="t", fn=tuple_result_job),
                             Job(id="e", fn=config_echo, config={"x": 1})])

        clean = ExecutionEngine(cache=ResultCache(tmp_path / "clean",
                                                  version="t")).run(build())
        replace = os.replace

        def disk_full(src, dst):
            if str(tmp_path / "full") in str(dst):
                raise OSError(errno.ENOSPC, "No space left on device")
            replace(src, dst)

        monkeypatch.setattr(os, "replace", disk_full)
        cache = ResultCache(tmp_path / "full", version="t")
        report = ExecutionEngine(runner=SerialRunner(), cache=cache).run(
            build())
        assert [report[j].status for j in ("t", "e")] == [
            JobStatus.SUCCEEDED] * 2
        assert report.result("t") == clean.result("t") == {"pair": [1, 2]}
        assert report.result("e") == clean.result("e")
        assert cache.stats()["write_failed"] == 2 and cache.writes == 0
        assert not list((tmp_path / "full").rglob("*.json"))

    def test_failed_jobs_not_cached(self, tmp_path):
        cache = ResultCache(tmp_path, version="t")
        graph = JobGraph([Job(id="bad", fn=raising_job)])
        ExecutionEngine(cache=cache).run(graph)
        assert cache.writes == 0
        rerun = ExecutionEngine(cache=ResultCache(tmp_path, version="t")).run(
            JobGraph([Job(id="bad", fn=raising_job)])
        )
        assert rerun["bad"].status is JobStatus.FAILED


class TestRunJobs:
    def test_serial_convenience(self):
        report = run_jobs(JobGraph([Job(id="a", fn=ok_job)]))
        assert report.ok

    def test_parallel_convenience_with_cache(self, tmp_path):
        graph = JobGraph(
            [Job(id=f"j{i}", fn=config_echo, config={"x": i}) for i in range(4)]
        )
        report = run_jobs(graph, jobs=2, cache_dir=str(tmp_path))
        assert report.ok
        graph2 = JobGraph(
            [Job(id=f"j{i}", fn=config_echo, config={"x": i}) for i in range(4)]
        )
        warm = run_jobs(graph2, jobs=2, cache_dir=str(tmp_path))
        assert warm.cache_hits() == 4


class TestEngineParallel:
    def test_speedup_on_sleep_bound_jobs(self):
        def build():
            return JobGraph(
                [
                    Job(id=f"j{i}", fn=sleep_echo, config={"s": 0.15})
                    for i in range(4)
                ]
            )

        t0 = time.monotonic()
        serial = ExecutionEngine(runner=SerialRunner()).run(build())
        serial_wall = time.monotonic() - t0
        # Time the run, not the start-up: the pool forks its workers
        # when it is built, and a slow fork is not the engine's wall.
        backend = make_backend("pool", 4)
        assert backend.wait_for_workers(4) == 4
        t0 = time.monotonic()
        parallel = ExecutionEngine(runner=backend).run(build())
        parallel_wall = time.monotonic() - t0
        assert serial.ok and parallel.ok
        assert parallel_wall < serial_wall / 1.5


def sleep_echo(config):
    time.sleep(config["s"])
    return {"s": config["s"]}
