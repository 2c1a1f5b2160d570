"""Tests for the array/batch backend: manifests, task runner, backend."""

import json
import os
import time

import pytest

from repro.exec import ExecutionEngine, Job, JobGraph, JobStatus
from repro.exec.backends.array import (
    ArrayBackend,
    collect,
    emit_submit_script,
    plan_array,
    run_array_task,
)


def value_job(config):
    return {"value": config["x"] * 10}


def seeded_job(config):
    return {"seed": config["seed"]}


def raising_job():
    raise ValueError("bad cell")


def slow_job(config):
    time.sleep(config["sleep_s"])
    return {"slept": config["sleep_s"]}


def _graph():
    """Four independent jobs."""
    graph = JobGraph()
    for i, jid in enumerate("abcd", start=1):
        graph.add(Job(id=jid, fn=value_job, config={"x": i}))
    return graph


class TestPlan:
    @pytest.mark.parametrize("n_jobs, shards, expected", [
        (7, 3, [["j0", "j3", "j6"], ["j1", "j4"], ["j2", "j5"]]),
        (2, 4, [["j0"], ["j1"]]),
        (4, 1, [["j0", "j1", "j2", "j3"]]),
    ])
    def test_shards_deal_jobs_round_robin(self, tmp_path, n_jobs, shards,
                                          expected):
        graph = JobGraph(
            Job(id=f"j{i}", fn=value_job, config={"x": i}, timeout_s=5.0)
            for i in range(n_jobs)
        )
        task_dirs = plan_array(graph, shards=shards, root=str(tmp_path))
        manifests = []
        for task_dir in task_dirs:
            with open(os.path.join(task_dir, "manifest.json")) as fh:
                manifests.append(json.load(fh))
        assert [m["task"] for m in manifests] == list(range(len(expected)))
        assert [[j["id"] for j in m["jobs"]] for m in manifests] == expected
        for manifest in manifests:
            assert manifest["version"] == 1
            for job in manifest["jobs"]:
                assert job["fn"].endswith("value_job")
                assert job["timeout_s"] == 5.0
        with open(tmp_path / "manifest.json") as fh:
            assert json.load(fh) == {
                "version": 1, "tasks": len(expected), "jobs": n_jobs,
            }

    def test_root_manifest_counts(self, tmp_path):
        task_dirs = plan_array(_graph(), shards=2, root=str(tmp_path))
        with open(tmp_path / "manifest.json") as fh:
            manifest = json.load(fh)
        assert manifest["tasks"] == len(task_dirs) == 2
        assert manifest["jobs"] == 4

    def test_seed_injection_at_plan_time(self, tmp_path):
        graph = JobGraph()
        graph.add(Job(id="s1", fn=seeded_job, seed_key="seed"))
        graph.add(Job(id="s2", fn=seeded_job, seed_key="seed"))
        plan_array(graph, shards=1, root=str(tmp_path), base_seed=42)
        rows = run_array_task(str(tmp_path), 0)
        seeds = {r["job_id"]: r["result"]["seed"] for r in rows}
        assert seeds["s1"] != seeds["s2"]  # per-job derived seeds
        # Replanning with the same base seed reproduces them.
        plan_array(graph, shards=1, root=str(tmp_path), base_seed=42)
        rows2 = run_array_task(str(tmp_path), 0)
        assert {r["job_id"]: r["result"]["seed"] for r in rows2} == seeds

    def test_submit_script_renders(self, tmp_path):
        plan_array(_graph(), shards=2, root=str(tmp_path))
        script = emit_submit_script(str(tmp_path))
        assert "#SBATCH --array=0-1" in script
        assert "repro.exec.backends.array" in script
        assert "SLURM_ARRAY_TASK_ID" in script


class TestRunTask:
    def test_offline_plan_run_collect(self, tmp_path):
        plan_array(_graph(), shards=2, root=str(tmp_path))
        for index in range(2):
            run_array_task(str(tmp_path), index)
        rows = collect(str(tmp_path))
        assert set(rows) == {"a", "b", "c", "d"}
        assert all(r["status"] == "ok" for r in rows.values())
        assert rows["b"]["result"] == {"value": 20}

    def test_raising_job_is_an_error_row(self, tmp_path):
        graph = JobGraph()
        graph.add(Job(id="boom", fn=raising_job))
        graph.add(Job(id="after", fn=value_job, config={"x": 1}))
        plan_array(graph, shards=1, root=str(tmp_path))
        rows = {r["job_id"]: r for r in run_array_task(str(tmp_path), 0)}
        assert rows["boom"]["status"] == "error"
        assert "bad cell" in rows["boom"]["error"]
        assert rows["after"]["status"] == "ok"

    def test_shared_cache_reuse(self, tmp_path):
        root = tmp_path / "root"
        cache_dir = tmp_path / "cache"
        graph = JobGraph()
        graph.add(Job(id="a", fn=value_job, config={"x": 5}))
        plan_array(graph, shards=1, root=str(root))
        run_array_task(str(root), 0, cache_dir=str(cache_dir))
        # A second run of the same shard is served from the cache.
        rows = {r["job_id"]: r for r in run_array_task(
            str(root), 0, cache_dir=str(cache_dir))}
        assert rows["a"].get("cached") is True
        assert rows["a"]["result"] == {"value": 50}

    def test_newer_manifest_version_refused(self, tmp_path):
        plan_array(_graph(), shards=1, root=str(tmp_path))
        manifest_path = tmp_path / "task-0000" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["version"] = 999
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(RuntimeError, match="newer"):
            run_array_task(str(tmp_path), 0)

    def test_collect_tolerates_missing_and_corrupt(self, tmp_path):
        plan_array(_graph(), shards=2, root=str(tmp_path))
        run_array_task(str(tmp_path), 0)  # task 1 never ran
        (tmp_path / "task-0001" / "result.pkl").write_bytes(b"garbage")
        rows = collect(str(tmp_path))
        assert rows  # task 0's rows present
        assert len(rows) < 4  # corrupt/missing shard simply absent


class TestArrayBackend:
    def test_engine_driven_sweep(self, tmp_path):
        backend = ArrayBackend(str(tmp_path), shard_size=2, max_parallel=2)
        graph = JobGraph()
        for i in range(6):
            graph.add(Job(id=f"j{i}", fn=value_job, config={"x": i}))
        report = ExecutionEngine(runner=backend).run(graph)
        assert report.ok
        assert report.backend == "array"
        assert report["j5"].result == {"value": 50}

    def test_partial_tail_shard_launches_after_linger(self, tmp_path):
        backend = ArrayBackend(str(tmp_path), shard_size=4, max_parallel=1,
                               linger_s=0.02)
        graph = JobGraph()
        graph.add(Job(id="only", fn=value_job, config={"x": 1}))
        report = ExecutionEngine(runner=backend).run(graph)
        assert report.ok

    def test_task_timeout_kills_whole_shard(self, tmp_path):
        backend = ArrayBackend(str(tmp_path), shard_size=2, max_parallel=1,
                               task_timeout_s=0.4)
        graph = JobGraph()
        graph.add(Job(id="slow1", fn=slow_job, config={"sleep_s": 30.0}))
        graph.add(Job(id="slow2", fn=slow_job, config={"sleep_s": 30.0}))
        start = time.perf_counter()
        report = ExecutionEngine(runner=backend).run(graph)
        assert time.perf_counter() - start < 15.0
        for jid in ("slow1", "slow2"):
            assert report[jid].status is JobStatus.TIMEOUT
            assert "shard killed" in report[jid].error

    def test_unpicklable_submit_fails_loud(self, tmp_path):
        backend = ArrayBackend(str(tmp_path), shard_size=1)
        graph = JobGraph()
        graph.add(Job(id="closure", fn=lambda: 1))
        report = ExecutionEngine(runner=backend).run(graph)
        assert report["closure"].status is JobStatus.FAILED
        assert "submit failed" in report["closure"].error

    def test_capabilities(self, tmp_path):
        backend = ArrayBackend(str(tmp_path), shard_size=3, max_parallel=2)
        assert backend.name == "array"
