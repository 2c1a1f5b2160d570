"""Tests for the job model and job graph."""

import functools

import pytest

from repro.exec import Job, JobGraph, callable_name, derive_seed


def sample_job():
    return {"ok": True}


class TestJob:
    def test_valid_job(self):
        job = Job(id="a", fn=sample_job, config={"x": 1})
        assert job.config == {"x": 1}
        assert job.timeout_s is None and job.retries is None

    def test_empty_id_rejected(self):
        with pytest.raises(ValueError):
            Job(id="", fn=sample_job)

    def test_non_callable_rejected(self):
        with pytest.raises(TypeError):
            Job(id="a", fn=42)

    def test_bad_timeout_rejected(self):
        with pytest.raises(ValueError):
            Job(id="a", fn=sample_job, timeout_s=0)

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError):
            Job(id="a", fn=sample_job, retries=-1)


class TestCallableName:
    def test_plain_function(self):
        assert callable_name(sample_job).endswith("test_job.sample_job")

    def test_partial_unwrapped(self):
        wrapped = functools.partial(sample_job)
        assert callable_name(wrapped) == callable_name(sample_job)

    def test_nested_partial(self):
        wrapped = functools.partial(functools.partial(sample_job))
        assert callable_name(wrapped) == callable_name(sample_job)


class TestDeriveSeed:
    def test_stable(self):
        assert derive_seed(0x21C3, "E07") == derive_seed(0x21C3, "E07")

    def test_distinct_per_job(self):
        seeds = {derive_seed(0x21C3, f"job-{i}") for i in range(100)}
        assert len(seeds) == 100

    def test_distinct_per_base_seed(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_range(self):
        s = derive_seed(0, "x")
        assert 0 <= s < 2**63


class TestJobGraph:
    def test_duplicate_id_rejected(self):
        graph = JobGraph([Job(id="a", fn=sample_job)])
        with pytest.raises(ValueError):
            graph.add(Job(id="a", fn=sample_job))

    def test_ids_keep_insertion_order(self):
        graph = JobGraph([Job(id=f"j{i}", fn=sample_job) for i in (3, 0, 4, 1, 2)])
        assert graph.ids() == ["j3", "j0", "j4", "j1", "j2"]
        assert [job.id for job in graph.jobs()] == graph.ids()

    def test_add_call_and_contains(self):
        graph = JobGraph()
        graph.add_call("a", sample_job)
        assert "a" in graph and len(graph) == 1
        assert graph.get("a").fn is sample_job
        with pytest.raises(KeyError):
            graph.get("nope")
