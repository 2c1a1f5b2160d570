"""Tests for the content-addressed result cache.

Covers the satellite requirements: a corrupted/truncated artifact is a
miss (and gets rewritten, not crashed on), and the cache key changes
when the library version changes.
"""

import errno
import json
import os

import numpy as np
import pytest

from repro.core.instrument import MetricsRegistry
from repro.exec import ResultCache, cache_key, canonicalize, repro_version


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "cache", version="1.test")


def _cached_job(config):
    return {"value": config["x"]}


class TestCanonicalize:
    def test_key_order_normalized(self):
        assert canonicalize({"b": 1, "a": 2}) == {"a": 2, "b": 1}

    def test_tuples_become_lists(self):
        assert canonicalize((1, 2, (3,))) == [1, 2, [3]]

    def test_numpy_scalars_collapsed(self):
        out = canonicalize({"x": np.float64(1.5), "n": np.int32(3), "b": np.bool_(True)})
        assert out == {"b": True, "n": 3, "x": 1.5}
        assert type(out["x"]) is float and type(out["n"]) is int

    def test_sets_sorted(self):
        assert canonicalize({3, 1, 2}) == [1, 2, 3]

    def test_arrays_hashed_by_full_content(self):
        """No truncated-repr aliasing: big arrays canonicalize elementwise."""
        a = np.zeros(10_000)
        b = np.zeros(10_000)
        b[5_000] = 1.0  # identical truncated repr, different content
        assert canonicalize(a) != canonicalize(b)
        assert canonicalize(np.array([1, 2, 3])) == [1, 2, 3]

    def test_exotic_objects_raise_not_repr(self):
        """Default reprs embed memory addresses: unstable, so rejected."""
        with pytest.raises(TypeError):
            canonicalize(object())
        with pytest.raises(TypeError):
            cache_key("m.f", {"x": object()}, "1.0")


class TestCacheKey:
    def test_config_order_irrelevant(self):
        a = cache_key("m.f", {"x": 1, "y": 2}, "1.0")
        b = cache_key("m.f", {"y": 2, "x": 1}, "1.0")
        assert a == b

    def test_config_value_changes_key(self):
        assert cache_key("m.f", {"x": 1}, "1.0") != cache_key("m.f", {"x": 2}, "1.0")

    def test_fn_name_changes_key(self):
        assert cache_key("m.f", {"x": 1}, "1.0") != cache_key("m.g", {"x": 1}, "1.0")

    def test_version_changes_key(self):
        """Bumping repro.__version__ invalidates every artifact."""
        assert cache_key("m.f", {"x": 1}, "1.0") != cache_key("m.f", {"x": 1}, "1.1")

    def test_job_id_changes_key(self):
        """Same callable + config under different job ids: distinct
        artifacts (e.g. every registry experiment runs Experiment.execute)."""
        assert cache_key("m.f", None, "1.0", job_id="E01") != cache_key(
            "m.f", None, "1.0", job_id="E02"
        )

    def test_array_content_changes_key(self):
        a = np.zeros(10_000)
        b = np.zeros(10_000)
        b[5_000] = 1.0
        assert cache_key("m.f", {"w": a}, "1.0") != cache_key("m.f", {"w": b}, "1.0")

    def test_unkeyable_config_counted_and_none(self, tmp_path):
        cache = ResultCache(tmp_path, version="1.0")
        assert cache.try_key_for("m.f", {"x": object()}, job_id="j") is None
        assert cache.unkeyable == 1
        assert cache.try_key_for("m.f", {"x": 1}, job_id="j") is not None

    def test_default_version_is_repro_version(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.version == repro_version()


class TestResultCache:
    def test_miss_then_hit(self, cache):
        key = cache.key_for("m.f", {"x": 1})
        assert cache.get(key) is None
        assert cache.put(key, "m.f", {"x": 1}, {"value": 2.0}, wall_time_s=0.5)
        artifact = cache.get(key)
        assert artifact["result"] == {"value": 2.0}
        assert artifact["wall_time_s"] == 0.5
        assert cache.stats() == {
            "hits": 1, "misses": 1, "corrupt": 0, "writes": 1,
            "rejected": 0, "write_failed": 0, "unkeyable": 0,
            "coalesced": 0,
        }

    def test_put_returns_stored_canonical_artifact(self, cache):
        """The cold path reports exactly what a warm hit would report."""
        key = cache.key_for("m.f", None)
        artifact = cache.put(key, "m.f", None, {"t": (1, 2)})
        assert artifact["result"] == {"t": [1, 2]}
        assert cache.get(key)["result"] == artifact["result"]

    def test_numpy_results_cacheable(self, cache):
        key = cache.key_for("m.f", None)
        assert cache.put(key, "m.f", None, {"holds": np.bool_(True), "v": np.float64(1)})
        assert cache.get(key)["result"] == {"holds": True, "v": 1.0}

    def test_unserializable_result_rejected_not_raised(self, cache):
        key = cache.key_for("m.f", None)
        assert not cache.put(key, "m.f", None, {"bad": object()})
        assert cache.rejected == 1
        assert cache.get(key) is None  # nothing was written

    def test_a_failed_write_raises_and_leaves_no_temp_file(
            self, cache, monkeypatch):
        key = cache.key_for("m.f", {"x": 1})
        artifact = cache.build(key, "m.f", {"x": 1}, {"value": 1.0})

        def disk_full(src, dst):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(os, "replace", disk_full)
        with pytest.raises(OSError):
            cache.publish(artifact)
        assert list(cache.path_for(key).parent.iterdir()) == []
        assert cache.writes == 0
        assert cache.stats()["write_failed"] == 1

    def test_corrupted_artifact_is_miss_and_rewritten(self, cache):
        key = cache.key_for("m.f", {"x": 1})
        cache.put(key, "m.f", {"x": 1}, {"value": 1.0})
        path = cache.path_for(key)
        path.write_text("{ this is not json", encoding="utf-8")
        assert cache.get(key) is None
        assert cache.corrupt == 1
        # The job reruns and rewrites the artifact; subsequent gets hit.
        assert cache.put(key, "m.f", {"x": 1}, {"value": 1.0})
        assert cache.get(key)["result"] == {"value": 1.0}

    def test_corrupt_artifact_quarantined_and_counted_once(self, cache):
        """Satellite: corruption is counted, quarantined, and visible."""
        key = cache.key_for("m.f", {"x": 1})
        cache.put(key, "m.f", {"x": 1}, {"value": 1.0})
        path = cache.path_for(key)
        path.write_text("{ torn write", encoding="utf-8")
        assert cache.get(key) is None
        assert cache.corrupt == 1
        # The bad bytes were moved aside for post-mortem...
        quarantined = path.with_suffix(path.suffix + ".corrupt")
        assert quarantined.exists()
        assert quarantined.read_text(encoding="utf-8") == "{ torn write"
        # ...so a second get is a plain miss, never double-counted.
        assert cache.get(key) is None
        assert cache.corrupt == 1
        assert cache.misses == 2

    def test_corrupt_counted_in_metrics_registry(self, tmp_path):
        registry = MetricsRegistry(enabled=True)
        cache = ResultCache(tmp_path, version="1.test", metrics=registry)
        key = cache.key_for("m.f", {"x": 1})
        cache.put(key, "m.f", {"x": 1}, {"value": 1.0})
        cache.path_for(key).write_text("garbage", encoding="utf-8")
        cache.get(key)
        assert registry.counter("exec.cache.corrupt").value == 1
        assert registry.counter("exec.cache.miss").value == 1

    def test_corrupt_surfaces_in_run_report(self, tmp_path):
        """A sweep over a corrupted cache says so in its one-liner."""
        from repro.exec import Job, JobGraph, run_jobs

        graph = JobGraph()
        graph.add(Job(id="a", fn=_cached_job, config={"x": 1}))
        cold = run_jobs(graph, cache_dir=str(tmp_path))
        assert "corrupt" not in cold.one_line()
        cache = ResultCache(str(tmp_path))
        key = cold["a"].cache_key
        cache.path_for(key).write_text("torn", encoding="utf-8")
        rerun = run_jobs(graph, cache_dir=str(tmp_path))
        assert rerun.ok
        assert rerun.cache_stats["corrupt"] == 1
        assert "1 corrupt quarantined" in rerun.one_line()

    def test_truncated_artifact_is_miss(self, cache):
        key = cache.key_for("m.f", {"x": 1})
        cache.put(key, "m.f", {"x": 1}, {"value": 1.0})
        path = cache.path_for(key)
        payload = path.read_text(encoding="utf-8")
        path.write_text(payload[: len(payload) // 2], encoding="utf-8")
        assert cache.get(key) is None
        assert cache.corrupt == 1

    def test_wrong_key_inside_artifact_is_miss(self, cache):
        """An artifact whose recorded key mismatches its path is corrupt."""
        key = cache.key_for("m.f", {"x": 1})
        cache.put(key, "m.f", {"x": 1}, {"value": 1.0})
        path = cache.path_for(key)
        artifact = json.loads(path.read_text(encoding="utf-8"))
        artifact["key"] = "0" * 64
        path.write_text(json.dumps(artifact), encoding="utf-8")
        assert cache.get(key) is None
        assert cache.corrupt == 1

    def test_artifact_missing_result_is_miss(self, cache):
        key = cache.key_for("m.f", None)
        path = cache.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"key": key}), encoding="utf-8")
        assert cache.get(key) is None
        assert cache.corrupt == 1

    def test_version_partitions_artifacts(self, tmp_path):
        """Same root, different versions: no cross-version hits."""
        old = ResultCache(tmp_path, version="1.0")
        new = ResultCache(tmp_path, version="2.0")
        key_old = old.key_for("m.f", {"x": 1})
        key_new = new.key_for("m.f", {"x": 1})
        assert key_old != key_new
        old.put(key_old, "m.f", {"x": 1}, {"value": 1.0})
        assert new.get(key_new) is None

    def test_sharded_layout(self, cache):
        key = cache.key_for("m.f", None)
        cache.put(key, "m.f", None, {"v": 1})
        assert cache.path_for(key).parent.name == key[:2]

    def test_instrument_counters(self, tmp_path):
        registry = MetricsRegistry()
        cache = ResultCache(tmp_path, version="1.0", metrics=registry)
        key = cache.key_for("m.f", None)
        cache.get(key)
        cache.put(key, "m.f", None, {"v": 1})
        cache.get(key)
        snap = registry.snapshot()
        assert snap["exec.cache.miss"]["value"] == 1
        assert snap["exec.cache.write"]["value"] == 1
        assert snap["exec.cache.hit"]["value"] == 1
