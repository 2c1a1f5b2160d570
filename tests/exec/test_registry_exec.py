"""Integration: the experiment registry running on the execution engine.

Covers the satellite bugfix — a raising experiment no longer aborts
``run_all`` and loses completed results; it becomes a FAILED row and
the sweep finishes — plus parallel and cached registry sweeps.
"""

import time

import pytest

from repro.analysis import REGISTRY, Experiment, ExperimentRegistry
from repro.exec import JobStatus, make_backend


def run_good():
    return {"value": 1.0, "holds": True}


def run_value_a():
    return {"value": 1.0, "which": "A", "holds": True}


def run_value_b():
    return {"value": 2.0, "which": "B", "holds": True}


def run_bad():
    raise RuntimeError("experiment blew up")


def run_no_verdict():
    return {"value": 1.0}


def run_hang():
    time.sleep(30)


def _experiment(eid, run):
    return Experiment(id=eid, title=f"title {eid}", paper_anchor="a", claim="c", run=run)


class TestRunAllFaultContainment:
    def test_raising_experiment_becomes_failed_row(self):
        reg = ExperimentRegistry()
        reg.register(_experiment("X1", run_good))
        reg.register(_experiment("X2", run_bad))
        reg.register(_experiment("X3", run_good))
        results = reg.run_all()
        # The sweep finished: completed results are not lost.
        assert results["X1"]["holds"] and results["X3"]["holds"]
        assert results["X2"]["holds"] is False
        assert results["X2"]["status"] == "FAILED"
        assert "experiment blew up" in results["X2"]["error"]

    def test_missing_holds_verdict_becomes_failed_row(self):
        reg = ExperimentRegistry()
        reg.register(_experiment("X1", run_no_verdict))
        results = reg.run_all()
        assert results["X1"]["status"] == "FAILED"
        assert "verdict" in results["X1"]["error"]

    def test_summary_renders_failed_rows(self):
        reg = ExperimentRegistry()
        reg.register(_experiment("X1", run_good))
        reg.register(_experiment("X2", run_bad))
        summary = reg.summary(reg.run_all())
        assert "FAILED" in summary
        assert "1/2 claims hold" in summary
        assert "1 experiment(s) did not complete" in summary

    def test_unknown_id_still_raises_before_running(self):
        reg = ExperimentRegistry()
        reg.register(_experiment("X1", run_good))
        with pytest.raises(KeyError):
            reg.run_all(only=["NOPE"])

    def test_last_report_is_kept(self):
        reg = ExperimentRegistry()
        reg.register(_experiment("X1", run_good))
        reg.run_all()
        assert reg.last_report is not None
        assert reg.last_report["X1"].status is JobStatus.SUCCEEDED

    def test_duplicate_selection_deduped(self):
        reg = ExperimentRegistry()
        reg.register(_experiment("X1", run_good))
        results = reg.run_all(only=["X1", "X1"])
        assert list(results) == ["X1"]

    def test_hung_experiment_timeout_with_processes(self):
        reg = ExperimentRegistry()
        reg.register(_experiment("X1", run_good))
        reg.register(_experiment("XH", run_hang))
        results = reg.run_all(timeout_s=0.3, runner=make_backend("pool", 2))
        assert results["X1"]["holds"]
        assert results["XH"]["status"] == "TIMEOUT"


class TestRegistrySweepModes:
    def test_parallel_matches_serial(self):
        subset = ["E01", "E03", "E13"]
        serial = REGISTRY.run_all(only=subset)
        parallel = REGISTRY.run_all(only=subset, jobs=2)
        assert set(serial) == set(parallel)
        for eid in subset:
            assert serial[eid]["holds"] == parallel[eid]["holds"]

    def test_cached_rerun_hits_everything(self, tmp_path):
        subset = ["E01", "E13"]
        cold = REGISTRY.run_all(only=subset, cache_dir=str(tmp_path))
        assert REGISTRY.last_report.cache_hits() == 0
        warm = REGISTRY.run_all(only=subset, cache_dir=str(tmp_path))
        assert REGISTRY.last_report.cache_hits() == len(subset)
        assert all(warm[eid]["holds"] for eid in subset)
        # Hit counts are not enough: each experiment must get its own
        # artifact back, not another experiment's.
        assert warm == cold

    def test_each_experiment_gets_its_own_cached_result(self, tmp_path):
        """All experiments share the Experiment.execute callable with no
        config; per-job cache-key salting must keep artifacts distinct."""
        reg = ExperimentRegistry()
        reg.register(_experiment("XA", run_value_a))
        reg.register(_experiment("XB", run_value_b))
        cold = reg.run_all(cache_dir=str(tmp_path))
        assert cold["XA"]["which"] == "A" and cold["XB"]["which"] == "B"
        warm = reg.run_all(cache_dir=str(tmp_path))
        assert reg.last_report.cache_hits() == 2
        assert warm == cold
        assert warm["XA"]["value"] == 1.0 and warm["XB"]["value"] == 2.0
