"""Tests for the fault-campaign orchestration and ResilienceReport."""

import json

import pytest

from repro.core import instrument
from repro.resilience.campaign import (
    ALL_MODELS,
    ResilienceReport,
    architectural_campaign,
    campaign_job,
    main,
    run_campaign,
)


@pytest.fixture()
def small_report():
    return run_campaign(
        models=["harvest"],
        intensities=[0.0, 1.0],
        reps=1,
        scale="smoke",
        skip_architectural=True,
    )


class TestCampaignJob:
    def test_returns_one_trial_per_rep(self):
        out = campaign_job({
            "model": "harvest", "intensity": 0.0, "reps": 2,
            "seed": 7, "scale": "smoke",
        })
        assert out["model"] == "harvest"
        assert len(out["trials"]) == 2
        for trial in out["trials"]:
            assert set(trial) == {
                "throughput", "tail", "energy", "faults", "events",
            }
            assert trial["faults"] == 0  # intensity 0 injects nothing

    def test_deterministic_for_seed(self):
        config = {
            "model": "cluster", "intensity": 1.0, "reps": 1,
            "seed": 3, "scale": "smoke",
        }
        # Compare as JSON text: NaN (cluster energy) breaks dict ==.
        first = json.dumps(campaign_job(dict(config)), sort_keys=True)
        second = json.dumps(campaign_job(dict(config)), sort_keys=True)
        assert first == second

    def test_faults_scale_with_intensity(self):
        def faults(intensity):
            out = campaign_job({
                "model": "cluster", "intensity": intensity, "reps": 2,
                "seed": 1, "scale": "smoke",
            })
            return sum(t["faults"] for t in out["trials"])

        assert faults(0.0) == 0
        assert faults(2.0) > faults(0.5)

    def test_checkpoint_resume_skips_done_reps(self, tmp_path):
        config = {
            "model": "harvest", "intensity": 0.5, "reps": 3,
            "seed": 11, "scale": "smoke",
            "checkpoint_path": str(tmp_path),
            "crash_once_path": str(tmp_path / "crashed.marker"),
        }
        from repro.resilience import JobCheckpointStore, SimulatedCrash

        with pytest.raises(SimulatedCrash):
            campaign_job(dict(config))
        # Rep 0 survived the crash in the durable store.
        saved = JobCheckpointStore(str(tmp_path)).load("harvest-i0.5")
        assert isinstance(saved, list) and len(saved) == 1
        # The retry (marker now present) resumes from rep 1 and the
        # result equals a run that never crashed.
        resumed = campaign_job(dict(config))
        clean = campaign_job({
            k: v for k, v in config.items()
            if k not in ("checkpoint_path", "crash_once_path")
        })
        assert resumed == clean


class TestRunCampaign:
    def test_report_shape(self, small_report):
        report = small_report
        assert report.ok
        data = report.models["harvest"]
        assert data["intensities"] == [0.0, 1.0]
        for series in data["curves"].values():
            assert len(series) == 2
        # Baseline-normalized degradation is exactly 1.0 at intensity 0.
        assert data["degradation"]["throughput"][0] == 1.0
        # Faults degrade forward progress.
        assert data["curves"]["throughput"][1] < data["curves"]["throughput"][0]

    def test_json_is_strict(self, small_report):
        parsed = json.loads(small_report.to_json())
        assert parsed["meta"]["models"] == ["harvest"]
        # NaN (cluster energy etc.) must serialize as null, not NaN.
        assert "NaN" not in small_report.to_json()

    def test_summary_mentions_models_and_status(self, small_report):
        text = small_report.summary()
        assert "[harvest]" in text
        assert "succeeded" in text

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError, match="unknown model"):
            run_campaign(models=["warp-drive"], intensities=[0.0])

    def test_negative_intensity_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            run_campaign(models=["harvest"], intensities=[-1.0])

    def test_failed_cell_becomes_failed_row(self, tmp_path):
        # A cell whose job keeps crashing (no checkpoint store, marker
        # never consumed... force it by pointing crash_once at a fresh
        # path each attempt) must not sink the sweep.  Simplest driver:
        # retries=0 and a crash marker that never pre-exists.
        import repro.resilience.campaign as campaign_mod

        original = campaign_mod._MODEL_TRIALS

        def boom(seed, intensity, scale):
            raise RuntimeError("synthetic model failure")

        campaign_mod._MODEL_TRIALS = dict(original, harvest=boom)
        try:
            report = run_campaign(
                models=["harvest"], intensities=[0.0], reps=1,
                retries=0, skip_architectural=True,
            )
        finally:
            campaign_mod._MODEL_TRIALS = original
        assert not report.ok
        assert report.exec_summary["statuses"]["harvest-i0"] == "failed"
        assert report.models["harvest"]["status"] == ["failed"]

    def test_health_gauges_populated_with_session(self):
        instrument.enable_session()
        try:
            report = run_campaign(
                models=["harvest"], intensities=[0.0, 1.0], reps=1,
                skip_architectural=True,
            )
            assert any(k.startswith("exec.") for k in report.health)
            assert any(k.startswith("faults.") for k in report.health)
        finally:
            instrument.disable_session()


class TestArchitectural:
    def test_outcome_rates_sum_to_one(self):
        arch = architectural_campaign(n_flips=40, seed=2)
        rates = arch["outcome_rates"]
        assert abs(sum(rates.values()) - 1.0) < 1e-9
        assert set(arch["schemes"]) >= {"none", "dmr"}
        assert arch["schemes"]["dmr"]["sdc_rate"] == 0.0


def test_all_models_are_fault_targets():
    """Every campaign model must satisfy the FaultTarget protocol."""
    from repro.crosscut.faults import FaultTarget
    from repro.datacenter.cluster import ClusterSimulator
    from repro.interconnect.noc import MeshNoC
    from repro.sensor.harvest import (
        Harvester, IntermittentConfig, IntermittentNode,
    )
    import numpy as np

    instances = {
        "cluster": ClusterSimulator(),
        "noc": MeshNoC(),
        "harvest": IntermittentNode(
            Harvester(), IntermittentConfig(), 4, np.zeros(4)
        ),
    }
    assert set(instances) == set(ALL_MODELS)
    for name, model in instances.items():
        assert isinstance(model, FaultTarget), name


def test_report_ok_requires_statuses():
    assert not ResilienceReport().ok


@pytest.mark.parametrize("flag", ["--timeout", "--hang-timeout"])
@pytest.mark.parametrize("value", ["nan", "inf", "-1", "0", "x"])
def test_cli_timeouts_must_be_finite_positive_numbers(flag, value, capsys):
    argv = ["--models", "harvest", "--intensities", "0", "--reps", "1",
            "--no-architectural", flag, value]
    with pytest.raises(SystemExit) as exc_info:
        main(argv)
    assert exc_info.value.code == 2
    assert "must be a finite number > 0" in capsys.readouterr().err
