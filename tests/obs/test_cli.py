"""CLI tests: ``python -m repro obs`` and the --trace flag."""

import json
import subprocess
import sys

import pytest

from repro.obs.cli import MODEL_JOBS, MODEL_SEEDS, build_report, main

#: The straight-run golden digests (tests/obs/test_golden_traces.py);
#: the CLI's per-job worker streams must be the very same streams.
from .test_golden_traces import GOLDEN_TRACES


class TestBuildReport:
    def test_report_structure_and_digests(self):
        report = build_report(["harvest"], profile_period=8)
        assert report["ok"] is True
        assert report["jobs"]["obs-harvest"]["status"] == "succeeded"
        assert report["jobs"]["obs-harvest"]["result"]["committed"] > 0
        assert report["span_digests"]["obs-harvest"] == GOLDEN_TRACES["harvest"][0]
        assert report["telemetry"]["profile"]

    def test_worker_streams_match_goldens_for_all_models(self):
        report = build_report(sorted(MODEL_JOBS), profile_period=0)
        for model in MODEL_JOBS:
            assert report["span_digests"][f"obs-{model}"] == GOLDEN_TRACES[model][0], model

    def test_seed_offset_changes_streams(self):
        base = build_report(["cluster"])
        moved = build_report(["cluster"], seed_offset=1)
        assert (base["span_digests"]["obs-cluster"]
                != moved["span_digests"]["obs-cluster"])


class TestMain:
    def test_writes_all_artifacts(self, tmp_path, capsys):
        prom = tmp_path / "m.prom"
        blob = tmp_path / "r.json"
        flame = tmp_path / "p.flame"
        rc = main(["--models", "harvest,noc", "--prom", str(prom),
                   "--json", str(blob), "--flame", str(flame), "-v"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "obs sweep: 2 jobs, 2 succeeded" in out
        assert "obs-harvest" in out and "obs-noc" in out
        text = prom.read_text()
        assert "# TYPE repro_sensor_intermittent_checkpoints_total counter" in text
        parsed = json.loads(blob.read_text())
        assert parsed["ok"] is True
        assert set(parsed["span_digests"]) == {"obs-harvest", "obs-noc"}
        assert flame.read_text().strip()  # collapsed stacks present

    def test_json_artifact_is_deterministic(self, tmp_path):
        paths = []
        for i in range(2):
            p = tmp_path / f"r{i}.json"
            assert main(["--models", "noc", "--json", str(p),
                         "--profile-period", "0"]) == 0
            paths.append(p)
        a, b = (json.loads(p.read_text()) for p in paths)
        # Wall-clock fields differ; the deterministic projection must not.
        assert a["span_digests"] == b["span_digests"]
        assert a["telemetry"]["metrics"] == b["telemetry"]["metrics"]

    def test_pool_matches_serial_digests(self, tmp_path):
        digests = []
        for jobs in ("1", "2"):
            p = tmp_path / f"r{jobs}.json"
            assert main(["--models", "cluster,harvest", "-j", jobs,
                         "--json", str(p)]) == 0
            digests.append(json.loads(p.read_text())["span_digests"])
        assert digests[0] == digests[1]

    def test_rejects_unknown_model_and_bad_args(self, capsys):
        for argv in (["--models", "nope"], ["--jobs", "0"],
                     ["--trace-capacity", "0"], ["--profile-period", "-1"]):
            with pytest.raises(SystemExit):
                main(argv)
            capsys.readouterr()

    def test_seeds_cover_all_models(self):
        assert set(MODEL_SEEDS) == set(MODEL_JOBS)


class TestModuleEntry:
    def test_python_dash_m_repro_obs(self, tmp_path):
        out = subprocess.run(
            [sys.executable, "-m", "repro", "obs", "--models", "harvest",
             "--json", str(tmp_path / "r.json")],
            capture_output=True, text=True, timeout=120,
        )
        assert out.returncode == 0, out.stderr
        assert "obs sweep: 1 jobs, 1 succeeded" in out.stdout

    def test_python_dash_m_repro_trace_flag(self):
        out = subprocess.run(
            [sys.executable, "-m", "repro", "E07", "--trace"],
            capture_output=True, text=True, timeout=300,
        )
        assert out.returncode == 0, out.stderr
        assert "Span traces (per experiment):" in out.stdout
        assert "E07" in out.stdout
