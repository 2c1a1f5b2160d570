"""Golden replay digests: every scenario, every backend.

The acceptance bar for the trace front end: replaying a shipped
scenario id yields a **byte-identical digest** no matter which
execution backend carries the job (serial, process pool, socket
cluster).  The digests below are recorded constants; if a code
change alters one, it changed simulated behaviour — either a bug, or a
semantic change that must be called out and these constants
re-recorded (run this file as a script to regenerate).

The digests also hold with a retired ``REPRO_FASTPATH`` value (``off``,
``auto``) left set in the environment: replay reads no kernel mode.
"""

from __future__ import annotations

import pytest

from repro.scenarios.library import get, list_ids, replay_scenario, run

# Values the retired REPRO_FASTPATH variable used to accept.
RETIRED_MODES = ("off", "auto")

# sha256 of the canonicalized replay result (sink, records, outputs,
# interval stats) per shipped scenario id.  Regenerate with:
#   PYTHONPATH=src python tests/scenarios/test_replay_golden.py
GOLDEN_DIGESTS = {
    "cpu-mix@1":
        "4b1814acaa27270681add545967aad803747c2cb1243aaf4ad504c3549e9d1f3",
    "mem-graph-scan@1":
        "afd8a10d4049f09df4c56ed74eb025284d686ac9cd5903c09f2964275786a5ee",
    "mem-kv-zipf@1":
        "96a2419c415affe8a95ebbba49216751faa0e62329d23aeff4321aee63ac0cad",
    "noc-hotspot-4x4@1":
        "7c6f064132c012b14fd88fe412d3c27f8a93ee49c87ad3fe5c6dc9a0d645f11e",
    "noc-mesh-8x8@1":
        "2fdae99aafc01f3752fee01fd7f5823f28805be4efbe9b5db5440119e6dd13e0",
    "tail-straggler@1":
        "50f51356dde15ea4243af81412d4dc23e0694aad252dbebca36d2ab8e2800f4e",
    "wear-hotline@1":
        "1d6c46e1a0e6f83d5c85217cd909cc67e430d5121459dd4b1fbc0563f65edc26",
    "web-burst@1":
        "f51a53da8b60a0150ced61bfa0d8c006a12b99349826d2e7809c47a3fefbc953",
    "web-steady-rr@1":
        "8314c0ca7dca0a06c4b4f9b1ae79a79677b72b138301cf51638e20af1f55af13",
}


def test_golden_table_covers_every_shipped_scenario():
    assert set(GOLDEN_DIGESTS) == set(list_ids())


@pytest.mark.parametrize("sid", sorted(GOLDEN_DIGESTS))
@pytest.mark.parametrize("mode", RETIRED_MODES)
def test_replay_digest_matches_golden_in_every_mode(sid, mode, monkeypatch):
    monkeypatch.setenv("REPRO_FASTPATH", mode)
    result = run(get(sid))
    assert result.digest() == GOLDEN_DIGESTS[sid], (
        f"{sid} digest drifted with REPRO_FASTPATH={mode}"
    )


@pytest.mark.parametrize("mode", RETIRED_MODES)
def test_env_var_mode_resolution_matches_explicit(monkeypatch, mode):
    """The engine entry point ignores a stale REPRO_FASTPATH."""
    monkeypatch.setenv("REPRO_FASTPATH", mode)
    out = replay_scenario({"scenario": "web-steady-rr@1"})
    assert out["digest"] == GOLDEN_DIGESTS["web-steady-rr@1"]


class TestBackendParity:
    """The same scenario jobs through every exec backend → same report
    digest.  This is the distributed-reproducibility claim: a scenario
    id is a complete, location-independent experiment description."""

    BACKENDS = ("serial", "pool", "socket")

    def _report_digest(self, backend: str) -> str:
        from repro.exec.engine import run_jobs
        from repro.exec.job import Job, JobGraph

        graph = JobGraph()
        for sid in sorted(GOLDEN_DIGESTS):
            graph.add(Job(
                id=f"replay-{sid}",
                fn=replay_scenario,
                config={"scenario": sid},
            ))
        report = run_jobs(graph, jobs=2, backend=backend)
        assert report.failed() == [], report.summary()
        for sid in GOLDEN_DIGESTS:
            out = report.result(f"replay-{sid}")
            assert out["digest"] == GOLDEN_DIGESTS[sid], (sid, backend)
        return report.digest()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_each_backend_reproduces_every_golden(self, backend):
        assert len(self._report_digest(backend)) == 64

    def test_backends_agree_on_the_whole_report_digest(self):
        digests = {b: self._report_digest(b) for b in self.BACKENDS}
        assert len(set(digests.values())) == 1, digests


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    print("GOLDEN_DIGESTS = {")
    for sid in list_ids():
        print(f'    "{sid}":\n        "{run(get(sid)).digest()}",')
    print("}")
