"""Serve-layer scenario API: catalog endpoint + scenario workload."""

from __future__ import annotations

import json

from repro.scenarios.library import list_ids
from tests.scenarios.test_replay_golden import GOLDEN_DIGESTS


class TestScenarioCatalog:
    def test_get_v1_scenarios_lists_every_bundle(self, serve_factory):
        _, client = serve_factory()
        status, _, body = client.request("GET", "/v1/scenarios")
        assert status == 200
        doc = body
        ids = [s["id"] for s in doc["scenarios"]]
        assert ids == list_ids()


class TestScenarioWorkload:
    def test_submit_replays_and_returns_the_golden_digest(
        self, serve_factory
    ):
        _, client = serve_factory()
        status, _, body = client.submit(
            "scenario", {"scenario": "wear-hotline"}, wait=True,
        )
        assert status == 200
        runs = body["runs"]
        assert len(runs) == 1
        out = runs[0]["result"]
        # Bare name pinned to the versioned id at submission time.
        assert out["scenario"] == "wear-hotline@1"
        assert out["digest"] == GOLDEN_DIGESTS["wear-hotline@1"]

    def test_unknown_scenario_is_rejected_at_submission(
        self, serve_factory
    ):
        _, client = serve_factory()
        status, _, body = client.submit(
            "scenario", {"scenario": "missing@3"}, wait=True,
        )
        assert status == 400
        assert "missing@3" in json.dumps(body)

    def test_bad_fastpath_value_is_rejected(self, serve_factory):
        # The key is retired: every value, the old modes included, is a
        # 400 naming it rather than a silently ignored parameter.
        _, client = serve_factory()
        for bad in ("off", "auto", "on", None):
            status, _, body = client.submit(
                "scenario",
                {"scenario": "wear-hotline@1", "fastpath": bad},
                wait=True,
            )
            assert status == 400
            assert "'fastpath' is retired" in json.dumps(body)
