"""Result cross-checking: DMR/vote replication, the masked/SDC/detected
taxonomy, and quarantine of workers that keep losing votes."""

from __future__ import annotations

import pytest

from repro.exec.backends.router import (
    BackendRouter,
    VerifyPolicy,
    result_hash,
)
from repro.exec.backends import make_backend
from repro.exec.engine import ExecutionEngine
from repro.exec.job import Job, JobGraph
from repro.exec.runners import ATTEMPT_ERROR

from .test_hedging import FakeBackend


def _job(jid: str = "j1", **kwargs) -> Job:
    return Job(id=jid, fn=lambda c: c, **kwargs)


def test_policy_validation():
    with pytest.raises(ValueError, match="mode"):
        VerifyPolicy(mode="tmr")
    with pytest.raises(ValueError, match="quarantine_after"):
        VerifyPolicy(quarantine_after=0)
    assert VerifyPolicy(mode="dmr").replicas == 2
    assert VerifyPolicy(mode="vote").replicas == 3


def test_job_verify_field_is_validated():
    with pytest.raises(ValueError, match="verify"):
        Job(id="x", fn=lambda c: c, verify="bogus")


def test_result_hash_is_order_insensitive():
    assert result_hash({"a": 1, "b": 2}) == result_hash({"b": 2, "a": 1})
    assert result_hash({"a": 1}) != result_hash({"a": 2})


def test_dmr_agreement_is_masked():
    fake = FakeBackend()
    router = BackendRouter({"a": fake}, verify=VerifyPolicy(mode="dmr"))
    router.submit(_job(), None, None)
    assert set(fake.inflight) == {"j1~~r0", "j1~~r1"}
    fake.complete("j1~~r0", {"x": 1}, worker="w0")
    fake.complete("j1~~r1", {"x": 1}, worker="w1")
    (attempt,) = router.poll()
    assert attempt.job_id == "j1" and attempt.ok
    assert attempt.result == {"x": 1}
    assert router.verified["j1"]["outcome"] == "masked"
    assert router.verify_outcomes == {"masked": 1, "sdc": 0, "detected": 0}
    assert fake.quarantined == []


def test_vote_outvotes_silent_corruption_and_quarantines():
    fake = FakeBackend()
    router = BackendRouter(
        {"a": fake},
        verify=VerifyPolicy(mode="vote", quarantine_after=1),
    )
    router.submit(_job(), None, None)
    assert len(fake.inflight) == 3
    fake.complete("j1~~r0", {"x": 1}, worker="honest-0")
    fake.complete("j1~~r1", {"x": 999}, worker="liar")  # the SDC
    fake.complete("j1~~r2", {"x": 1}, worker="honest-1")
    (attempt,) = router.poll()
    assert attempt.ok and attempt.result == {"x": 1}  # majority answer
    assert router.verified["j1"]["outcome"] == "sdc"
    assert router.verified["j1"]["suspects"] == ["liar"]
    assert router.suspects == ["liar"]
    assert fake.quarantined == ["liar"]  # pushed down to the backend
    report = router.routing_report()
    assert report["verification"]["outcomes"]["sdc"] == 1
    assert report["verification"]["suspects"] == ["liar"]


def test_failed_replica_with_agreeing_survivor_is_detected():
    fake = FakeBackend()
    router = BackendRouter({"a": fake}, verify=VerifyPolicy(mode="dmr"))
    router.submit(_job(), None, None)
    fake.complete("j1~~r0", None, status=ATTEMPT_ERROR, worker="w0")
    fake.complete("j1~~r1", {"x": 5}, worker="w1")
    (attempt,) = router.poll()
    assert attempt.ok and attempt.result == {"x": 5}
    assert router.verified["j1"]["outcome"] == "detected"


def test_all_replicas_failing_is_detected_and_fails_the_job():
    fake = FakeBackend()
    router = BackendRouter({"a": fake}, verify=VerifyPolicy(mode="dmr"))
    router.submit(_job(), None, None)
    fake.complete("j1~~r0", None, status=ATTEMPT_ERROR)
    fake.complete("j1~~r1", None, status=ATTEMPT_ERROR)
    (attempt,) = router.poll()
    assert not attempt.ok
    assert "replicas failed" in (attempt.error or "")
    assert router.verified["j1"]["outcome"] == "detected"


def test_dmr_tie_gets_one_tiebreak_reexecution():
    fake = FakeBackend()
    router = BackendRouter({"a": fake}, verify=VerifyPolicy(mode="dmr"))
    router.submit(_job(), None, None)
    fake.complete("j1~~r0", {"x": 1}, worker="w0")
    fake.complete("j1~~r1", {"x": 2}, worker="w1")
    assert router.poll() == []  # 1-vs-1: the vote stays open
    assert "j1~~tb1" in fake.inflight  # tie-breaking re-execution
    fake.complete("j1~~tb1", {"x": 1}, worker="w2")
    (attempt,) = router.poll()
    assert attempt.ok and attempt.result == {"x": 1}
    assert router.verified["j1"]["outcome"] == "sdc"
    assert router.verified["j1"]["suspects"] == ["w1"]


def test_unresolvable_disagreement_refuses_to_guess():
    fake = FakeBackend()
    router = BackendRouter({"a": fake}, verify=VerifyPolicy(mode="vote"))
    router.submit(_job(), None, None)
    fake.complete("j1~~r0", {"x": 1}, worker="w0")
    fake.complete("j1~~r1", {"x": 2}, worker="w1")
    fake.complete("j1~~r2", {"x": 3}, worker="w2")
    assert router.poll() == []  # three-way split: one tiebreak allowed
    fake.complete("j1~~tb1", {"x": 4}, worker="w3")  # still no majority
    (attempt,) = router.poll()
    assert not attempt.ok
    assert "refusing to pick one" in (attempt.error or "")
    assert router.verified["j1"]["outcome"] == "sdc"


def test_per_job_verify_overrides_router_default():
    fake = FakeBackend()
    router = BackendRouter({"a": fake})  # no router-wide verification
    router.submit(_job("plain"), None, None)
    assert set(fake.inflight) == {"plain"}
    router.submit(_job("checked", verify="dmr"), None, None)
    assert {"checked~~r0", "checked~~r1"} <= set(fake.inflight)


def test_capacity_fans_down_under_verification():
    fake = FakeBackend(slots=6)
    router = BackendRouter({"a": fake}, verify=VerifyPolicy(mode="vote"))
    assert router.capacity() == 2  # 6 slots / 3 replicas


def test_replicas_defer_rather_than_overrun_capacity():
    fake = FakeBackend(slots=2)
    router = BackendRouter({"a": fake}, verify=VerifyPolicy(mode="vote"))
    router.submit(_job(), None, None)
    assert len(fake.inflight) == 2  # third replica parked, not forced
    assert router.active() == 3  # but still counted as in flight
    fake.complete("j1~~r0", {"x": 1}, worker="w0")
    assert router.poll() == []  # frees a slot; deferred replica flushes
    assert "j1~~r2" in fake.inflight
    fake.complete("j1~~r1", {"x": 1}, worker="w1")
    fake.complete("j1~~r2", {"x": 1}, worker="w2")
    (attempt,) = router.poll()
    assert attempt.ok and attempt.result == {"x": 1}
    assert router.verified["j1"]["outcome"] == "masked"


# ---------------------------------------------------------------------------
# Through the engine: provenance lands in the report
# ---------------------------------------------------------------------------


def _identity(config: dict) -> dict:
    return {"i": config["i"]}


def test_engine_run_records_verification_provenance():
    router = BackendRouter(
        {"pool": make_backend("pool", 2)}, verify=VerifyPolicy(mode="dmr")
    )
    engine = ExecutionEngine(runner=router)
    graph = JobGraph(
        Job(id=f"v{i}", fn=_identity, config={"i": i}) for i in range(2)
    )
    report = engine.run(graph)
    assert report.ok
    assert report.result("v0") == {"i": 0}
    verification = report.routing["verification"]
    assert verification["mode"] == "dmr"
    assert verification["outcomes"]["masked"] == 2
    assert verification["by_job"]["v1"]["outcome"] == "masked"
