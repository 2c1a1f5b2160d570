"""Hedged dispatch: duplicate the straggler, keep the first answer.

Unit tests drive the router against a scriptable in-process backend so
every race is deterministic; one end-to-end test runs a real straggler
through the process pool and checks the hedge actually beats it.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.exec.backends.router import BackendRouter, HedgePolicy
from repro.exec.backends import make_backend
from repro.exec.engine import ExecutionEngine
from repro.exec.job import Job, JobGraph
from repro.exec.runners import ATTEMPT_OK, Attempt


class FakeBackend:
    """Scriptable Runner: completions happen when the test says so."""

    def __init__(self, slots: int = 4, worker: str = "w0"):
        self.slots = slots
        self.worker = worker
        self.inflight: dict[str, Job] = {}
        self.results: list[Attempt] = []
        self.cancelled: list[str] = []
        self.quarantined: list[str] = []

    def capacity(self) -> int:
        return self.slots - len(self.inflight)

    def active(self) -> int:
        return len(self.inflight)

    def submit(self, job, config, timeout_s, **extras) -> None:
        self.inflight[job.id] = job

    def complete(
        self, sub_id: str, result=None, status: str = ATTEMPT_OK,
        worker: str | None = None, duration_s: float = 0.01,
    ) -> None:
        self.inflight.pop(sub_id, None)
        self.results.append(
            Attempt(
                sub_id, status, result,
                None if status == ATTEMPT_OK else "boom",
                duration_s, worker=worker or self.worker,
            )
        )

    def poll(self) -> list[Attempt]:
        out, self.results = self.results, []
        return out

    def cancel(self, sub_id: str) -> bool:
        self.cancelled.append(sub_id)
        return self.inflight.pop(sub_id, None) is not None

    def quarantine_worker(self, name: str) -> None:
        self.quarantined.append(name)

    def shutdown(self) -> None:
        pass


def _job(jid: str = "j1") -> Job:
    return Job(id=jid, fn=lambda c: c)


def test_policy_validation():
    with pytest.raises(ValueError, match="delay_s"):
        HedgePolicy(delay_s=-1.0)
    with pytest.raises(ValueError, match="quantile"):
        HedgePolicy(quantile=1.0)
    with pytest.raises(ValueError, match="min_observations"):
        HedgePolicy(min_observations=0)


def test_hedge_wins_and_primary_is_cancelled():
    fake = FakeBackend()
    router = BackendRouter({"a": fake}, hedge=HedgePolicy(delay_s=0.0))
    router.submit(_job(), None, None)
    assert router.poll() == []  # launches the hedge, nothing done yet
    assert set(fake.inflight) == {"j1", "j1~~h1"}
    assert router.hedges_launched == 1

    fake.complete("j1~~h1", {"answer": 42}, worker="w-hedge")
    (attempt,) = router.poll()
    assert attempt.job_id == "j1"  # rewritten to the real id
    assert attempt.ok and attempt.result == {"answer": 42}
    assert router.hedges_won == 1
    assert router.hedged["j1"]["won_by"] == "hedge"
    assert router.hedged["j1"]["worker"] == "w-hedge"
    assert "j1" in fake.cancelled  # the straggling primary

    # The cancelled primary straggles in anyway: dropped, not delivered.
    fake.results.append(Attempt("j1", ATTEMPT_OK, {"answer": 41}, None, 9.9))
    assert router.poll() == []


def test_primary_wins_and_hedge_is_cancelled():
    fake = FakeBackend()
    router = BackendRouter({"a": fake}, hedge=HedgePolicy(delay_s=0.0))
    router.submit(_job(), None, None)
    router.poll()
    fake.complete("j1", {"answer": 1})
    (attempt,) = router.poll()
    assert attempt.job_id == "j1" and attempt.ok
    assert router.hedged["j1"]["won_by"] == "primary"
    assert router.hedges_won == 0
    assert "j1~~h1" in fake.cancelled


def test_unexpired_flight_is_not_hedged():
    fake = FakeBackend()
    router = BackendRouter({"a": fake}, hedge=HedgePolicy(delay_s=60.0))
    router.submit(_job(), None, None)
    router.poll()
    assert set(fake.inflight) == {"j1"}
    assert router.hedges_launched == 0
    fake.complete("j1", {"x": 1})
    (attempt,) = router.poll()
    assert attempt.ok
    assert "j1" not in router.hedged  # never hedged, no provenance entry


def test_max_hedges_caps_duplicates():
    fake = FakeBackend(slots=8)
    router = BackendRouter(
        {"a": fake}, hedge=HedgePolicy(delay_s=0.0, max_hedges=1)
    )
    router.submit(_job("j1"), None, None)
    router.submit(_job("j2"), None, None)
    router.poll()
    hedges = [sub for sub in fake.inflight if "~~h" in sub]
    assert len(hedges) == 1
    assert router.hedges_launched == 1


def test_hedge_never_displaces_first_attempts():
    fake = FakeBackend(slots=1)  # the primary fills the only slot
    router = BackendRouter({"a": fake}, hedge=HedgePolicy(delay_s=0.0))
    router.submit(_job(), None, None)
    router.poll()
    assert set(fake.inflight) == {"j1"}
    assert router.hedges_launched == 0


def test_adaptive_delay_needs_observations_then_tracks_quantile():
    fake = FakeBackend()
    router = BackendRouter(
        {"a": fake},
        hedge=HedgePolicy(quantile=0.5, min_observations=4),
    )
    assert router._hedge_delay() is None  # noqa: SLF001 - not enough data
    for i, duration in enumerate((0.01, 0.02, 0.03, 0.04)):
        jid = f"q{i}"
        router.submit(_job(jid), None, None)
        fake.complete(jid, {"i": i}, duration_s=duration)
        router.poll()
    assert router._hedge_delay() == pytest.approx(0.03)  # noqa: SLF001


# ---------------------------------------------------------------------------
# End to end: a real straggler through the pool, hedged away
# ---------------------------------------------------------------------------


def _transient_straggler(config: dict) -> dict:
    """Slow on the first placement, fast on any later one."""
    marker = config["marker"]
    if not os.path.exists(marker):
        with open(marker, "w", encoding="utf-8"):
            pass
        time.sleep(0.6)
    else:
        time.sleep(0.01)
    return {"tag": config["tag"]}


def test_hedged_pool_run_beats_the_straggler(tmp_path):
    router = BackendRouter(
        {"pool": make_backend("pool", 2)},
        hedge=HedgePolicy(delay_s=0.08),
    )
    engine = ExecutionEngine(runner=router)
    graph = JobGraph([
        Job(
            id="straggle",
            fn=_transient_straggler,
            config={"marker": str(tmp_path / "m"), "tag": "t"},
        )
    ])
    report = engine.run(graph)
    assert report.ok
    assert report.result("straggle") == {"tag": "t"}
    assert report.routing is not None
    hedges = report.routing["hedges"]
    assert hedges["launched"] == 1
    assert hedges["won"] == 1
    assert hedges["by_job"]["straggle"]["won_by"] == "hedge"
    assert "1 hedged (1 won)" in report.one_line()
