"""Hedged dispatch: duplicate the straggler, keep the first answer.

Unit tests drive :class:`HedgedRunner` against a scriptable in-process
backend so every race is deterministic; one end-to-end test runs a real
straggler through the process pool and checks the hedge actually beats
it.  ``test_hedging_props.py`` draws the races at random.
"""

from __future__ import annotations

import math
import os
import time

import pytest

from repro.exec.backends import make_backend
from repro.exec.backends.hedge import HedgedRunner
from repro.exec.engine import ExecutionEngine
from repro.exec.job import Job, JobGraph
from repro.exec.runners import ATTEMPT_OK, Attempt


class FakeBackend:
    """Scriptable Runner: completions happen when the test says so."""

    def __init__(self, slots: int = 4):
        self.slots = slots
        self.inflight: dict[str, Job] = {}
        self.results: list[Attempt] = []
        self.cancelled: list[str] = []

    def capacity(self) -> int:
        return self.slots - len(self.inflight)

    def active(self) -> int:
        return len(self.inflight)

    def submit(self, job, config, timeout_s, **extras) -> None:
        self.inflight[job.id] = job

    def complete(
        self, sub_id: str, result=None, status: str = ATTEMPT_OK,
    ) -> None:
        self.inflight.pop(sub_id, None)
        self.results.append(
            Attempt(
                sub_id, status, result,
                None if status == ATTEMPT_OK else "boom", 0.01,
            )
        )

    def poll(self) -> list[Attempt]:
        out, self.results = self.results, []
        return out

    def cancel(self, sub_id: str) -> bool:
        self.cancelled.append(sub_id)
        return self.inflight.pop(sub_id, None) is not None

    def shutdown(self) -> None:
        pass


def _job(jid: str = "j1") -> Job:
    return Job(id=jid, fn=lambda c: c)


def test_policy_validation():
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="finite number >= 0"):
            HedgedRunner(FakeBackend(), bad)


def test_hedge_wins_and_primary_is_cancelled():
    fake = FakeBackend()
    runner = HedgedRunner(fake, 0.0)
    runner.submit(_job(), None, None)
    assert runner.poll() == []  # launches the hedge, nothing done yet
    assert set(fake.inflight) == {"j1", "j1~~h1"}
    assert runner.hedges_launched == 1

    fake.complete("j1~~h1", {"answer": 42})
    (attempt,) = runner.poll()
    assert attempt.job_id == "j1"  # rewritten to the real id
    assert attempt.ok and attempt.result == {"answer": 42}
    assert runner.hedges_won == 1
    assert "j1" in fake.cancelled  # the straggling primary

    # The cancelled primary straggles in anyway: dropped, not delivered.
    fake.results.append(Attempt("j1", ATTEMPT_OK, {"answer": 41}, None, 9.9))
    assert runner.poll() == []


def test_primary_wins_and_hedge_is_cancelled():
    fake = FakeBackend()
    runner = HedgedRunner(fake, 0.0)
    runner.submit(_job(), None, None)
    runner.poll()
    fake.complete("j1", {"answer": 1})
    (attempt,) = runner.poll()
    assert attempt.job_id == "j1" and attempt.ok
    assert runner.hedges_won == 0
    assert "j1~~h1" in fake.cancelled


def test_unexpired_flight_is_not_hedged():
    fake = FakeBackend()
    runner = HedgedRunner(fake, 60.0)
    runner.submit(_job(), None, None)
    runner.poll()
    assert set(fake.inflight) == {"j1"}
    assert runner.hedges_launched == 0
    fake.complete("j1", {"x": 1})
    (attempt,) = runner.poll()
    assert attempt.ok
    assert fake.cancelled == []  # never hedged, nothing to cancel


def test_a_refused_hedge_leaves_the_primary_running():
    fake = FakeBackend()
    submit = fake.submit

    def refuse_hedges(job, *args, **extras):
        if job.id.endswith("~~h1"):
            raise RuntimeError(f"job {job.id!r} is already running")
        submit(job, *args, **extras)

    fake.submit = refuse_hedges
    runner = HedgedRunner(fake, 0.0)
    runner.submit(_job(), None, None)
    assert runner.poll() == []
    assert runner.poll() == []  # no second try
    assert runner.hedges_launched == 0
    fake.complete("j1", {"x": 1})
    (attempt,) = runner.poll()
    assert attempt.job_id == "j1" and attempt.ok


def test_hedge_never_displaces_first_attempts():
    fake = FakeBackend(slots=1)  # the primary fills the only slot
    runner = HedgedRunner(fake, 0.0)
    runner.submit(_job(), None, None)
    runner.poll()
    assert set(fake.inflight) == {"j1"}
    assert runner.hedges_launched == 0


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
    runner = HedgedRunner(make_backend("pool", 2), 0.08)
    engine = ExecutionEngine(runner=runner)
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
    assert report.backend == "pool"
    assert runner.hedges_launched == 1
    assert runner.hedges_won == 1
