"""Property test: :class:`HedgedRunner` under random races.

A fake backend with a few slots completes, fails or holds each
submission (primary or hedge) in an order hypothesis draws, on a fake
clock, with a drawn hedge delay, and either honours ``cancel`` or
ignores it (the loser then still completes, late).  After every poll
and once the backend is drained:

* each job is delivered once, under its real id, carrying the result
  and status of the first of its submissions to complete;
* no hedge is ever submitted while ``capacity() == 0``;
* every hedged job's loser was cancelled, and a late result from it
  never reaches the caller;
* the ``hedges_launched``/``hedges_won`` counts, and the session
  registry's ``exec.router.hedge_launched``/``hedge_won`` counters,
  match the hedges submitted and the hedges that won.

Runs without shrinking: a failure reports the example it drew.
"""

from __future__ import annotations

from types import SimpleNamespace
from unittest import mock

from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from repro.core.instrument import MetricsRegistry, install_session
from repro.exec.backends import hedge
from repro.exec.backends.hedge import HEDGE_SUFFIX, HedgedRunner
from repro.exec.job import Job
from repro.exec.runners import ATTEMPT_ERROR, ATTEMPT_OK, Attempt

NO_SHRINK = tuple(p for p in Phase if p is not Phase.shrink)


class RaceBackend:
    """Holds every submission until the test completes it."""

    def __init__(self, slots: int, honour_cancel: bool, clock, delay_s):
        self.slots = slots
        self.honour_cancel = honour_cancel
        self.clock = clock
        self.delay_s = delay_s
        self.submitted_at: dict[str, float] = {}
        self.running: list[str] = []
        self.done: list[Attempt] = []
        self.hedges: list[str] = []
        self.cancelled: list[str] = []
        #: Submission ids in the order they completed.
        self.completed: list[str] = []
        self.status: dict[str, str] = {}

    def capacity(self) -> int:
        return self.slots - len(self.running)

    def active(self) -> int:
        return len(self.running)

    def submit(self, job, config, timeout_s, **extras) -> None:
        now = self.clock.perf_counter()
        if job.id.endswith(HEDGE_SUFFIX):
            assert self.capacity() > 0, f"hedge {job.id} with no free slot"
            assert job.id not in self.hedges, f"second hedge {job.id}"
            assert now >= self.submitted_at[real_id(job.id)] + self.delay_s
            self.hedges.append(job.id)
        self.submitted_at[job.id] = now
        self.running.append(job.id)

    def complete(self, index: int, ok: bool) -> None:
        sub_id = self.running.pop(index % len(self.running))
        status = ATTEMPT_OK if ok else ATTEMPT_ERROR
        self.completed.append(sub_id)
        self.status[sub_id] = status
        self.done.append(Attempt(sub_id, status, {"by": sub_id},
                                 None if ok else "boom", 0.0))

    def poll(self) -> list[Attempt]:
        out, self.done = self.done, []
        return out

    def cancel(self, sub_id: str) -> bool:
        self.cancelled.append(sub_id)
        if self.honour_cancel and sub_id in self.running:
            self.running.remove(sub_id)
            return True
        return False

    def shutdown(self) -> None:
        pass


steps = st.lists(
    st.one_of(
        st.tuples(st.just("submit")),
        st.tuples(st.just("poll")),
        st.tuples(st.just("tick"), st.sampled_from([0.0, 0.5, 1.0, 2.0])),
        st.tuples(st.just("finish"), st.integers(0, 7), st.booleans()),
    ),
    max_size=60,
)


def real_id(sub_id: str) -> str:
    return sub_id.removesuffix(HEDGE_SUFFIX)


@settings(max_examples=300, phases=NO_SHRINK)
@given(
    slots=st.integers(1, 4),
    delay_s=st.sampled_from([0.0, 1.0, 3.0]),
    honour_cancel=st.booleans(),
    script=steps,
)
def test_every_job_is_delivered_once_with_its_first_result(
    slots, delay_s, honour_cancel, script
):
    now = [0.0]
    clock = SimpleNamespace(perf_counter=lambda: now[0])
    backend = RaceBackend(slots, honour_cancel, clock, delay_s)
    registry = MetricsRegistry(enabled=True)
    delivered: dict[str, Attempt] = {}
    submitted: list[str] = []
    prev = install_session(registry)
    try:
        with mock.patch.object(hedge, "time", clock):
            runner = HedgedRunner(backend, delay_s)

            def poll() -> None:
                for attempt in runner.poll():
                    assert attempt.job_id in submitted
                    assert attempt.job_id not in delivered, "delivered twice"
                    delivered[attempt.job_id] = attempt

            for step in script:
                if step[0] == "submit" and backend.capacity() > 0:
                    jid = f"j{len(submitted)}"
                    submitted.append(jid)
                    runner.submit(Job(id=jid, fn=lambda c: c), None, None)
                elif step[0] == "poll":
                    poll()
                elif step[0] == "tick":
                    now[0] += step[1]
                elif step[0] == "finish" and backend.running:
                    backend.complete(step[1], step[2])
            # Drain: finish whatever still runs, late losers included.
            poll()
            while backend.running:
                backend.complete(0, True)
                poll()
    finally:
        install_session(prev)

    assert sorted(delivered) == sorted(submitted)
    won = 0
    for jid, attempt in delivered.items():
        first = next(s for s in backend.completed if real_id(s) == jid)
        assert attempt.result == {"by": first}
        assert attempt.status == backend.status[first]
        hedge_id = jid + HEDGE_SUFFIX
        if hedge_id in backend.hedges:
            loser = jid if first == hedge_id else hedge_id
            assert loser in backend.cancelled
            won += first == hedge_id
        else:
            assert jid not in backend.cancelled and first == jid
    assert runner.hedges_launched == len(backend.hedges)
    assert runner.hedges_won == won
    assert registry.counter("exec.router.hedge_launched").value == len(
        backend.hedges
    )
    assert registry.counter("exec.router.hedge_won").value == won
