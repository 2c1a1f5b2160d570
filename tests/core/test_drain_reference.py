"""Differential test: ``Simulator.run`` against a one-heap reference kernel.

The kernel drains two lanes (an in-order list and a heap) in stretches.
None of that may show: the executed ``(time, payload)`` stream, the
clock and the exact stats must equal what a plain binary heap of
``(time, seq)`` entries with lazy cancellation produces.  Hypothesis
draws programs that mix the patterns the drain has special cases for:
bulk-loaded trains of several handlers, callbacks that push events
earlier than the lane tail onto the heap mid-stretch (the cluster
pattern), one far-off self-rearming
heap entry (the checkpoint-tick pattern), cancellations before and
during the run, and chained ``run(until=)`` / ``max_events`` calls.
"""

from __future__ import annotations

import heapq

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.events import CancelToken, Simulator, SimStats


class _Reference:
    """One heap, lazy cancel, inclusive ``until``, ``max_events``."""

    def __init__(self) -> None:
        self.now = 0.0
        self.heap: list = []
        self.seq = 0
        self.stats = SimStats()

    def schedule_at(self, time, callback, payload=None, cancellable=True):
        token = CancelToken() if cancellable else None
        heapq.heappush(self.heap, (time, self.seq, token, callback, payload))
        self.seq += 1
        return token

    def schedule_batch(self, times, callback, payloads):
        for t, p in zip(times, payloads):
            self.schedule_at(t, callback, p, cancellable=False)

    def run(self, until=None, max_events=None):
        heap = self.heap
        n = 0
        while heap and (max_events is None or n < max_events):
            time, _seq, token, callback, payload = heap[0]
            if token is not None and token.cancelled:
                heapq.heappop(heap)
                self.stats.events_cancelled += 1
                continue
            if until is not None and time > until:
                self.now = max(self.now, until)
                break
            heapq.heappop(heap)
            self.now = time
            callback(self, payload)
            n += 1
        self.stats.events_executed += n


_STEPS = [0.0, 0.25, 0.5, 1.0]


@st.composite
def _programs(draw):
    # Trains: (handler, length).
    segments = draw(st.lists(
        st.tuples(st.integers(0, 2), st.integers(1, 40)),
        min_size=1, max_size=5,
    ))
    n = sum(length for _, length in segments)
    steps = draw(st.lists(st.sampled_from(_STEPS), min_size=n, max_size=n))
    span = float(sum(steps)) + 1.0
    # Cancellable stragglers scheduled after the trains: most land on
    # the heap inside some train, those past the lane tail in the lane.
    stragglers = draw(st.lists(
        st.floats(0.0, span + 2.0, allow_nan=False), max_size=8,
    ))
    cancel_first = draw(st.sets(st.integers(0, 7), max_size=3))
    cancels = draw(st.dictionaries(
        st.integers(0, n - 1), st.integers(0, 7), max_size=4,
    ))
    # Delays behind the lane tail push onto the heap mid-stretch.
    spawns = draw(st.dictionaries(
        st.integers(0, n - 1),
        st.sampled_from([0.0, 0.25, 0.75, 3.0, 100.0]),
        max_size=8,
    ))
    tick = draw(st.one_of(
        st.none(),
        st.tuples(st.floats(0.0, span, allow_nan=False),
                  st.floats(0.5, span, allow_nan=False),
                  st.integers(1, 4)),
    ))
    runs = draw(st.lists(
        st.one_of(
            st.tuples(st.just("until"), st.floats(0.0, span, allow_nan=False)),
            st.tuples(st.just("max"), st.integers(0, 30)),
            st.tuples(st.just("both"), st.floats(0.0, span, allow_nan=False)),
        ),
        max_size=4,
    ))
    return (segments, steps, stragglers, cancel_first, cancels, spawns,
            tick, runs)


def _execute(sim, program):
    """Load ``program`` onto ``sim``, run it; return the observations."""
    (segments, steps, stragglers, cancel_first, cancels, spawns,
     tick, runs) = program
    log = []
    tokens = []

    def act(s, name, i):
        log.append((name, s.now, i))
        target = cancels.get(i)
        if target is not None and target < len(tokens):
            tokens[target].cancel()
        delay = spawns.get(i)
        if delay is not None:
            s.schedule_at(s.now + delay, spawned, 1000 + i, cancellable=False)

    def h0(s, i):
        act(s, "h0", i)

    def h1(s, i):
        act(s, "h1", i)

    def h2(s, i):
        act(s, "h2", i)

    def spawned(s, i):
        log.append(("spawned", s.now, i))

    handlers = (h0, h1, h2)

    t = 0.0
    idx = 0
    for hid, length in segments:
        times = []
        for _ in range(length):
            times.append(t)
            t += steps[idx]
            idx += 1
        sim.schedule_batch(times, handlers[hid],
                           payloads=range(idx - length, idx))
    for j, when in enumerate(stragglers):
        tokens.append(sim.schedule_at(when, spawned, -1 - j))
    for j in cancel_first:
        if j < len(tokens):
            tokens[j].cancel()
    if tick is not None:
        first, period, fires = tick
        left = [fires]

        def on_tick(s, _p):
            log.append(("tick", s.now, left[0]))
            left[0] -= 1
            if left[0]:
                s.schedule_at(s.now + period, on_tick, None)

        sim.schedule_at(first, on_tick, None)

    observed = []
    for kind, value in runs:
        if kind == "until":
            sim.run(until=value)
        elif kind == "max":
            sim.run(max_events=value)
        else:
            sim.run(until=value, max_events=7)
        observed.append((sim.now, sim.stats.events_executed,
                         sim.stats.events_cancelled))
    sim.run()
    observed.append((sim.now, sim.stats.events_executed,
                     sim.stats.events_cancelled))
    return log, observed


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(_programs())
def test_drain_matches_one_heap_reference(program):
    expected = _execute(_Reference(), program)
    got = _execute(Simulator(), program)
    assert got[0] == expected[0], "executed stream diverged"
    assert got[1] == expected[1], "clock or stats diverged"


def test_horizon_stop_advances_clock_only_when_an_event_lies_beyond():
    """The clock moves to ``until`` on a horizon stop, not when the
    queue drains before reaching it."""
    for sim in (Simulator(), _Reference()):
        sim.schedule_at(1.0, lambda s, p: None, None)
        sim.run(until=5.0)
        assert sim.now == 1.0
        sim.schedule_at(9.0, lambda s, p: None, None)
        sim.run(until=5.0)
        assert sim.now == 5.0
