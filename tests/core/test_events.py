"""Tests for the discrete-event simulation kernel."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.events import PeriodicSource, Simulator


def record(log):
    def cb(sim, payload):
        log.append((sim.now, payload))

    return cb


class TestOrdering:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        log = []
        sim.schedule(3.0, record(log), "c")
        sim.schedule(1.0, record(log), "a")
        sim.schedule(2.0, record(log), "b")
        sim.run()
        assert [p for _, p in log] == ["a", "b", "c"]
        assert [t for t, _ in log] == [1.0, 2.0, 3.0]

    def test_ties_break_by_insertion_order(self):
        sim = Simulator()
        log = []
        for name in "abcd":
            sim.schedule(5.0, record(log), name)
        sim.run()
        assert [p for _, p in log] == list("abcd")

    @given(st.lists(st.floats(min_value=0, max_value=1e6), max_size=50))
    def test_property_execution_times_nondecreasing(self, delays):
        sim = Simulator()
        log = []
        for d in delays:
            sim.schedule(d, record(log), None)
        sim.run()
        times = [t for t, _ in log]
        assert times == sorted(times)
        assert len(times) == len(delays)


class TestScheduling:
    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule(-0.1, record([]))

    def test_schedule_at_absolute(self):
        sim = Simulator(start_time=10.0)
        log = []
        sim.schedule_at(12.5, record(log), "x")
        with pytest.raises(ValueError):
            sim.schedule_at(9.0, record(log))
        sim.run()
        assert log == [(12.5, "x")]

    def test_callbacks_can_schedule_more(self):
        sim = Simulator()
        log = []

        def chain(s, depth):
            log.append(s.now)
            if depth > 0:
                s.schedule(1.0, chain, depth - 1)

        sim.schedule(0.0, chain, 3)
        sim.run()
        assert log == [0.0, 1.0, 2.0, 3.0]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        log = []
        token = sim.schedule(1.0, record(log), "dead")
        sim.schedule(2.0, record(log), "live")
        token.cancel()
        sim.run()
        assert [p for _, p in log] == ["live"]
        assert sim.stats.events_cancelled == 1

    def test_peek_skips_cancelled(self):
        sim = Simulator()
        token = sim.schedule(1.0, record([]))
        sim.schedule(2.0, record([]))
        token.cancel()
        assert sim.peek_time() == 2.0


class TestRunControl:
    def test_until_horizon_inclusive(self):
        sim = Simulator()
        log = []
        sim.schedule(1.0, record(log), "in")
        sim.schedule(2.0, record(log), "at")
        sim.schedule(3.0, record(log), "beyond")
        sim.run(until=2.0)
        assert [p for _, p in log] == ["in", "at"]
        assert sim.now == 2.0
        sim.run()  # resumes
        assert [p for _, p in log] == ["in", "at", "beyond"]

    def test_max_events_budget(self):
        sim = Simulator()
        log = []
        for i in range(10):
            sim.schedule(float(i), record(log), i)
        sim.run(max_events=4)
        assert len(log) == 4

    def test_stats_counts(self):
        sim = Simulator()
        for i in range(5):
            sim.schedule(float(i), record([]))
        stats = sim.run()
        assert stats.events_executed == 5
        assert stats.end_time == 4.0

    def test_reentrant_run_rejected(self):
        sim = Simulator()

        def nested(s, _):
            with pytest.raises(RuntimeError):
                s.run()

        sim.schedule(0.0, nested)
        sim.run()

    def test_len_counts_pending(self):
        sim = Simulator()
        sim.schedule(1.0, record([]))
        sim.schedule(2.0, record([]))
        assert len(sim) == 2


class TestPeriodicSource:
    def test_fires_at_period(self):
        sim = Simulator()
        log = []
        src = PeriodicSource(period=2.0, callback=record(log), payload="tick")
        src.start(sim)
        sim.run(until=7.0)
        assert [t for t, _ in log] == [0.0, 2.0, 4.0, 6.0]
        assert src.fires == 4

    def test_stop_after(self):
        sim = Simulator()
        log = []
        src = PeriodicSource(
            period=1.0, callback=record(log), stop_after=2.5
        )
        src.start(sim)
        sim.run(until=100.0)
        assert [t for t, _ in log] == [0.0, 1.0, 2.0]

    def test_bad_period(self):
        sim = Simulator()
        src = PeriodicSource(period=0.0, callback=record([]))
        with pytest.raises(ValueError):
            src.start(sim)


class TestFastPaths:
    """The PR3 hot-path APIs: cancellable=False and schedule_many."""

    def test_non_cancellable_returns_no_token(self):
        sim = Simulator()
        log = []
        assert sim.schedule(1.0, record(log), "a", cancellable=False) is None
        assert sim.schedule_at(2.0, record(log), "b", cancellable=False) is None
        sim.run()
        assert [p for _, p in log] == ["a", "b"]

    def test_schedule_many_matches_loop_order(self):
        times = [0.0, 1.0, 1.0, 3.0, 7.5]
        loop_log, many_log = [], []
        sim = Simulator()
        for i, t in enumerate(times):
            sim.schedule_at(t, record(loop_log), i, cancellable=False)
        sim.run()
        sim2 = Simulator()
        assert sim2.schedule_many(times, record(many_log), payloads=range(5)) == 5
        sim2.run()
        assert many_log == loop_log

    def test_schedule_many_out_of_order_batch(self):
        sim = Simulator()
        log = []
        sim.schedule_many([5.0, 1.0, 3.0, 0.5], record(log), payloads="abcd")
        sim.run()
        assert [p for _, p in log] == ["d", "b", "c", "a"]
        assert [t for t, _ in log] == [0.5, 1.0, 3.0, 5.0]

    def test_schedule_many_interleaves_with_singles(self):
        # Batch into the lane, singles into the heap and lane: the merge
        # must still fire in global (time, insertion) order.
        sim = Simulator()
        log = []
        sim.schedule_many([2.0, 4.0, 6.0], record(log), payloads="ABC")
        sim.schedule_at(3.0, record(log), "x")   # behind lane tail -> heap
        sim.schedule_at(6.0, record(log), "y")   # tie: after batch's C
        sim.schedule_at(1.0, record(log), "z")
        sim.run()
        assert [p for _, p in log] == ["z", "A", "x", "B", "C", "y"]

    def test_schedule_many_rejects_past_and_mismatch(self):
        sim = Simulator()
        sim.schedule_at(1.0, record([]), cancellable=False)
        sim.run()
        assert sim.now == 1.0
        with pytest.raises(ValueError):
            sim.schedule_many([0.5], record([]))
        with pytest.raises(ValueError):
            sim.schedule_many([2.0, 3.0], record([]), payloads=[1])

    def test_schedule_many_empty(self):
        sim = Simulator()
        assert sim.schedule_many([], record([])) == 0
        sim.run()
        assert sim.now == 0.0

    def test_callbacks_can_bulk_schedule(self):
        sim = Simulator()
        log = []

        def fanout(s, _):
            s.schedule_many([s.now + 1.0, s.now + 2.0], record(log), payloads="ab")

        sim.schedule(1.0, fanout)
        sim.run()
        assert [(t, p) for t, p in log] == [(2.0, "a"), (3.0, "b")]

    def test_schedule_batch_is_schedule_many(self):
        log = []
        sim = Simulator()
        assert sim.schedule_batch([0.0, 1.0, 2.0], record(log),
                                  payloads="abc") == 3
        assert len(sim) == 3
        sim.run()
        assert log == [(0.0, "a"), (1.0, "b"), (2.0, "c")]

    def test_until_horizon_is_inclusive_on_a_bulk_loaded_train(self):
        log = []
        sim = Simulator()
        sim.schedule_batch([float(i) for i in range(100)], record(log),
                           payloads=range(100))
        expected = [(float(i), i) for i in range(100)]
        sim.run(until=49.0)
        # The event at exactly 49.0 ran; the clock stops on it.
        assert log == expected[:50]
        assert sim.now == 49.0
        sim.run()
        assert log == expected

    def test_probe_added_mid_run_sees_every_later_event(self):
        seen = []
        log = []
        sim = Simulator()
        sim.schedule_batch([float(i) for i in range(100)], record(log),
                           payloads=range(100))
        sim.schedule_at(
            40.5,
            lambda s, _p: s.add_probe(lambda _s, e: seen.append(e.payload)),
            -1,
        )
        sim.run()
        assert log == [(float(i), i) for i in range(100)]
        # The probe sees the event that installed it and every later
        # event, each exactly once.
        assert seen == [-1] + list(range(41, 100))


class TestPendingCounts:
    """__len__ over-counts cancelled entries by design; pending_live is exact."""

    def test_len_counts_cancelled_until_purged(self):
        sim = Simulator()
        tok = sim.schedule(1.0, record([]))
        sim.schedule(2.0, record([]))
        tok.cancel()
        # The cancelled entry is still queued (lazy cancellation) ...
        assert len(sim) == 2
        assert sim.pending_live() == 1
        # ... and purging it at the head reconciles the two counts.
        assert sim.peek_time() == 2.0
        assert len(sim) == 1
        assert sim.pending_live() == 1

    def test_cancelled_head_in_heap_and_lane(self):
        sim = Simulator()
        sim.schedule_at(5.0, record([]), cancellable=False)
        tok_heap = sim.schedule_at(1.0, record([]))  # behind tail -> heap
        tok_lane = sim.schedule_at(5.0, record([]))
        tok_heap.cancel()
        tok_lane.cancel()
        assert len(sim) == 3
        assert sim.pending_live() == 1
        stats = sim.run()
        assert stats.events_executed == 1
        assert stats.events_cancelled == 2
        assert len(sim) == 0 and sim.pending_live() == 0


#: Every way to hand the kernel a time: one NaN must be refused by each.
_NAN_ENTRY_POINTS = {
    "schedule_at": lambda sim, cb: sim.schedule_at(math.nan, cb),
    "schedule": lambda sim, cb: sim.schedule(math.nan, cb),
    "schedule_many-list": lambda sim, cb: sim.schedule_many([2.0, math.nan], cb),
    "schedule_many-numpy": lambda sim, cb: sim.schedule_many(
        np.array([2.0, math.nan]), cb),
    "run-until": lambda sim, cb: sim.run(until=math.nan),
}


class TestNanTimes:
    """NaN compares false both ways, so a ``t < now`` guard lets it
    through and the clock then runs backwards (5.0 -> nan -> 1.0)."""

    @pytest.mark.parametrize("entry", sorted(_NAN_ENTRY_POINTS))
    def test_nan_time_is_rejected(self, entry):
        sim = Simulator()
        log = []
        sim.schedule_at(5.0, record(log), "a")
        sim.schedule_at(1.0, record(log), "b")
        with pytest.raises(ValueError):
            _NAN_ENTRY_POINTS[entry](sim, record(log))
        assert len(sim) == 2
        sim.run()
        assert log == [(1.0, "b"), (5.0, "a")]


#: A rejected bulk load must take no sequence number: each one once
#: left ``events_executed`` counting work that never ran.
_REJECTED_LOADS = {
    **_NAN_ENTRY_POINTS,
    "schedule_many-past": lambda sim, cb: sim.schedule_many([2.0, -1.0], cb),
    "schedule_many-payload-count": lambda sim, cb: sim.schedule_many(
        [1.0, 2.0, 3.0], cb, payloads=["a", "b"]),
}


@pytest.mark.parametrize("entry", sorted(_REJECTED_LOADS))
def test_rejected_load_leaves_the_kernel_as_it_was(entry):
    sim, clean = Simulator(), Simulator()
    with pytest.raises(ValueError):
        _REJECTED_LOADS[entry](sim, record([]))
    assert sim.schedule(1.0, record([])).seq == clean.schedule(
        1.0, record([])).seq
    assert sim.snapshot().events_executed == 0
    log = []
    sim.schedule_many([2.0, 3.0], record(log), payloads="ab")
    sim.run()
    assert log == [(2.0, "a"), (3.0, "b")]
    assert sim.stats.events_executed == 3


class TestRunGuards:
    def test_peek_and_step_rejected_mid_run(self):
        sim = Simulator()
        errors = []

        def probe_kernel(s, _):
            for fn in (s.peek_time, s.step):
                try:
                    fn()
                except RuntimeError:
                    errors.append(fn.__name__)

        sim.schedule(1.0, probe_kernel)
        sim.run()
        assert errors == ["peek_time", "step"]

    def test_step_drains_mixed_lanes(self):
        sim = Simulator()
        log = []
        sim.schedule_many([2.0, 4.0], record(log), payloads="AB")
        sim.schedule_at(3.0, record(log), "x")
        while sim.step():
            pass
        assert [p for _, p in log] == ["A", "x", "B"]
        assert sim.now == 4.0


class TestPendingCountsMidRun:
    """Mid-run pending counts include a far-off heap entry the drain
    stretches past (PR5 fix: ``__len__`` once disagreed with
    ``pending_live`` while the drain held that entry aside)."""

    def test_len_and_live_count_far_heap_entry(self):
        sim = Simulator()

        def noop(s, p):
            pass

        seen = {}

        def check(s, p):
            seen["len"] = len(s)
            seen["live"] = s.pending_live()

        for i in range(1, 21):
            # The checker is a *lane* event so it observes the counts
            # from inside a lane stretch.
            sim.schedule_at(float(i), check if i == 5 else noop)
        sim.schedule_at(15.5, noop)  # behind the lane tail -> heap
        sim.run()
        # run() keeps its lane cursor in a local, so mid-run both counts
        # still include the consumed lane prefix (20 lane + 1 heap) —
        # but they agree with each other, heap entry included.  Before
        # the PR5 fix ``len`` read 20 while ``pending_live`` read 21.
        assert seen["len"] == seen["live"] == 21

    def test_cancelled_far_heap_entry_in_len_not_live(self):
        sim = Simulator()

        def noop(s, p):
            pass

        seen = {}

        def check(s, p):
            seen["len"] = len(s)
            seen["live"] = s.pending_live()

        for i in range(1, 21):
            sim.schedule_at(float(i), check if i == 5 else noop)
        token = sim.schedule_at(15.5, noop)
        token.cancel()
        sim.run()
        assert seen["len"] == 21  # cancelled-but-unpurged still pending
        assert seen["live"] == 20  # ...but not live


class TestRepr:
    def test_repr_shows_pending_live_and_executed(self):
        sim = Simulator()
        log = []
        sim.schedule(1.0, record(log), "a")
        tok = sim.schedule(2.0, record(log), "b")
        tok.cancel()
        assert repr(sim) == "<Simulator t=0 pending=2 live=1 executed=0>"
        sim.run()
        assert repr(sim) == "<Simulator t=1 pending=0 live=0 executed=1>"


class TestInitHooks:
    def test_hook_fires_for_new_simulators_until_removed(self):
        from repro.core import events as events_mod

        born = []
        hook = born.append
        events_mod.add_init_hook(hook)
        try:
            sim = Simulator()
            assert born == [sim]
        finally:
            events_mod.remove_init_hook(hook)
        Simulator()
        assert born == [sim]

    def test_removing_unknown_hook_is_noop(self):
        from repro.core import events as events_mod

        events_mod.remove_init_hook(lambda s: None)
