"""Tests for the instrumentation substrate and kernel hooks.

Covers repro.core.instrument (counters, gauges, streaming quantile
histograms, session registry) and the kernel-side hooks
(probes, periodic samplers, SimModel attach, PeriodicSource stop).
The hypothesis property tests implement DESIGN.md §4's kernel
contract: total time ordering with seq tie-breaking, lazy-cancellation
accounting, and run(until=..., max_events=...) across back-to-back
runs.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import instrument
from repro.core.events import PeriodicSource, SimModel, Simulator
from repro.core.instrument import (
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


class TestCounterGauge:
    def test_counter_increments(self):
        c = Counter("reqs")
        c.inc()
        c.inc(4)
        assert c.value == 5
        assert c.snapshot() == {"type": "counter", "value": 5}

    def test_gauge_tracks_last_value(self):
        g = Gauge("depth")
        g.set(3.0)
        g.set(1.5)
        assert g.value == 1.5


class TestHistogram:
    def test_exact_moments_small_stream(self):
        h = Histogram("lat")
        for v in [1.0, 2.0, 3.0, 4.0]:
            h.observe(v)
        assert h.count == 4
        assert h.total == pytest.approx(10.0)
        assert h.mean == pytest.approx(2.5)
        assert h.min == 1.0 and h.max == 4.0
        assert h.quantile(0.5) == pytest.approx(2.5)

    def test_reservoir_bounded_but_count_exact(self):
        h = Histogram("lat", capacity=128)
        n = 10_000
        for i in range(n):
            h.observe(float(i))
        assert h.count == n
        assert len(h._reservoir) == 128
        # The quantile estimate must land in the right neighbourhood.
        assert h.quantile(0.5) == pytest.approx(n / 2, rel=0.25)

    def test_deterministic_across_runs(self):
        def fill():
            h = Histogram("lat", capacity=64)
            for i in range(5000):
                h.observe(float(i % 311))
            return h.quantile(0.9)

        assert fill() == fill()

    def test_quantiles_identical_across_hash_seeds(self):
        """The reservoir RNG is seeded from the metric name; ``str``
        hashes are salted per process, so the seed must not use them."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        script = (
            "from repro.core.instrument import Histogram\n"
            "h = Histogram('lat', capacity=128)\n"
            "for i in range(10_000):\n"
            "    h.observe(float(i))\n"
            "print([h.quantile(q) for q in (0.1, 0.5, 0.9)])\n"
        )
        src = str(Path(instrument.__file__).resolve().parents[2])
        outputs = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
            proc = subprocess.run(
                [sys.executable, "-c", script], env=env,
                capture_output=True, text=True, check=True, timeout=60,
            )
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]

    def test_empty_quantile_nan(self):
        import math

        assert math.isnan(Histogram("lat").quantile(0.5))


class TestRegistry:
    def test_scoped_names_are_prefixed(self):
        reg = MetricsRegistry()
        reg.scoped("noc").counter("hops").inc(7)
        assert reg.snapshot()["noc.hops"]["value"] == 7

    def test_disabled_registry_returns_null_instruments(self):
        before = NULL_REGISTRY.snapshot()
        NULL_REGISTRY.counter("x").inc()
        NULL_REGISTRY.gauge("y").set(1.0)
        NULL_REGISTRY.histogram("z").observe(1.0)
        assert NULL_REGISTRY.snapshot() == before == {}

    def test_same_name_returns_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.histogram("h") is reg.histogram("h")

    def test_merge_counts(self):
        reg = MetricsRegistry()
        reg.merge_counts([("a", 2), ("b", 3), ("a", 1)])
        snap = reg.snapshot()
        assert snap["a"]["value"] == 3 and snap["b"]["value"] == 3

    def test_report_mentions_every_instrument(self):
        reg = MetricsRegistry()
        reg.counter("events").inc()
        reg.histogram("lat").observe(1.0)
        text = reg.report()
        assert "events" in text and "lat" in text


class TestSessionRegistry:
    def test_enable_then_disable(self):
        try:
            reg = instrument.enable_session()
            assert instrument.default_registry() is reg
            assert Simulator().metrics is reg
        finally:
            instrument.disable_session()
        assert instrument.default_registry() is NULL_REGISTRY

    def test_explicit_metrics_wins_over_session(self):
        mine = MetricsRegistry()
        try:
            instrument.enable_session()
            assert Simulator(metrics=mine).metrics is mine
        finally:
            instrument.disable_session()


class TestProbes:
    def test_probe_sees_every_executed_event(self):
        sim = Simulator()
        seen = []
        sim.add_probe(lambda s, ev: seen.append((ev.time, ev.payload)))
        sim.schedule(1.0, lambda s, p: None, "a")
        token = sim.schedule(2.0, lambda s, p: None, "dead")
        token.cancel()
        sim.schedule(3.0, lambda s, p: None, "b")
        sim.run()
        assert seen == [(1.0, "a"), (3.0, "b")]

    def test_remove_probe(self):
        sim = Simulator()
        seen = []
        probe = lambda s, ev: seen.append(ev.time)  # noqa: E731
        sim.add_probe(probe)
        sim.schedule(1.0, lambda s, p: None)
        sim.run()
        sim.remove_probe(probe)
        sim.schedule(1.0, lambda s, p: None)
        sim.run()
        assert seen == [1.0]


class TestSampler:
    def test_sample_every_cadence(self):
        sim = Simulator()
        samples = []
        sim.sample_every(2.0, lambda s: samples.append(s.now))
        sim.schedule(9.0, lambda s, p: None)  # keep the run alive
        sim.run(until=9.0)
        assert samples == [2.0, 4.0, 6.0, 8.0]

    def test_sampler_chain_cancel_stops_future_samples(self):
        sim = Simulator()
        samples = []
        token = sim.sample_every(1.0, lambda s: samples.append(s.now))
        sim.schedule_at(3.5, lambda s, p: token.cancel())
        sim.schedule(10.0, lambda s, p: None)
        sim.run()
        assert samples == [1.0, 2.0, 3.0]


class TestSimModelProtocol:
    def test_attach_binds_and_tracks(self):
        calls = []

        class Model:
            def bind(self, sim):
                calls.append("bind")

            def reset(self):
                calls.append("reset")

            def finish(self):
                calls.append("finish")

        sim = Simulator()
        model = Model()
        assert isinstance(model, SimModel)
        assert sim.attach(model) is model
        assert model in sim.models
        sim.finish_models()
        assert calls == ["bind", "finish"]


class TestPeriodicSourceStop:
    def test_stop_halts_future_fires(self):
        sim = Simulator()
        log = []
        src = PeriodicSource(period=1.0, callback=lambda s, p: log.append(s.now))
        src.start(sim)
        sim.schedule_at(3.5, lambda s, p: src.stop())
        sim.schedule(10.0, lambda s, p: None)
        sim.run()
        assert log == [0.0, 1.0, 2.0, 3.0]
        assert not src.active

    def test_stop_after_is_inclusive(self):
        # A fire landing exactly at stop_after still happens; only fires
        # strictly beyond it are suppressed.
        sim = Simulator()
        log = []
        src = PeriodicSource(
            period=1.0, callback=lambda s, p: log.append(s.now), stop_after=3.0
        )
        src.start(sim)
        sim.run(until=10.0)
        assert log == [0.0, 1.0, 2.0, 3.0]

    def test_restart_after_stop(self):
        sim = Simulator()
        log = []
        src = PeriodicSource(period=1.0, callback=lambda s, p: log.append(s.now))
        src.start(sim)
        sim.run(until=2.0)
        src.stop()
        sim.run(until=5.0)
        n_after_stop = len(log)
        src.start(sim)
        sim.run(until=7.0)
        assert len(log) > n_after_stop


# ---------------------------------------------------------------------------
# DESIGN §4 kernel contract, property-tested.
# ---------------------------------------------------------------------------

delays = st.lists(
    st.floats(min_value=0.0, max_value=1e3, allow_nan=False), max_size=60
)


class TestKernelProperties:
    @given(delays)
    def test_total_order_with_seq_tiebreak(self, ds):
        """Execution observes (time, seq) lexicographic order: times are
        nondecreasing and equal-time events keep insertion order."""
        sim = Simulator()
        log = []
        for i, d in enumerate(ds):
            sim.schedule(d, lambda s, p: log.append((s.now, p)), i)
        sim.run()
        assert [t for t, _ in log] == sorted(t for t, _ in log)
        for (t1, i1), (t2, i2) in zip(log, log[1:]):
            if t1 == t2:
                assert i1 < i2

    @given(delays, st.data())
    def test_lazy_cancellation_accounting(self, ds, data):
        """After a full drain every scheduled event is accounted for
        exactly once: executed + cancelled == scheduled."""
        sim = Simulator()
        tokens = [sim.schedule(d, lambda s, p: None) for d in ds]
        to_cancel = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=max(len(tokens) - 1, 0)),
                max_size=len(tokens),
            )
            if tokens
            else st.just([])
        )
        for i in set(to_cancel):
            tokens[i].cancel()
        stats = sim.run()
        assert stats.events_executed + stats.events_cancelled == len(ds)
        assert stats.events_cancelled == len(set(to_cancel))
        assert len(sim) == 0

    @settings(max_examples=50)
    @given(
        delays,
        st.floats(min_value=0.0, max_value=1e3, allow_nan=False),
        st.integers(min_value=0, max_value=70),
    )
    def test_split_runs_equal_single_run(self, ds, horizon, budget):
        """run(until=h) + run() executes the same schedule as one run();
        max_events never overshoots and resumes cleanly."""
        one = Simulator()
        log_one = []
        for i, d in enumerate(ds):
            one.schedule(d, lambda s, p: log_one.append((s.now, p)), i)
        one.run()

        two = Simulator()
        log_two = []
        for i, d in enumerate(ds):
            two.schedule(d, lambda s, p: log_two.append((s.now, p)), i)
        two.run(until=horizon, max_events=budget)
        mid = len(log_two)
        assert mid <= budget
        assert all(t <= horizon for t, _ in log_two)
        two.run()  # drain the rest
        assert log_two == log_one
        assert two.stats.events_executed == one.stats.events_executed


class TestObserveMany:
    """The vectorized histogram path must match scalar observe exactly."""

    def _pairs(self, capacity, values):
        # Same name => same xorshift seed, so replacement decisions of
        # the two paths are comparable element for element.
        scalar = Histogram("h", capacity=capacity)
        batched = Histogram("h", capacity=capacity)
        for v in values:
            scalar.observe(float(v))
        batched.observe_many(np.asarray(values, dtype=float))
        return scalar, batched

    def test_matches_scalar_below_capacity(self):
        rng = np.random.default_rng(11)
        values = rng.exponential(2.0, 100)
        scalar, batched = self._pairs(4096, values)
        assert batched.count == scalar.count
        assert batched.min == scalar.min
        assert batched.max == scalar.max
        assert batched._reservoir == scalar._reservoir
        assert batched.total == pytest.approx(scalar.total, rel=1e-12)

    def test_matches_scalar_through_reservoir_replacement(self):
        # Past capacity the xorshift replacement stream must stay
        # identical, element for element, to the scalar path.
        rng = np.random.default_rng(12)
        values = rng.normal(10.0, 3.0, 500)
        scalar, batched = self._pairs(64, values)
        assert batched.count == scalar.count
        assert batched._reservoir == scalar._reservoir
        assert batched.quantile(0.5) == scalar.quantile(0.5)

    def test_batches_compose_with_scalar_calls(self):
        rng = np.random.default_rng(13)
        values = rng.random(300)
        scalar = Histogram("h", capacity=32)
        mixed = Histogram("h", capacity=32)
        for v in values:
            scalar.observe(float(v))
        for v in values[:50]:
            mixed.observe(float(v))
        mixed.observe_many(values[50:250])
        mixed.observe_many(values[250:])
        assert mixed.count == scalar.count
        assert mixed._reservoir == scalar._reservoir

    def test_empty_batch_is_noop(self):
        h = Histogram("h")
        h.observe_many(np.array([]))
        assert h.count == 0

    def test_null_histogram_accepts_batches(self):
        null = NULL_REGISTRY.histogram("x")
        null.observe_many(np.arange(5.0))  # must not raise or record


class TestSessionInstallRestore:
    """install_session/current_session (PR5): the primitive worker
    telemetry uses to scope a private registry around one job attempt."""

    def test_install_returns_previous_and_restores(self):
        outer = MetricsRegistry()
        inner = MetricsRegistry()
        prev0 = instrument.install_session(outer)
        try:
            assert instrument.current_session() is outer
            prev = instrument.install_session(inner)
            assert prev is outer
            assert instrument.current_session() is inner
            assert instrument.default_registry() is inner
            instrument.install_session(prev)
            assert instrument.current_session() is outer
        finally:
            instrument.install_session(prev0)

    def test_install_none_clears_session(self):
        prev = instrument.install_session(MetricsRegistry())
        try:
            instrument.install_session(None)
            assert instrument.current_session() is None
            assert instrument.default_registry() is NULL_REGISTRY
        finally:
            instrument.install_session(prev)


class TestStateRoundTrip:
    """to_state/merge_state smoke coverage (deep properties live in
    tests/obs/test_merge_properties.py)."""

    def test_to_state_orders_names(self):
        reg = MetricsRegistry()
        reg.counter("z").inc()
        reg.counter("a").inc()
        reg.histogram("m").observe(1.0)
        state = reg.to_state()
        assert list(state["counters"]) == ["a", "z"]
        assert state["histograms"]["m"]["count"] == 1

    def test_from_state_rebuilds_equivalent_registry(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(3)
        reg.gauge("g").set(2.0)
        reg.histogram("h").observe_many([1.0, 2.0, 3.0])
        clone = MetricsRegistry.from_state(reg.to_state())
        assert clone.to_state() == reg.to_state()
        assert clone.histogram("h").quantile(0.5) == 2.0

    def test_registry_tracer_slot_defaults_to_none(self):
        assert MetricsRegistry().tracer is None
        assert NULL_REGISTRY.tracer is None
