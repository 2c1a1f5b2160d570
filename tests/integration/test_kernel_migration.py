"""Cross-validation of the kernel-hosted simulators.

Every simulator that moved onto the shared event kernel keeps (or
cross-checks against) a closed-form / vectorized reference; these tests
pin the agreement so future kernel changes cannot silently drift a
model.  Also covers the KernelFaultInjector driving faults into
kernel-hosted models through their ``inject_fault`` hooks.
"""

import numpy as np
import pytest

from repro.core.events import Simulator
from repro.core.instrument import MetricsRegistry
from repro.crosscut import FaultTarget, KernelFaultInjector
from repro.datacenter import (
    AutoscaleConfig,
    Balancer,
    ClusterConfig,
    ClusterSimulator,
    autoscale_fleet_trace,
    hedged_request_latencies,
    kernel_hedged_latencies,
    mm1_mean_latency,
    mmc_mean_latency,
)
from repro.datacenter.latency import exponential_latency, straggler_mixture
from repro.interconnect.noc import MeshNoC, NoCConfig
from repro.sensor import DutyCycleModel, simulate_duty_cycle


class TestClusterOnKernel:
    def test_matches_mm1_closed_form(self):
        cfg = ClusterConfig(n_servers=1, service_rate=10.0)
        res = ClusterSimulator(cfg).run(
            arrival_rate=7.5, n_requests=60_000, rng=0
        )
        # Single server: the event-driven path must land on M/M/1.
        closed = mm1_mean_latency(7.5, 10.0)
        assert res.mean_latency == pytest.approx(closed, rel=0.05)

    def test_jsq_beats_random_toward_mmc(self):
        # JSQ pools the servers; its mean latency must sit between the
        # shared-queue M/M/c ideal and independent random M/M/1 queues.
        random_res = ClusterSimulator(
            ClusterConfig(n_servers=4, service_rate=10.0)
        ).run(arrival_rate=30.0, n_requests=40_000, rng=0)
        jsq_res = ClusterSimulator(
            ClusterConfig(
                n_servers=4, service_rate=10.0, balancer=Balancer.JSQ
            )
        ).run(arrival_rate=30.0, n_requests=40_000, rng=0)
        mmc = mmc_mean_latency(30.0, 10.0, 4)
        assert mmc * 0.9 < jsq_res.mean_latency < random_res.mean_latency

    def test_kernel_run_reports_metrics(self):
        reg = MetricsRegistry()
        sim = Simulator(metrics=reg)
        cluster = sim.attach(ClusterSimulator(ClusterConfig(n_servers=2)))
        cluster.run(arrival_rate=1.0, n_requests=500, rng=3, sim=sim)
        snap = reg.snapshot()
        assert snap["cluster.requests"]["value"] == 500
        assert snap["cluster.completions"]["value"] == 500
        assert snap["cluster.latency_s"]["count"] == 500


class TestHedgingOnKernel:
    def test_kernel_matches_vectorized_sample_for_sample(self):
        dist = straggler_mixture()
        vec = hedged_request_latencies(dist, 400, rng=11)
        ker = kernel_hedged_latencies(dist, 400, rng=11)
        np.testing.assert_allclose(
            ker["latencies"], vec["latencies"], rtol=1e-9, atol=1e-9
        )
        assert ker["trigger_ms"] == vec["trigger_ms"]

    def test_cancellations_are_real_kernel_events(self):
        reg = MetricsRegistry()
        sim = Simulator(metrics=reg)
        kernel_hedged_latencies(
            exponential_latency(10.0), 300, rng=5, sim=sim
        )
        snap = reg.snapshot()
        # Every request leaves either a cancelled hedge timer or a
        # cancelled losing reply behind.
        assert snap["hedging.losers_cancelled"]["value"] >= 300
        assert sim.stats.events_cancelled == snap[
            "hedging.losers_cancelled"
        ]["value"]


class TestAutoscaleOnKernel:
    @pytest.mark.parametrize("lag", [0, 1, 3, 5])
    def test_matches_vectorized_delay_line(self, lag):
        rng = np.random.default_rng(2)
        load = rng.uniform(100.0, 5000.0, size=60)
        cfg = AutoscaleConfig(reaction_intervals=lag)
        fleet = autoscale_fleet_trace(load, cfg)
        desired = np.maximum(
            np.ceil(load * cfg.headroom / cfg.server_capacity_rps),
            cfg.min_servers,
        ).astype(int)
        expected = desired[np.maximum(np.arange(load.size) - lag, 0)]
        np.testing.assert_array_equal(fleet, expected)


class TestDutyCycleOnKernel:
    def test_matches_closed_form_power(self):
        model = DutyCycleModel()
        out = simulate_duty_cycle(model, wakes_per_s=2.0, duration_s=500.0)
        assert out["wakes"] == 1000
        assert out["average_power_w"] == pytest.approx(
            out["closed_form_power_w"], rel=1e-6
        )


class TestKernelFaultInjector:
    def test_cluster_tail_degrades_under_faults(self):
        cfg = ClusterConfig(n_servers=8, service_rate=10.0)
        baseline = ClusterSimulator(cfg).run(
            arrival_rate=60.0, n_requests=20_000, rng=1
        )
        sim = Simulator()
        cluster = sim.attach(ClusterSimulator(cfg))
        injector = KernelFaultInjector(mean_interval=20.0, rng=7)
        injector.register(cluster)
        assert injector.arm(sim, horizon=300.0) > 0
        faulted = cluster.run(
            arrival_rate=60.0, n_requests=20_000, rng=1, sim=sim
        )
        assert injector.injected > 0
        assert faulted.p99 > baseline.p99

    def test_noc_accepts_faults_via_same_protocol(self):
        noc = MeshNoC(NoCConfig(width=4, height=4))
        assert isinstance(noc, FaultTarget)
        sim = Simulator()
        sim.attach(noc)
        injector = KernelFaultInjector(mean_interval=5.0, rng=3)
        injector.register(noc)
        injector.arm(sim, horizon=50.0)
        rng = np.random.default_rng(0)
        pairs = [((0, 0), (3, 3)), ((3, 0), (0, 3)), ((1, 1), (2, 3))] * 10
        times = np.sort(rng.uniform(0.0, 40.0, size=len(pairs)))
        result = noc.run(pairs, injection_times=times, sim=sim)
        assert len(result.delivered) == len(pairs)
        assert injector.injected > 0

    def test_faults_are_counted_in_metrics(self):
        reg = MetricsRegistry()
        sim = Simulator(metrics=reg)
        cluster = sim.attach(ClusterSimulator(ClusterConfig(n_servers=4)))
        injector = KernelFaultInjector(mean_interval=10.0, rng=0)
        injector.register(cluster)
        injector.arm(sim, horizon=200.0)
        cluster.run(arrival_rate=2.0, n_requests=400, rng=0, sim=sim)
        snap = reg.snapshot()
        assert snap["faults.injected"]["value"] == injector.injected > 0

    def test_disarm_cancels_pending(self):
        sim = Simulator()
        cluster = sim.attach(ClusterSimulator(ClusterConfig(n_servers=2)))
        injector = KernelFaultInjector(mean_interval=1.0, rng=4)
        injector.register(cluster)
        scheduled = injector.arm(sim, horizon=100.0)
        cancelled = injector.disarm()
        assert cancelled == scheduled
        sim.run()
        assert injector.injected == 0

    def test_register_rejects_non_targets(self):
        injector = KernelFaultInjector(mean_interval=1.0)
        with pytest.raises(TypeError):
            injector.register(object())

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            KernelFaultInjector(mean_interval=0.0)
        injector = KernelFaultInjector(mean_interval=1.0)
        with pytest.raises(ValueError):
            injector.arm(Simulator(), horizon=-1.0)
