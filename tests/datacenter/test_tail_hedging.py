"""Tests for tail-at-scale order statistics and hedging (E07)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.paper_experiments import run_e07_tail
from repro.core.events import Simulator
from repro.datacenter import (
    ClusterConfig,
    ClusterSimulator,
    exponential_latency,
    fanout_latency_quantile,
    hedged_request_latencies,
    hedging_effectiveness,
    lognormal_latency,
    median_inflation,
    monte_carlo_fanout,
    paper_claim,
    partition_vs_fanout_tradeoff,
    straggler_mixture,
    straggler_probability,
    tied_request_latencies,
)


class TestPaperClaim:
    def test_exact_63_percent(self):
        """The paper's sentence, verbatim: fanout 100, p99 => 63%."""
        claim = paper_claim()
        assert claim["fraction_delayed"] == pytest.approx(0.634, abs=0.001)
        assert abs(claim["fraction_delayed"] - claim["paper_value"]) < 0.01

    def test_formula_edge_cases(self):
        assert straggler_probability(0.99, 1) == pytest.approx(0.01)
        assert straggler_probability(1.0, 100) == 0.0
        assert straggler_probability(0.0, 5) == 1.0

    def test_monotone_in_fanout(self):
        probs = straggler_probability(0.99, np.array([1, 10, 100, 1000]))
        assert np.all(np.diff(probs) > 0)
        assert probs[-1] > 0.9999

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=1, max_value=10_000),
    )
    def test_property_is_probability(self, q, n):
        p = straggler_probability(q, n)
        assert 0.0 <= p <= 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            straggler_probability(1.5, 10)
        with pytest.raises(ValueError):
            straggler_probability(0.5, 0)


class TestFanoutQuantiles:
    def test_closed_form_matches_monte_carlo(self):
        dist = lognormal_latency(10.0, 0.5)
        closed = fanout_latency_quantile(dist, 50, 0.5)
        mc = monte_carlo_fanout(dist, 50, n_requests=20_000, rng=0)
        assert mc["median"] == pytest.approx(closed, rel=0.03)

    def test_mc_reproduces_63_percent(self):
        dist = lognormal_latency(10.0, 0.5)
        mc = monte_carlo_fanout(dist, 100, n_requests=20_000, rng=1)
        assert mc["fraction_beyond_server_p99"] == pytest.approx(0.634, abs=0.02)

    def test_median_inflation_grows(self):
        dist = lognormal_latency(10.0, 0.5)
        out = median_inflation(dist, [1, 10, 100])
        assert np.all(np.diff(out["request_median"]) > 0)
        assert out["inflation_vs_server_median"][0] == pytest.approx(1.0)
        # At fanout 100 the request median sits at the per-server
        # ~p99.3 (0.5^(1/100)).
        assert out["effective_server_quantile"][-1] == pytest.approx(
            0.5 ** 0.01, rel=1e-6
        )

    def test_fanout_one_is_identity(self):
        dist = exponential_latency(5.0)
        assert fanout_latency_quantile(dist, 1, 0.9) == pytest.approx(
            float(dist.quantile(0.9)[0])
        )

    def test_partition_tradeoff_u_shape(self):
        dist = straggler_mixture()
        out = partition_vs_fanout_tradeoff(
            dist, total_work_ms=2000.0, fanouts=[1, 4, 16, 64, 512, 2048]
        )
        medians = out["median_ms"]
        best = int(np.argmin(medians))
        assert 0 < best < len(medians) - 1  # interior optimum

    def test_validation(self):
        dist = exponential_latency(1.0)
        with pytest.raises(ValueError):
            fanout_latency_quantile(dist, 0, 0.5)
        with pytest.raises(ValueError):
            fanout_latency_quantile(dist, 10, 1.0)
        with pytest.raises(ValueError):
            monte_carlo_fanout(dist, 0)
        with pytest.raises(ValueError):
            median_inflation(dist, [0])
        with pytest.raises(ValueError):
            partition_vs_fanout_tradeoff(dist, -1.0, [1])


class TestDistributions:
    def test_exponential_quantile(self):
        dist = exponential_latency(10.0)
        # p63.2 of an exponential is the mean.
        assert float(dist.quantile(1 - np.exp(-1))[0]) == pytest.approx(10.0)

    def test_lognormal_median(self):
        dist = lognormal_latency(7.0, 0.4)
        assert float(dist.quantile(0.5)[0]) == pytest.approx(7.0)

    def test_straggler_mixture_has_heavy_tail(self):
        base = lognormal_latency(10.0, 0.3)
        heavy = straggler_mixture(10.0, 0.3, straggler_prob=0.05,
                                  straggler_factor=20.0)
        p999_base = float(np.quantile(base.sample(100_000, rng=0), 0.999))
        p999_heavy = float(np.quantile(heavy.sample(100_000, rng=0), 0.999))
        assert p999_heavy > 3 * p999_base

    def test_sampling_deterministic(self):
        dist = straggler_mixture()
        a = dist.sample(100, rng=5)
        b = dist.sample(100, rng=5)
        np.testing.assert_array_equal(a, b)

    def test_validation(self):
        with pytest.raises(ValueError):
            exponential_latency(0.0)
        with pytest.raises(ValueError):
            lognormal_latency(1.0, 0.0)
        with pytest.raises(ValueError):
            straggler_mixture(straggler_prob=2.0)
        dist = exponential_latency(1.0)
        with pytest.raises(ValueError):
            dist.sample(-1)
        with pytest.raises(ValueError):
            dist.quantile(1.5)


class TestHedging:
    def test_hedging_cuts_the_tail(self):
        dist = straggler_mixture()
        out = hedging_effectiveness(dist, fanout=100, n_requests=2000, rng=0)
        assert out["hedged_p99"] < 0.5 * out["plain_p99"]
        # Dean & Barroso's headline: big tail cut for a few percent load.
        assert out["extra_load_fraction"] < 0.10

    def test_hedged_never_slower_than_primary_plus_trigger(self):
        dist = lognormal_latency(10.0, 0.5)
        out = hedged_request_latencies(dist, 5000, rng=0)
        assert np.all(out["latencies"] <= out["baseline"] + 1e-12)

    def test_extra_load_matches_trigger(self):
        dist = lognormal_latency(10.0, 0.5)
        out = hedged_request_latencies(
            dist, 50_000, trigger_quantile=0.9, rng=1
        )
        assert out["extra_load_fraction"] == pytest.approx(0.1, abs=0.01)

    def test_tied_requests_better_median_than_single(self):
        dist = lognormal_latency(10.0, 0.5)
        tied = tied_request_latencies(dist, 20_000, rng=2)
        single = dist.sample(20_000, rng=3)
        assert np.median(tied) < np.median(single)

    def test_validation(self):
        dist = exponential_latency(1.0)
        with pytest.raises(ValueError):
            hedged_request_latencies(dist, 0)
        with pytest.raises(ValueError):
            hedged_request_latencies(dist, 10, trigger_quantile=1.0)
        with pytest.raises(ValueError):
            tied_request_latencies(dist, 10, cancellation_overhead_ms=-1.0)
        with pytest.raises(ValueError):
            hedging_effectiveness(dist, fanout=0)


class TestE07ClusterRun:
    def test_walked_keys_equal_the_kernel_path(self):
        """E07's cluster run walks; a kernel run of its config is the
        reference for both ``kernel_cluster_*`` keys, bit for bit."""
        out = run_e07_tail()
        ref = ClusterSimulator(
            ClusterConfig(n_servers=4, service_rate=100.0)
        ).run(arrival_rate=300.0, n_requests=12_000, rng=0, sim=Simulator())
        assert out["kernel_cluster_p99_s"] == float(
            np.percentile(ref.latencies, 99))
        assert out["kernel_cluster_utilization"] == ref.utilization
