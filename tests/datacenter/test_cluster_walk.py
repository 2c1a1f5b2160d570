"""Differential test for :class:`ClusterSimulator`'s arrival walk.

With nothing observing the kernel, ``ClusterSimulator.run`` walks its
arrivals in one loop instead of scheduling an arrival and a completion
event per request.  The reference below is the kernel-driven
``arrive``/``complete`` pair the kernel path still runs: arrivals
bulk-loaded as one train, completions scheduled mid-run.  Both are fed
the same pre-drawn arrays.  Arrival times and service units are whole
numbers starting at 0.0, so completions tie with arrivals, where the
kernel runs the arrival first, and an arrival can meet never-used
servers at time 0.0; every balancer, slow servers and 1–8 servers must
give equal latencies and utilization.  A second strategy keeps ``jsq``
flipping between every server busy and some server idle: 1–3 servers
and service much longer than the gaps between arrivals.
``run(rng=seed)`` must also match ``run(rng=seed, sim=Simulator())``,
``cluster.*`` metrics included.  Neither hypothesis test shrinks a
failure: each shrink step reruns the kernel on up to 400 arrivals, so
shrinking would take minutes to report one.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from repro.core import instrument
from repro.core.events import Simulator
from repro.datacenter.cluster import Balancer, ClusterConfig, ClusterSimulator


def reference(cfg, arrival_times, service_units, picks):
    """The kernel-driven cluster: one arrival and one completion event
    per request.  Returns ``(latencies, utilization)``."""
    model = ClusterSimulator(cfg)
    model.reset()
    rates, free_at, qlen = model._rates, model._free_at, model._qlen
    n = len(arrival_times)
    latencies = np.empty(n)
    busy = 0.0
    rr = 0

    def complete(s: Simulator, server: int) -> None:
        qlen[server] -= 1

    def arrive(s: Simulator, i: int) -> None:
        nonlocal busy, rr
        t = s.now
        if cfg.balancer is Balancer.RANDOM:
            srv = picks[i]
        elif cfg.balancer is Balancer.ROUND_ROBIN:
            srv = rr
            rr = (rr + 1) % cfg.n_servers
        elif cfg.balancer is Balancer.JSQ:
            srv = qlen.index(min(qlen))
        else:
            a, b = picks[i]
            srv = a if qlen[a] <= qlen[b] else b
        service = service_units[i] / rates[srv]
        f = free_at[srv]
        finish = (t if t > f else f) + service
        free_at[srv] = finish
        qlen[srv] += 1
        s.schedule_at(finish, complete, srv, cancellable=False)
        latencies[i] = finish - t
        busy += service

    sim = Simulator()
    sim.schedule_batch(arrival_times, arrive, payloads=range(n))
    sim.run()
    assert qlen == [0] * cfg.n_servers
    return latencies, utilization(cfg, busy, free_at, arrival_times)


def walk(cfg, arrival_times, service_units, picks):
    """The model's walk on the same arrays; ``(latencies, utilization)``."""
    model = ClusterSimulator(cfg)
    model.reset()
    latencies, busy = model._walk(
        np.array(arrival_times), np.array(service_units),
        None if picks is None else np.array(picks))
    assert model._qlen == [0] * cfg.n_servers
    return latencies, utilization(cfg, busy, model._free_at, arrival_times)


def utilization(cfg, busy, free_at, arrival_times):
    """The model's utilization; 0.0 when every arrival and finish is at
    time 0, which ``run`` never draws but the strategies do."""
    makespan = max(max(free_at), arrival_times[-1])
    return busy / (makespan * cfg.n_servers) if makespan else 0.0


@st.composite
def workloads(draw):
    n_servers = draw(st.integers(1, 8))
    balancer = draw(st.sampled_from(list(Balancer)))
    cfg = ClusterConfig(
        n_servers=n_servers,
        balancer=balancer,
        slow_server_fraction=draw(st.sampled_from([0.0, 0.25, 0.5, 1.0])),
        slow_factor=2.0,
    )
    n = draw(st.one_of(st.integers(1, 80), st.integers(81, 400)))
    gaps = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    arrival_times = (np.cumsum(gaps) - gaps[0]).astype(float).tolist()
    service_units = [float(u) for u in draw(
        st.lists(st.integers(0, 5), min_size=n, max_size=n))]
    server = st.integers(0, n_servers - 1)
    picks = None
    if balancer is Balancer.RANDOM:
        picks = draw(st.lists(server, min_size=n, max_size=n))
    elif balancer is Balancer.POWER_OF_TWO:
        # Some pairs name one server twice.
        pair = st.one_of(st.lists(server, min_size=2, max_size=2),
                         server.map(lambda s: [s, s]))
        picks = draw(st.lists(pair, min_size=n, max_size=n))
    return cfg, arrival_times, service_units, picks


#: Every phase but ``shrink``: a failure is reported as generated.
NO_SHRINK = tuple(p for p in Phase if p is not Phase.shrink)


@settings(max_examples=300, deadline=None, phases=NO_SHRINK)
@given(workloads())
def test_walk_matches_kernel_handlers(case):
    ref_lat, ref_util = reference(*case)
    lat, util = walk(*case)
    assert np.array_equal(lat, ref_lat)
    assert util == ref_util


@st.composite
def flipping_jsq(draw):
    """``jsq`` on 1–3 servers whose service outlasts most gaps.

    Runs of back-to-back arrivals fill every server, and the odd long
    gap drains some: the walk keeps leaving and re-entering its
    every-server-busy state.
    """
    cfg = ClusterConfig(
        n_servers=draw(st.integers(1, 3)),
        balancer=Balancer.JSQ,
        slow_server_fraction=draw(st.sampled_from([0.0, 0.5, 1.0])),
        slow_factor=2.0,
    )
    n = draw(st.integers(1, 200))
    gaps = draw(st.lists(st.sampled_from([0, 0, 0, 1, 1, 2, 12, 40]),
                         min_size=n, max_size=n))
    arrival_times = (np.cumsum(gaps) - gaps[0]).astype(float).tolist()
    service_units = [float(u) for u in draw(
        st.lists(st.sampled_from([0, 4, 6, 8, 10, 16]), min_size=n,
                 max_size=n))]
    return cfg, arrival_times, service_units, None


@settings(max_examples=200, deadline=None, phases=NO_SHRINK)
@given(flipping_jsq())
def test_jsq_walk_flipping_between_busy_and_idle(case):
    ref_lat, ref_util = reference(*case)
    lat, util = walk(*case)
    assert np.array_equal(lat, ref_lat)
    assert util == ref_util


@pytest.mark.parametrize("n_servers", [1, 2, 5])
def test_jsq_arrivals_at_time_zero_on_never_used_servers(n_servers):
    # The first arrivals find servers never used: each is idle at
    # t == 0.0, so they spread one per server before any queues.
    cfg = ClusterConfig(n_servers=n_servers, balancer=Balancer.JSQ)
    arrival_times = [0.0] * (n_servers + 2) + [0.5, 3.0]
    service_units = [1.0, 0.0, 2.0, 1.0, 0.0, 4.0, 1.0, 2.0, 0.5][
        :len(arrival_times)]
    case = (cfg, arrival_times, service_units, None)
    ref_lat, ref_util = reference(*case)
    lat, util = walk(*case)
    assert np.array_equal(lat, ref_lat)
    assert util == ref_util


def _run(cfg, seed, sim):
    prev = instrument.install_session(instrument.MetricsRegistry(enabled=True))
    try:
        res = ClusterSimulator(cfg).run(
            arrival_rate=0.9 * cfg.n_servers, n_requests=1500, rng=seed,
            sim=sim() if sim is not None else None,
        )
        state = instrument.default_registry().to_state()
    finally:
        instrument.install_session(prev)
    metrics = {
        kind: {k: v for k, v in entries.items() if k.startswith("cluster.")}
        for kind, entries in state.items()
    }
    return res, metrics


@pytest.mark.parametrize("balancer", list(Balancer), ids=lambda b: b.value)
@pytest.mark.parametrize("seed", [0, 123])
def test_run_matches_kernel_path(balancer, seed):
    cfg = ClusterConfig(n_servers=8, balancer=balancer,
                        slow_server_fraction=0.25, slow_factor=3.0)
    res, metrics = _run(cfg, seed, sim=None)
    ref, ref_metrics = _run(cfg, seed, sim=Simulator)
    assert np.array_equal(res.latencies, ref.latencies)
    assert res.utilization == ref.utilization
    assert metrics == ref_metrics
    assert metrics["counters"]["cluster.requests"] == 1500
    assert metrics["gauges"]["cluster.queued_at_end"]["value"] == 0


@pytest.mark.parametrize("sim", [None, Simulator], ids=["walk", "kernel"])
@pytest.mark.parametrize("rate", [np.nan, np.inf, 0.0, -1.0])
def test_bad_arrival_rate_rejected(sim, rate):
    with pytest.raises(ValueError, match="arrival rate"):
        ClusterSimulator().run(rate, 10, rng=0,
                               sim=sim() if sim is not None else None)
