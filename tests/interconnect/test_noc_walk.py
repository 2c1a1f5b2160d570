"""Differential test for :class:`MeshNoC`'s per-cycle walk.

With nothing observing the kernel, ``MeshNoC.run`` walks its own
per-cycle calendar instead of scheduling one kernel event per hop.
Passing ``sim=Simulator()`` forces the kernel path, which is the
reference here.  Random meshes, delays (including ``hop_latency == 1``,
where an injection can schedule a departure for its own cycle),
tie-heavy, fractional and unsorted injection times, both dimension
orders and horizons that cut the run mid-flight must give the same
delivered packets in the same order, the same per-packet latency and
hop arrays and summary statistics, the same drops, cycles, energy and
``noc.*`` metrics.  Bad inputs fail with the same ``ValueError`` on
both paths, and a non-integer coordinate fails before routing instead
of hanging.
"""

from __future__ import annotations

import math
import pickle
import signal
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import instrument
from repro.core.events import Simulator, kernel_unobserved
from repro.interconnect import MeshNoC, NoCConfig
from repro.interconnect.topology import xy_route, yx_route


@st.composite
def workloads(draw):
    width = draw(st.integers(1, 5))
    height = draw(st.integers(2 if width == 1 else 1, 5))
    router, link = draw(st.sampled_from([(1, 0), (1, 1), (2, 0), (2, 1),
                                         (3, 2)]))
    coords = st.tuples(st.integers(0, width - 1), st.integers(0, height - 1))
    pairs = draw(st.lists(
        st.tuples(coords, coords).filter(lambda p: p[0] != p[1]),
        min_size=1, max_size=60,
    ))
    n = len(pairs)
    style = draw(st.sampled_from(["ties", "fractional", "sorted"]))
    if style == "ties":
        times = draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))
    elif style == "fractional":
        times = draw(st.lists(
            st.floats(0, 30, allow_nan=False).map(lambda x: round(x, 2)),
            min_size=n, max_size=n,
        ))
    else:
        times = sorted(draw(st.lists(st.integers(0, 40), min_size=n,
                                     max_size=n)))
    max_cycles = draw(st.one_of(st.just(200_000), st.integers(0, 40)))
    route_fn = draw(st.sampled_from([xy_route, yx_route]))
    return (NoCConfig(width=width, height=height, router_delay_cycles=router,
                      link_delay_cycles=link),
            pairs, np.asarray(times, dtype=float), max_cycles, route_fn)


def _run(cfg, pairs, times, max_cycles, route_fn, sim):
    """One run on a fresh enabled session: the result and its metrics."""
    prev = instrument.install_session(instrument.MetricsRegistry(enabled=True))
    try:
        kernel = sim() if sim is not None else None
        res = MeshNoC(cfg).run(pairs, injection_times=times,
                               max_cycles=max_cycles, sim=kernel,
                               route_fn=route_fn)
        state = instrument.default_registry().to_state()
    finally:
        instrument.install_session(prev)
    metrics = {
        kind: {k: v for k, v in entries.items() if k.startswith("noc.")}
        for kind, entries in state.items()
    }
    delivered = [(p.src, p.dst, p.injected_at, p.delivered_at, p.hop_index)
                 for p in res.delivered]
    ledger = (res.ledger.total(), res.ledger.breakdown())
    # NaN (no deliveries) never equals itself; compare it as None.
    summary = [None if math.isnan(x) else x
               for x in (res.mean_latency, res.p99_latency, res.mean_hops)]
    arrays = (res.latencies.tolist(), res.hops.tolist())
    assert arrays == ([p.latency for p in res.delivered],
                      [float(p.hops) for p in res.delivered])
    return (delivered, res.dropped, res.cycles, ledger, metrics, arrays,
            summary)


@settings(max_examples=300, deadline=None)
@given(workloads())
def test_walk_matches_kernel(case):
    assert kernel_unobserved(None)
    walk = _run(*case, sim=None)
    kernel = _run(*case, sim=Simulator)
    assert walk == kernel
    assert walk[4]["gauges"]["noc.queued_at_end"]["samples"] == 1


def test_same_cycle_departure_runs_after_earlier_ones():
    # hop_latency == 1.  Packet 0's departure from (1,0) at cycle 1 was
    # scheduled in cycle 0; packet 1, injected at cycle 1 at (2,1),
    # departs in cycle 1 too, after it.  Both then queue for the link
    # (2,0)->(3,0), packet 0 first.
    cfg = NoCConfig(width=4, height=2, router_delay_cycles=1,
                    link_delay_cycles=0)
    pairs = [((0, 0), (3, 0)), ((2, 1), (3, 0))]
    times = np.array([0.0, 1.0])
    walk = _run(cfg, pairs, times, 200_000, yx_route, sim=None)
    assert walk == _run(cfg, pairs, times, 200_000, yx_route, sim=Simulator)
    assert [(d[0], d[3]) for d in walk[0]] == [((0, 0), 3.0), ((2, 1), 4.0)]


@pytest.mark.parametrize("sim", [None, Simulator], ids=["walk", "kernel"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1.0])
def test_bad_injection_time_names_its_index(sim, bad):
    noc = MeshNoC(NoCConfig(width=2, height=2))
    pairs = [((0, 0), (1, 0))] * 3
    with pytest.raises(ValueError, match=r"injection_times\[2\]"):
        noc.run(pairs, injection_times=[0.0, 1.0, bad],
                sim=sim() if sim is not None else None)


@pytest.mark.parametrize("sim", [None, Simulator], ids=["walk", "kernel"])
def test_negative_max_cycles_rejected(sim):
    noc = MeshNoC(NoCConfig(width=2, height=2))
    with pytest.raises(ValueError, match="max_cycles"):
        noc.run([((0, 0), (1, 0))], max_cycles=-5,
                sim=sim() if sim is not None else None)


def test_horizon_is_inclusive():
    # One hop of latency 3 from cycle 0 departs at cycle 2 and lands at
    # cycle 3.  A horizon of 1 cuts the departure; a horizon of 2 runs
    # it, so the packet is delivered.
    noc = MeshNoC(NoCConfig(width=2, height=1))
    assert noc.run([((0, 0), (1, 0))], max_cycles=1).dropped == 1
    res = noc.run([((0, 0), (1, 0))], max_cycles=2)
    assert res.dropped == 0 and res.cycles == 3.0


@pytest.mark.parametrize(
    "field", ["width", "height", "router_delay_cycles", "link_delay_cycles"]
)
def test_config_rejects_non_integer_sizes_and_delays(field):
    # A fractional delay puts departures off the integer cycle grid: the
    # walk used to drop a packet the kernel delivered.
    with pytest.raises(ValueError, match=field):
        NoCConfig(**{field: 1.5})
    with pytest.raises(ValueError, match=field):
        NoCConfig(**{field: 2.0})
    NoCConfig(**{field: np.int64(2)})


@contextmanager
def _deadline(seconds):
    """Raise ``TimeoutError`` in the block after ``seconds`` of wall time."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("sim", [None, Simulator], ids=["walk", "kernel"])
@pytest.mark.parametrize("pair", [((0.5, 0), (1, 1)), ((0, 0), (1, 1.0))],
                         ids=["fractional", "integral-float"])
def test_non_integer_coordinate_is_rejected(sim, pair):
    # xy_route steps x by +-1, so from x = 0.5 it never reaches 1 and
    # the run used to hang.
    noc = MeshNoC(NoCConfig(width=2, height=2))
    with _deadline(10), pytest.raises(ValueError, match="integers"):
        noc.run([pair], sim=sim() if sim is not None else None)


@pytest.mark.parametrize("sim", [None, Simulator], ids=["walk", "kernel"])
def test_numpy_integer_coordinates_route(sim):
    noc = MeshNoC(NoCConfig(width=np.int64(2), height=2))
    src, dst = (np.int64(0), np.int32(0)), (np.int64(1), np.int64(1))
    res = noc.run([(src, dst)], sim=sim() if sim is not None else None)
    assert res.dropped == 0 and res.cycles == 6.0
    assert res.latencies.tolist() == [6.0] and res.hops.tolist() == [2.0]


def test_walk_builds_packets_once_on_first_read():
    noc = MeshNoC(NoCConfig(width=3, height=2))
    pairs = [((0, 0), (2, 1)), ((1, 1), (0, 0))]
    res = noc.run(pairs, injection_times=[0.5, 0.0])
    assert "delivered" not in vars(res)
    first = res.delivered
    assert res.delivered is first
    assert [(p.src, p.injected_at, p.delivered_at) for p in first] == [
        ((1, 1), 0.0, 6.0), ((0, 0), 0.5, 10.0),
    ]


@pytest.mark.parametrize("sim", [None, Simulator], ids=["walk", "kernel"])
def test_result_pickles_before_and_after_reading_delivered(sim):
    noc = MeshNoC(NoCConfig(width=3, height=3))
    pairs = [((0, 0), (2, 2)), ((2, 0), (0, 1)), ((1, 1), (1, 2))]
    res = noc.run(pairs, injection_times=[0.0, 1.0, 1.0],
                  sim=sim() if sim is not None else None)
    fields = [(p.src, p.dst, p.injected_at, p.delivered_at, p.hop_index)
              for p in pickle.loads(pickle.dumps(res)).delivered]
    assert fields == [(p.src, p.dst, p.injected_at, p.delivered_at,
                       p.hop_index) for p in res.delivered]
    back = pickle.loads(pickle.dumps(res))
    assert back.latencies.tolist() == res.latencies.tolist()
    assert len(back.delivered) == 3
