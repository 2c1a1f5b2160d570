"""Differential test for :class:`MeshNoC`'s level schedule.

With nothing observing the kernel, ``MeshNoC.run`` computes its
schedule one link level at a time in numpy instead of scheduling one
kernel event per hop.  Passing ``sim=Simulator()`` forces the kernel
path, which is the reference here.  Random meshes, delays (weighted
toward ``hop_latency == 1``, where an injection can schedule a
departure for its own cycle), up to 200 packets with uniform or
hotspot destinations, tie-heavy, fractional and unsorted injection
times, both dimension orders and horizons that cut the run mid-flight
must give the same delivered packets in the same order, the same
per-packet latency and hop arrays and summary statistics, the same
drops, cycles, energy and ``noc.*`` metrics.  The draws must reach
each of the schedule's same-cycle tie paths, counted on a fixed seed:
forwards appended to one link in one cycle whose order the scheduling
tokens leave open, appends in the cycle the hop ahead departs that
only the chains settle (one after another on a link, too), and
delivery cycles that mix free and queued packets; each has a named
regression as well.  The ledger's two ``noc-replay`` traces at two
seeds run through both paths.  Bad inputs fail with the same
``ValueError`` on both paths, and a non-integer coordinate fails
before routing instead of hanging.

``MeshNoC._route_table`` checks and numbers the packets' ``(src, dst)``
pairs as one numpy array, in node-id order.  Its reference is the
per-pair loop it replaced (:func:`reference_route_table`), which
numbered them in first-seen order: lists of Python and numpy ints and
arrays of every integer dtype, heavy with repeated pairs, must give the
same distinct pairs, each packet the same one, the same routes, and one
bad pair the same exception, on both paths.  Pairs
keyed ``src_node * nodes + dst_node`` and, on a mesh too large for that
key, by node-id rows must be numbered alike.  An unknown ``routing``
name is the same ``ValueError`` on both paths and through the ``noc``
replay sink.
"""

from __future__ import annotations

import math
import pickle
import signal
from collections import Counter
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, event, given, settings
from hypothesis import strategies as st

from repro.core import instrument
from repro.core.events import Simulator
from repro.core.units import is_integer
from repro.exec import derive_seed
from repro.interconnect import MeshNoC, NoCConfig, noc
from repro.interconnect.topology import ROUTES
from repro.traces.format import KIND_REQUEST
from repro.traces.generators import generate
from repro.traces.replay import replay

#: A failure reports the example it drew, in seconds, not a minimal one.
NO_SHRINK = tuple(p for p in Phase if p is not Phase.shrink)
INT_DTYPES = (np.int8, np.int16, np.int32, np.int64,
              np.uint8, np.uint16, np.uint32, np.uint64)


@st.composite
def workloads(draw):
    width = draw(st.integers(1, 5))
    height = draw(st.integers(2 if width == 1 else 1, 5))
    # ``hop_latency == 1`` ties the most: drawn as often as the rest.
    router, link = draw(st.sampled_from([(1, 0)] * 4 + [
        (1, 1), (2, 0), (2, 1), (3, 2)]))
    nodes = width * height
    n = draw(st.integers(1, 200))
    node = st.integers(0, nodes - 1)
    src = draw(st.lists(node, min_size=n, max_size=n))
    if draw(st.booleans()):
        dst = draw(st.lists(node, min_size=n, max_size=n))
    else:  # a hotspot: every packet to one node
        dst = [draw(node)] * n
    # A packet drawn to its own node goes to the next one instead.
    pairs = [((s % width, s // width), (d % width, d // width))
             for s, d in zip(src, ((d + (d == s)) % nodes
                                    for s, d in zip(src, dst)))]
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
    routing = draw(st.sampled_from(["xy", "yx"]))
    return (NoCConfig(width=width, height=height, router_delay_cycles=router,
                      link_delay_cycles=link),
            pairs, np.asarray(times, dtype=float), max_cycles, routing)


def _run(cfg, pairs, times, max_cycles, routing, sim):
    """One run on a fresh enabled session: the result and its metrics."""
    prev = instrument.install_session(instrument.MetricsRegistry(enabled=True))
    try:
        kernel = sim() if sim is not None else None
        res = MeshNoC(cfg).run(pairs, injection_times=times,
                               max_cycles=max_cycles, sim=kernel,
                               routing=routing)
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


#: The level schedule's same-cycle tie paths, by the name ``_ties`` gives.
TIES = ("forward tie", "open append", "chained open append",
        "mixed delivery cycle")


@contextmanager
def _ties():
    """The set of :data:`TIES` that walks in the block take: forwards
    whose append order ``_append_order`` leaves to the chains; appends
    in the cycle the hop ahead departs that ``_Departures.settle`` gets,
    two of them one after another on a link; and a delivery cycle of
    free and queued packets (``_Departures.runs``)."""
    seen = set()
    append_order = noc._append_order
    settle = noc._Departures.settle
    runs = noc._Departures.runs

    def spy_append_order(*args):
        out = append_order(*args)
        if out[2].any():
            seen.add("forward tie")
        return out

    def spy_settle(self, lo, open_, up, empty):
        if open_:
            seen.add("open append")
        if any(b == a + 1 for a, b in zip(open_, open_[1:])):
            seen.add("chained open append")
        return settle(self, lo, open_, up, empty)

    def spy_runs(self, x, hop_lat):
        seen.add("mixed delivery cycle")
        return runs(self, x, hop_lat)

    with mock.patch.object(noc, "_append_order", spy_append_order), \
            mock.patch.object(noc._Departures, "settle", spy_settle), \
            mock.patch.object(noc._Departures, "runs", spy_runs):
        yield seen


@settings(max_examples=300, deadline=None)
@given(workloads())
def test_walk_matches_kernel(case):
    with _ties() as seen:
        walk = _run(*case, sim=None)
    for name in sorted(seen):
        event(name)
    kernel = _run(*case, sim=Simulator)
    assert walk == kernel
    assert walk[4]["gauges"]["noc.queued_at_end"]["samples"] == 1


def test_workloads_draw_every_tie():
    # On a fixed seed, so that the count does not depend on the draw.
    seen = Counter()

    @settings(max_examples=150, deadline=None, derandomize=True,
              database=None, phases=[Phase.generate])
    @given(workloads())
    def draw(case):
        cfg, pairs, times, max_cycles, routing = case
        with _ties() as ties:
            MeshNoC(cfg).run(pairs, injection_times=times,
                             max_cycles=max_cycles, routing=routing)
        seen.update(ties)

    draw()
    # Each in at least 20 of the 150 draws.
    assert all(seen[name] >= 20 for name in TIES), seen


def _regression(cfg, pairs, times, tie, routing="xy"):
    """The walk takes ``tie``, matches the kernel path and delivers
    ``(src, injected_at, delivered_at)`` in the order it returns."""
    times = np.asarray(times, dtype=float)
    with _ties() as seen:
        walk = _run(cfg, pairs, times, 200_000, routing, sim=None)
    assert tie in seen
    assert walk == _run(cfg, pairs, times, 200_000, routing, sim=Simulator)
    return [(d[0], d[2], d[3]) for d in walk[0]]


ONE_CYCLE = NoCConfig(width=3, height=3, router_delay_cycles=1,
                      link_delay_cycles=0)


def test_forwards_appended_in_one_cycle_run_in_departure_order():
    # Packets 1 and 2 are appended to the -y link out of (0, 1) in cycle
    # 2, from (1, 1) and from (0, 2), by departures both scheduled in
    # cycle 1; only the chains put packet 2's first.
    pairs = [((1, 1), (0, 1)), ((2, 1), (0, 0)), ((2, 2), (0, 0)),
             ((0, 2), (2, 2))]
    assert _regression(ONE_CYCLE, pairs, [3, 2, 1, 2], "forward tie") == [
        ((0, 2), 2.0, 4.0), ((2, 2), 1.0, 5.0), ((1, 1), 3.0, 5.0),
        ((2, 1), 2.0, 6.0),
    ]


@pytest.mark.parametrize("tie", ["open append", "chained open append"])
def test_append_in_the_cycle_the_hop_ahead_departs(tie):
    if tie == "open append":
        # Packet 1 is appended to the -y link out of (3, 1) in cycle 4,
        # when packet 0 departs it, by events both scheduled in cycle 3.
        # The chains show packet 0 left first, so packet 1 found the
        # queue empty and its own step scheduled its last departure,
        # which then runs after packet 2's in cycle 5.
        cfg = NoCConfig(width=4, height=3, router_delay_cycles=1,
                        link_delay_cycles=0)
        pairs = [((1, 2), (3, 0)), ((1, 1), (3, 0)), ((2, 0), (0, 2))]
        times = [1, 3, 2]
        want = [((1, 2), 1.0, 5.0), ((2, 0), 2.0, 6.0), ((1, 1), 3.0, 6.0)]
    else:
        # On the -y link out of (0, 1), packets 2, 0 and 4 are each
        # appended in the cycle the one ahead departs, by events whose
        # tokens tie: each is settled after the one ahead of it.
        cfg = NoCConfig(width=2, height=3, router_delay_cycles=1,
                        link_delay_cycles=0)
        pairs = [((0, 2), (0, 0)), ((0, 2), (1, 0)), ((1, 2), (0, 0)),
                 ((0, 2), (0, 0)), ((1, 2), (0, 0))]
        times = [1, 2, 0, 0, 2]
        want = [((0, 2), 0.0, 2.0), ((1, 2), 0.0, 3.0), ((0, 2), 1.0, 4.0),
                ((0, 2), 2.0, 5.0), ((1, 2), 2.0, 5.0)]
    assert _regression(cfg, pairs, times, tie) == want


def test_delivery_cycle_mixing_free_and_queued_packets():
    # Cycle 3 delivers packet 0, queued behind packet 1 on the +x link
    # out of (1, 1), and packet 2, which never queued.  The free
    # packets' order, (cycle, hops descending, input order), would put
    # packet 2 first.
    pairs = [((1, 1), (2, 1)), ((0, 1), (2, 1)), ((2, 0), (1, 1))]
    assert _regression(ONE_CYCLE, pairs, [1, 0, 1],
                       "mixed delivery cycle") == [
        ((0, 1), 0.0, 2.0), ((1, 1), 1.0, 3.0), ((2, 0), 1.0, 3.0),
    ]


#: The ledger's ``noc-replay`` traces: (profile, generator parameters,
#: mesh side), copy 0 of each.
LEDGER_NOC = (("noc-uniform", {"n": 10_000, "nodes": 64, "rate": 2500.0}, 8),
              ("noc-hotspot", {"n": 10_000, "nodes": 16, "rate": 2500.0,
                               "hot_fraction": 0.4}, 4))


@pytest.mark.parametrize("seed", [20140215, 7])
@pytest.mark.parametrize("profile, params, side", LEDGER_NOC,
                         ids=[t[0] for t in LEDGER_NOC])
def test_schedule_matches_the_kernel_on_the_ledger_traces(profile, params,
                                                          side, seed):
    # The packets the ``noc`` sink builds from the trace.
    _, arr = generate(profile, seed=derive_seed(seed, f"{profile}.0>noc"),
                      **params)
    nodes = side * side
    ids = np.stack([arr["client"], arr["target"]], 1).astype(np.int64) % nodes
    same = ids[:, 0] == ids[:, 1]
    ids[same, 1] = (ids[same, 1] + 1) % nodes
    pairs = np.stack([ids % side, ids // side], axis=2)
    ts = arr["ts"]
    times = np.floor((ts - ts[0]) / float(ts[-1] - ts[0]) * (2.0 * len(arr)))
    cfg = NoCConfig(width=side, height=side)
    runs = [MeshNoC(cfg).run(pairs, injection_times=times,
                             max_cycles=500_000, sim=sim)
            for sim in (None, Simulator())]
    walk, kernel = ([r.latencies.tolist(), r.hops.tolist(), r.dropped,
                     r.cycles] for r in runs)
    assert walk == kernel
    assert walk[2] == 0 and len(walk[0]) == len(arr)


def test_same_cycle_departure_runs_after_earlier_ones():
    # hop_latency == 1.  Packet 0's departure from (1,0) at cycle 1 was
    # scheduled in cycle 0; packet 1, injected at cycle 1 at (2,1),
    # departs in cycle 1 too, after it.  Both then queue for the link
    # (2,0)->(3,0), packet 0 first.
    cfg = NoCConfig(width=4, height=2, router_delay_cycles=1,
                    link_delay_cycles=0)
    pairs = [((0, 0), (3, 0)), ((2, 1), (3, 0))]
    times = np.array([0.0, 1.0])
    walk = _run(cfg, pairs, times, 200_000, "yx", sim=None)
    assert walk == _run(cfg, pairs, times, 200_000, "yx", sim=Simulator)
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


@pytest.mark.parametrize("sim", [None, Simulator], ids=["walk", "kernel"])
@pytest.mark.parametrize("bad", [math.nan, True, np.bool_(False)],
                         ids=["nan", "True", "np.False_"])
def test_nan_or_bool_max_cycles_rejected(sim, bad):
    # A NaN horizon used to drop every packet on the walk and report
    # ``cycles=nan``; the kernel path failed inside ``Simulator.run``.
    noc = MeshNoC(NoCConfig(width=2, height=2))
    with pytest.raises(ValueError, match="max_cycles"):
        noc.run([((0, 0), (1, 0))], max_cycles=bad,
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
    # ``True`` used to build a 1-wide mesh or a 1-cycle delay.
    with pytest.raises(ValueError, match=field):
        NoCConfig(**{field: True})
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
    # Stepping an unsigned coordinate down used to overflow in xy_route.
    down = ((np.uint8(1), np.uint8(1)), (np.uint8(0), np.uint8(0)))
    res = noc.run([down], sim=sim() if sim is not None else None)
    assert res.dropped == 0 and res.hops.tolist() == [2.0]


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


def reference_route_table(cfg, pairs, route_fn):
    """The per-pair loop ``MeshNoC.run`` used before its route table:
    ``(ends, route_ids, routes)``."""

    def check_coord(c):
        if not (is_integer(c[0]) and is_integer(c[1])):
            raise ValueError(f"coordinate {c} is not a pair of integers")
        if not (0 <= c[0] < cfg.width and 0 <= c[1] < cfg.height):
            raise ValueError(f"coordinate {c} outside the mesh")

    route_of = {}
    routes = []
    route_ids = []
    for src, dst in pairs:
        r = route_of.get((src, dst))
        if r is None:
            check_coord(src)
            check_coord(dst)
            if src == dst:
                raise ValueError("self-loop packet")
            r = route_of[(src, dst)] = len(routes)
            routes.append(route_fn(src, dst))
        route_ids.append(r)
    return list(route_of), route_ids, routes


def _nested_tuples(value):
    """An array as the nested tuples of Python scalars it holds."""
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, list):
        return tuple(_nested_tuples(v) for v in value)
    return value


def _by_first_sight(distinct, route_ids):
    """A route table as ``(ends, route_ids)`` lists, renumbered in the
    order the pairs first appear, as the per-pair loop numbered them.
    Every distinct pair must be some packet's."""
    seen = list(dict.fromkeys(route_ids.tolist()))
    assert sorted(seen) == list(range(len(distinct)))
    rank = {r: i for i, r in enumerate(seen)}
    ends = list(_nested_tuples(distinct))
    return [ends[r] for r in seen], [rank[r] for r in route_ids.tolist()]


def _on_python_ints(route_fn):
    """``route_fn`` on Python ints: the per-pair loop passed numpy
    coordinates through, and ``xy_route`` overflowed stepping an
    unsigned one down."""
    return lambda src, dst: route_fn(tuple(map(int, src)),
                                     tuple(map(int, dst)))


def _outcome(fn):
    """``fn()``'s result, or the type and message of what it raised."""
    try:
        return fn()
    except (ValueError, TypeError, IndexError) as exc:
        return type(exc), str(exc)


BAD_PAIRS = ("float", "outside", "self-loop", "float-array", "wrong-shape")


@st.composite
def route_tables(draw):
    width = draw(st.integers(1, 6))
    height = draw(st.integers(2 if width == 1 else 1, 6))
    coords = st.tuples(st.integers(0, width - 1), st.integers(0, height - 1))
    # A small pool of distinct pairs, drawn from many times: most
    # packets repeat a pair seen before.
    pool = draw(st.lists(
        st.tuples(coords, coords).filter(lambda p: p[0] != p[1]),
        min_size=1, max_size=8, unique=True,
    ))
    pairs = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=80))
    form = draw(st.sampled_from(["python", "numpy", "array"]))
    if form == "numpy":
        kinds = st.sampled_from((int,) + INT_DTYPES)
        pairs = [tuple(tuple(draw(kinds)(c) for c in end) for end in pair)
                 for pair in pairs]
    elif form == "array":
        pairs = np.array(pairs, dtype=draw(st.sampled_from(INT_DTYPES)))
    bad = draw(st.one_of(st.none(), st.sampled_from(BAD_PAIRS)))
    if bad is None:
        pass
    elif bad == "float-array":
        pairs = np.array(pairs, dtype=float)
        pairs[draw(st.integers(0, len(pairs))):, 0, 0] += 0.25
    elif bad == "wrong-shape":
        shape = draw(st.sampled_from(["three-ends", "one-number",
                                      "flat-array", "node-ids"]))
        if shape == "flat-array":
            pairs = np.array(pairs).reshape(-1, 4)
        elif shape == "node-ids":
            pairs = np.array(pairs)[:, :, 0]
        else:
            src, dst = pool[0]
            pairs = list(_nested_tuples(np.asarray(pairs)))
            pairs.insert(draw(st.integers(0, len(pairs))),
                         (src, dst, dst) if shape == "three-ends"
                         else ((src[0],), dst))
    else:
        src, dst = pool[0]
        if bad == "outside":
            src = (draw(st.sampled_from([-1, width])), src[1])
        elif bad == "self-loop":
            dst = src
        if form == "numpy":
            src, dst = tuple(map(np.int64, src)), tuple(map(np.int64, dst))
        if bad == "float":
            src = (src[0] + 0.5, src[1])
        i = draw(st.integers(0, len(pairs)))
        if form == "array" and bad != "float":
            pairs = np.insert(pairs.astype(np.int64), i, (src, dst), axis=0)
        else:
            pairs = list(_nested_tuples(pairs) if form == "array" else pairs)
            pairs.insert(i, (src, dst))
    routing = draw(st.sampled_from(["xy", "yx"]))
    return NoCConfig(width=width, height=height), pairs, routing


@settings(max_examples=300, deadline=None, phases=NO_SHRINK)
@given(route_tables())
def test_route_table_matches_the_per_pair_loop(case):
    cfg, pairs, routing = case
    route_fn = ROUTES[routing]
    # The loop hashes its pairs, so it reads an array as tuples.
    ref_pairs = (_nested_tuples(pairs) if isinstance(pairs, np.ndarray)
                 else pairs)
    want = _outcome(lambda: reference_route_table(
        cfg, ref_pairs, _on_python_ints(route_fn)))
    noc = MeshNoC(cfg)

    def table():
        distinct, route_ids = noc._route_table(pairs)
        assert distinct.dtype == np.int64 and route_ids.dtype == np.intp
        # The distinct pairs come in the order of their node ids.
        ids = distinct[..., 0] + distinct[..., 1] * cfg.width
        assert (np.diff(ids[:, 0] * cfg.width * cfg.height + ids[:, 1])
                > 0).all()
        ends, route_ids = _by_first_sight(distinct, route_ids)
        return ends, route_ids, [route_fn(*end) for end in ends]

    got = _outcome(table)
    assert got == want
    for sim in (None, Simulator):
        run = _outcome(lambda: noc.run(
            pairs, routing=routing,
            sim=sim() if sim is not None else None).dropped)
        assert run == (want if isinstance(want[0], type) else 0)


@settings(max_examples=100, deadline=None, phases=NO_SHRINK)
@given(st.integers(1, 8), st.integers(1, 8), st.integers(1, 2000),
       st.integers(1, 60), st.integers(0, 2**32 - 1),
       st.sampled_from(["list", "array"]))
def test_pair_keys_and_node_id_rows_number_pairs_alike(
        width, height, n, distinct, seed, form):
    # The same pairs on a mesh of more than 2**31 nodes, whose pair
    # keys could overflow int64, are numbered by node-id rows through
    # ``np.unique(axis=0)`` instead of one key each.
    nodes = width * height
    if nodes < 2:
        height = 2
        nodes = width * height
    rng = np.random.default_rng(seed)
    src = rng.integers(0, nodes, size=distinct)
    dst = (src + rng.integers(1, nodes, size=distinct)) % nodes
    pick = rng.integers(0, distinct, size=n)
    ids = np.stack([src[pick], dst[pick]], axis=1)
    pairs = np.stack([ids % width, ids // width], axis=2)
    if form == "list":
        pairs = _nested_tuples(pairs)
    tall = NoCConfig(width=width, height=2**31 // width + 1)
    want = MeshNoC(NoCConfig(width=width, height=height))._route_table(pairs)
    got = MeshNoC(tall)._route_table(pairs)
    assert got[0].tolist() == want[0].tolist()
    assert got[1].tolist() == want[1].tolist()
    assert (_by_first_sight(*want)[0]
            == list(dict.fromkeys(_nested_tuples(pairs))))


@pytest.mark.parametrize("sim", [None, Simulator], ids=["walk", "kernel"])
def test_list_and_array_pairs_run_alike(sim):
    cfg = NoCConfig(width=4, height=3)
    rng = np.random.default_rng(3)
    ids = rng.integers(0, 12, size=(200, 2))
    ids = ids[ids[:, 0] != ids[:, 1]]
    arr = np.stack([ids[:, 0] % 4, ids[:, 0] // 4, ids[:, 1] % 4,
                    ids[:, 1] // 4], axis=1).reshape(-1, 2, 2)
    times = np.sort(rng.integers(0, 50, size=len(arr))).astype(float)
    as_list = _run(cfg, _nested_tuples(arr), times, 200_000, "xy", sim)
    for dtype in (np.int64, np.uint8):
        assert _run(cfg, arr.astype(dtype), times, 200_000, "xy",
                    sim) == as_list


def test_integral_float_repeat_of_a_seen_pair_is_rejected():
    # The per-pair loop looked ``((0, 0), (1, 1.0))`` up as the pair
    # ``((0, 0), (1, 1))`` it had already checked, and routed it.
    noc = MeshNoC(NoCConfig(width=2, height=2))
    with pytest.raises(ValueError, match="integers"):
        noc.run([((0, 0), (1, 1)), ((0, 0), (1, 1.0))])


@pytest.mark.parametrize("sim", [None, Simulator], ids=["walk", "kernel"])
def test_mesh_whose_pair_keys_overflow_int64_routes(sim):
    # 2**16 x 2**16 nodes: ``nodes**2`` is 2**64, past int64, so the
    # pairs are told apart by their node ids instead.
    side = 2**16
    far = side - 1
    pairs = [((far, far), (far - 1, far)), ((far, far - 1), (far, far)),
             ((far, far), (far - 1, far)), ((far - 1, far), (far, far))]
    noc = MeshNoC(NoCConfig(width=side, height=side))
    ends, route_ids = _by_first_sight(*noc._route_table(np.array(pairs)))
    assert ends == [pairs[0], pairs[1], pairs[3]]
    assert route_ids == [0, 1, 0, 2]
    res = noc.run(pairs, sim=sim() if sim is not None else None)
    assert res.dropped == 0 and res.hops.tolist() == [1.0] * 4
    assert sorted(res.latencies.tolist()) == [3.0, 3.0, 3.0, 4.0]


def test_cycles_far_apart_on_a_wide_mesh():
    # Bursts 2**45 cycles apart on a 2**16-wide mesh: a level's packed
    # sort key and its per-link offsets would overflow int64, so the
    # level schedule sorts with np.lexsort and runs its FIFOs one link
    # at a time.
    side = 2**16
    far = side - 1
    pairs = [((far - 1, far), (far - 2, far)), ((far - 1, far), (far - 2, far)),
             ((far, far - 1), (far - 2, far - 1)), ((far, 0), (far - 2, 0)),
             ((far - 1, far - 1), (far - 2, far - 1)),
             ((far, far - 1), (far - 2, far - 1))]
    times = np.array([0.0, 2.0**46 + 1, 0.0, 2.0**45, 2.0**45, 0.0])
    cfg = NoCConfig(width=side, height=side)
    walk = _run(cfg, pairs, times, 2**47, "xy", sim=None)
    assert walk == _run(cfg, pairs, times, 2**47, "xy", sim=Simulator)
    assert walk[2] == 2.0**46 + 4


@pytest.mark.parametrize("routing", ["zx", "XY", "", "x"])
def test_unknown_routing_is_one_error_on_both_paths_and_the_sink(routing):
    message = f"unknown routing {routing!r}; choose from xy, yx"
    pairs = [((0, 0), (1, 1))]
    for sim in (None, Simulator()):
        with pytest.raises(ValueError) as err:
            MeshNoC(NoCConfig(width=2, height=2)).run(pairs, sim=sim,
                                                      routing=routing)
        assert str(err.value) == message
    _, arr = generate("noc-uniform", seed=1, n=50, nodes=16)
    with pytest.raises(ValueError) as err:
        replay([(KIND_REQUEST, arr)], sink="noc",
               sink_params={"width": 4, "height": 4, "routing": routing})
    assert str(err.value) == message
