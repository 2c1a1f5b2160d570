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

``MeshNoC._route_table`` checks and numbers the packets' ``(src, dst)``
pairs as one numpy array.  Its reference is the per-pair loop it
replaced (:func:`reference_route_table`): lists of Python and numpy
ints and arrays of every integer dtype, heavy with repeated pairs, must
give the same distinct pairs in the same order, the same route ids and
the same ``route_fn`` calls, and one bad pair the same exception.
"""

from __future__ import annotations

import math
import pickle
import signal
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from repro.core import instrument
from repro.core.events import Simulator
from repro.core.units import is_integer
from repro.interconnect import MeshNoC, NoCConfig
from repro.interconnect.topology import xy_route, yx_route

#: A failure reports the example it drew, in seconds, not a minimal one.
NO_SHRINK = tuple(p for p in Phase if p is not Phase.shrink)
INT_DTYPES = (np.int8, np.int16, np.int32, np.int64,
              np.uint8, np.uint16, np.uint32, np.uint64)


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


class _Recorder:
    """A route function that records its calls and routes on Python
    ints: the per-pair loop passed numpy coordinates through, and
    ``xy_route`` overflowed stepping an unsigned one down."""

    def __init__(self, route_fn):
        self.route_fn = route_fn
        self.calls = []

    def __call__(self, src, dst):
        self.calls.append((src, dst))
        return self.route_fn(tuple(map(int, src)), tuple(map(int, dst)))


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
    route_fn = draw(st.sampled_from([xy_route, yx_route]))
    return NoCConfig(width=width, height=height), pairs, route_fn


@settings(max_examples=300, deadline=None, phases=NO_SHRINK)
@given(route_tables())
def test_route_table_matches_the_per_pair_loop(case):
    cfg, pairs, route_fn = case
    reference = _Recorder(route_fn)
    # The loop hashes its pairs, so it reads an array as tuples.
    ref_pairs = (_nested_tuples(pairs) if isinstance(pairs, np.ndarray)
                 else pairs)
    want = _outcome(lambda: reference_route_table(cfg, ref_pairs,
                                                  reference))

    recorder = _Recorder(route_fn)
    noc = MeshNoC(cfg)

    def table():
        ends, route_ids = noc._route_table(pairs)
        assert route_ids.dtype == np.intp
        assert all(type(c) is int for end in ends for xy in end for c in xy)
        return ends, route_ids.tolist(), [route_fn(*end) for end in ends]

    got = _outcome(table)
    assert got == want
    # ``run`` routes each distinct pair once, in first-seen order.
    run = _outcome(lambda: noc.run(pairs, route_fn=recorder).dropped)
    if isinstance(want[0], type):
        assert run == want
    else:
        assert run == 0
        assert recorder.calls == reference.calls


@pytest.mark.parametrize("sim", [None, Simulator], ids=["walk", "kernel"])
def test_list_and_array_pairs_run_alike(sim):
    cfg = NoCConfig(width=4, height=3)
    rng = np.random.default_rng(3)
    ids = rng.integers(0, 12, size=(200, 2))
    ids = ids[ids[:, 0] != ids[:, 1]]
    arr = np.stack([ids[:, 0] % 4, ids[:, 0] // 4, ids[:, 1] % 4,
                    ids[:, 1] // 4], axis=1).reshape(-1, 2, 2)
    times = np.sort(rng.integers(0, 50, size=len(arr))).astype(float)
    as_list = _run(cfg, _nested_tuples(arr), times, 200_000, xy_route, sim)
    for dtype in (np.int64, np.uint8):
        assert _run(cfg, arr.astype(dtype), times, 200_000, xy_route,
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
    ends, route_ids = noc._route_table(np.array(pairs))
    assert ends == [pairs[0], pairs[1], pairs[3]]
    assert route_ids.tolist() == [0, 1, 0, 2]
    res = noc.run(pairs, sim=sim() if sim is not None else None)
    assert res.dropped == 0 and res.hops.tolist() == [1.0] * 4
    assert sorted(res.latencies.tolist()) == [3.0, 3.0, 3.0, 4.0]
