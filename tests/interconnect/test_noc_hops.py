"""Differential test for the NoC walk's link levels.

The walk schedules hops one link level at a time
(``noc._dimension_levels``): each packet's route is two legs, and hop
``j`` of a leg crosses link ``link`` of level ``start + j``.
:func:`xy_route` and :func:`yx_route`, one route at a time, are the
reference.  On random meshes, 1xN and Nx1 ones and one of more than
2**31 nodes included, every route's hops must cross the levels and
links that the level rule gives its scalar route's steps, in order;
levels must rise strictly along a route, the first axis's below
``split``; and a ``(level, link)`` pair must name one directed link of
the mesh, and it only.  And the walk never routes a pair in Python:
with both scalar functions made to raise, a walk-path run and a
``noc`` replay give the outputs they give without the patch.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from repro.interconnect import MeshNoC, NoCConfig
from repro.interconnect import topology
from repro.interconnect.noc import _dimension_levels
from repro.interconnect.topology import ROUTES
from repro.traces.format import KIND_REQUEST
from repro.traces.generators import generate
from repro.traces.replay import replay

#: A failure reports the example it drew, in seconds, not a minimal one.
NO_SHRINK = tuple(p for p in Phase if p is not Phase.shrink)
#: A mesh of more than 2**31 nodes, where pair keys could overflow int64.
HUGE = (2**16, 2**15 + 1)


def reference_levels(route, width, height, routing):
    """The ``(level, link)`` of each step of a scalar route, and the
    directed link ``(from, to)`` it takes.  Under ``xy`` a ``+x`` step
    from column ``x`` is level ``x``, a ``-x`` one ``W-1-x``, a ``+y``
    step from row ``y`` ``W-1+y`` and a ``-y`` one ``W-1+H-1-y``; ``yx``
    swaps the axes.  A link within its level is ``2 * c + (step < 0)``,
    ``c`` its coordinate on the other axis."""
    lead = int(routing == "yx")
    sizes = (width, height)
    first, other = sizes[lead], sizes[1 - lead]
    out = []
    for a, b in zip(route, route[1:]):
        axis = 0 if a[0] != b[0] else 1
        back = b[axis] < a[axis]
        size = sizes[axis]
        level = size - 1 - a[axis] if back else a[axis]
        if axis != lead:
            level += first - 1
        assert level < first + other - 2
        out.append(((level, 2 * a[1 - axis] + back), (a, b)))
    return out


@st.composite
def meshes_and_pairs(draw):
    shape = draw(st.sampled_from(["any", "row", "column", "huge"]))
    if shape == "huge":
        width, height = HUGE
        # A few short pairs near the far corner of the huge mesh.
        corner = st.tuples(st.integers(width - 4, width - 1),
                           st.integers(height - 4, height - 1))
    else:
        width = 1 if shape == "column" else draw(st.integers(1, 9))
        height = 1 if shape == "row" else draw(st.integers(1, 9))
        if width * height == 1:
            width = 2
        corner = st.tuples(st.integers(0, width - 1),
                           st.integers(0, height - 1))
    pairs = draw(st.lists(st.tuples(corner, corner).filter(
        lambda p: p[0] != p[1]), min_size=1, max_size=40, unique=True))
    routing = draw(st.sampled_from(sorted(ROUTES)))
    return NoCConfig(width=width, height=height), pairs, routing


@settings(max_examples=300, deadline=None, phases=NO_SHRINK)
@given(meshes_and_pairs())
def test_hop_levels_follow_the_scalar_routes(case):
    cfg, pairs, routing = case
    route_fn = ROUTES[routing]
    width, height = cfg.width, cfg.height
    first, second, split, levels = _dimension_levels(
        np.array(pairs, dtype=np.int64), width, height, routing)
    assert levels == width + height - 2
    assert split == (height if routing == "yx" else width) - 1
    named = {}
    for i, (src, dst) in enumerate(pairs):
        want = reference_levels(route_fn(src, dst), width, height, routing)
        got = []
        for (start, hops, link), below in ((first, True), (second, False)):
            for j in range(int(hops[i])):
                level = int(start[i]) + j
                assert (level < split) == below
                got.append((level, int(link[i])))
        assert got == [key for key, _ in want]
        assert all(a < b for (a, _), (b, _) in zip(got, got[1:]))
        for key, step in want:
            assert named.setdefault(key, step) == step
    # One directed link per ``(level, link)``, and one name per link.
    assert len(set(named.values())) == len(named)


def _refuse(src, dst):
    raise AssertionError(f"the walk routed {src} -> {dst} in Python")


def test_walk_routes_no_pair_in_python():
    cfg = NoCConfig(width=8, height=8)
    rng = np.random.default_rng(5)
    ids = rng.integers(0, 64, size=(3000, 2))
    ids = ids[ids[:, 0] != ids[:, 1]]
    pairs = np.stack([ids % 8, ids // 8], axis=2)
    times = np.sort(rng.integers(0, 2000, size=len(pairs))).astype(float)
    _, arr = generate("noc-hotspot", seed=5, n=2000, nodes=16)

    def outputs():
        runs = [MeshNoC(cfg).run(pairs, injection_times=times,
                                 routing=routing)
                for routing in sorted(ROUTES)]
        sink = [replay([(KIND_REQUEST, arr)], sink="noc",
                       sink_params={"width": 4, "height": 4,
                                    "routing": routing}).digest()
                for routing in sorted(ROUTES)]
        return ([(r.latencies.tolist(), r.hops.tolist(), r.dropped,
                  r.cycles) for r in runs], sink)

    want = outputs()
    with mock.patch.dict(ROUTES, {name: _refuse for name in ROUTES}), \
            mock.patch.multiple(topology, xy_route=_refuse,
                                yx_route=_refuse):
        assert outputs() == want
