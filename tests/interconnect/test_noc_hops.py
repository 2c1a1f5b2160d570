"""Differential test for the NoC walk's numpy dimension-order hops.

:func:`repro.interconnect.topology.dimension_order_hops` builds the
hops of many routes at once; :func:`xy_route` and :func:`yx_route`,
one route at a time, are its reference.  On random meshes, 1xN and Nx1
ones and one of more than 2**31 nodes included, every route's hop
count, the nodes its hops leave and the links they take must be those
of its scalar route, in order.  :meth:`MeshNoC._chains` shares one
chain of link queues per ``(node, destination)``; every distinct
pair's chain must cross exactly the links of its scalar route, in
order.  And the walk never routes a pair in Python: with both scalar
functions made to raise, a walk-path run and a ``noc`` replay give the
outputs they give without the patch.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from repro.interconnect import MeshNoC, NoCConfig
from repro.interconnect import topology
from repro.interconnect.topology import ROUTES, dimension_order_hops
from repro.traces.format import KIND_REQUEST
from repro.traces.generators import generate
from repro.traces.replay import replay

#: A failure reports the example it drew, in seconds, not a minimal one.
NO_SHRINK = tuple(p for p in Phase if p is not Phase.shrink)
#: A mesh of more than 2**31 nodes, where pair keys could overflow int64.
HUGE = (2**16, 2**15 + 1)


def reference_links(route, width):
    """The link ids of a scalar route's hops: ``4 * node + d``, ``d``
    0-3 for a step to ``+x``, ``-x``, ``+y`` or ``-y``."""
    steps = {(1, 0): 0, (-1, 0): 1, (0, 1): 2, (0, -1): 3}
    return [4 * (x + y * width) + steps[(bx - x, by - y)]
            for (x, y), (bx, by) in zip(route, route[1:])]


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
def test_hops_and_chains_follow_the_scalar_routes(case):
    cfg, pairs, routing = case
    route_fn = ROUTES[routing]
    routes = [route_fn(src, dst) for src, dst in pairs]
    width = cfg.width
    arr = np.array(pairs, dtype=np.int64)
    counts, nodes, links = dimension_order_hops(arr[:, 0], arr[:, 1],
                                                width, routing)
    assert counts.tolist() == [len(r) - 1 for r in routes]
    at = 0
    for route, n in zip(routes, counts.tolist()):
        assert nodes[at:at + n].tolist() == [x + y * width
                                             for x, y in route[:-1]]
        assert links[at:at + n].tolist() == reference_links(route, width)
        at += n
    assert at == len(nodes) == len(links)

    noc = MeshNoC(cfg)
    heads, hops = noc._chains(arr, routing)
    assert hops.tolist() == counts.tolist()
    link_of = {id(state.queue): link for link, state in noc._links.items()}
    assert len(link_of) == len(set(links.tolist()))
    for route, chain in zip(routes, heads):
        crossed = []
        while chain is not None:
            queue, chain = chain
            crossed.append(link_of[id(queue)])
        assert crossed == reference_links(route, width)


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
