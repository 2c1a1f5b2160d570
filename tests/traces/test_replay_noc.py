"""Differential tests for the ``noc`` replay sink.

The sink reads each run's per-packet ``latencies`` and ``hops`` arrays
and builds its packet list from numpy columns.  The reference below is
the sink it replaced: one ``(src, dst)`` tuple per record built with
``int()``, every statistic read back from ``NoCResult.delivered``
packets, and the mesh run on the event kernel (a ``sim`` passed to
:meth:`MeshNoC.run`).  Random request blocks of uniform and hotspot
traffic on meshes from 1x2 to 8x8, both routings, tied and shuffled
timestamps and horizons that cut the run mid-flight must give equal
outputs and digests.  The sink never reads ``delivered``, a mesh of
more than 65535 nodes, wider than the uint16 record fields, replays,
and a bad mesh or horizon is a ``ValueError`` before any arithmetic.
"""

from __future__ import annotations

import math
import warnings
from typing import Any, Dict, List
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.events import Simulator
from repro.interconnect.noc import MeshNoC, NoCConfig, NoCResult
from repro.traces.format import KIND_REQUEST, dtype_for
from repro.traces.generators import generate
from repro.traces.replay import SINKS, _quantiles, _time_ordered, replay


def reference_noc(
    blocks: List[np.ndarray],
    width: int = 8,
    height: int = 8,
    routing: str = "xy",
    max_cycles: int = 500_000,
) -> Dict[str, Any]:
    """The Packet-reading sink, on the kernel path."""
    arr, _ = _time_ordered(blocks)
    nodes = width * height
    src_ids = arr["client"] % nodes
    dst_ids = arr["target"] % nodes
    same = src_ids == dst_ids
    dst_ids = np.where(same, (dst_ids + 1) % nodes, dst_ids)
    pairs = [
        ((int(s) % width, int(s) // width),
         (int(d) % width, int(d) // width))
        for s, d in zip(src_ids, dst_ids)
    ]
    ts = arr["ts"]
    span = float(ts[-1] - ts[0]) or 1.0
    cycles = np.floor((ts - ts[0]) / span * (len(arr) * 2.0))
    noc = MeshNoC(NoCConfig(width=width, height=height))
    result = noc.run(
        pairs,
        injection_times=cycles,
        max_cycles=max_cycles,
        sim=Simulator(),
        routing=routing,
    )
    delivered = result.delivered
    lat = (
        np.array([p.latency for p in delivered])
        if delivered
        else np.zeros(1)
    )
    return {
        "routing": routing,
        "mesh": [width, height],
        "packets": len(pairs),
        "delivered": len(delivered),
        "dropped": len(pairs) - len(delivered),
        "latency_cycles": _quantiles(lat),
        "mean_hops": float(np.mean([p.hops for p in delivered]))
        if delivered
        else 0.0,
        "total_cycles": float(result.cycles),
    }


@st.composite
def noc_cases(draw):
    width = draw(st.integers(1, 8))
    height = draw(st.integers(2 if width == 1 else 1, 8))
    nodes = width * height
    n = draw(st.integers(1, 300))
    seed = draw(st.integers(0, 2**16))
    if draw(st.booleans()):
        _, arr = generate("noc-uniform", seed=seed, n=n, nodes=nodes,
                          rate=draw(st.sampled_from([50.0, 2500.0])))
    else:
        _, arr = generate("noc-hotspot", seed=seed, n=n, nodes=nodes,
                          rate=draw(st.sampled_from([50.0, 2500.0])),
                          hotspot=draw(st.integers(0, nodes - 1)),
                          hot_fraction=draw(st.sampled_from([0.4, 0.9])))
    arr = arr.copy()
    order = draw(st.sampled_from(["sorted", "tied", "shuffled"]))
    if order != "sorted":
        # A coarse grid makes many records share a timestamp.
        arr["ts"] = np.floor(arr["ts"] / arr["ts"][-1] * 8.0)
    if order == "shuffled":
        arr = arr[np.random.default_rng(seed).permutation(n)]
    # A short horizon cuts the run while packets are still in flight.
    max_cycles = draw(st.one_of(st.just(500_000), st.integers(0, 2 * n)))
    params = {"width": width, "height": height,
              "routing": draw(st.sampled_from(["xy", "yx"])),
              "max_cycles": max_cycles}
    return arr, params


@settings(max_examples=200, deadline=None)
@given(noc_cases())
def test_noc_sink_matches_the_packet_reading_reference(case):
    arr, params = case
    got = SINKS["noc"][1]([arr], **params)
    want = reference_noc([arr], **params)
    assert got == want
    source = [(KIND_REQUEST, arr)]
    digest = replay(source, sink="noc", sink_params=params).digest()
    with mock.patch.dict(SINKS, {"noc": (KIND_REQUEST, reference_noc)}):
        assert replay(source, sink="noc",
                      sink_params=params).digest() == digest


def test_noc_sink_never_reads_delivered(monkeypatch):
    def refuse(self):
        raise AssertionError("the noc sink read NoCResult.delivered")

    monkeypatch.setattr(NoCResult, "delivered", property(refuse))
    _, arr = generate("noc-hotspot", seed=5, n=500, nodes=16)
    out = replay([(KIND_REQUEST, arr)], sink="noc",
                 sink_params={"width": 4, "height": 4}).outputs
    assert out["delivered"] == 500


def test_mesh_wider_than_uint16_node_ids_replays():
    # 256 x 257 = 65792 nodes: the uint16 record fields must widen
    # before the node-count modulo.
    n = 40
    arr = np.zeros(n, dtype=dtype_for(KIND_REQUEST))
    arr["ts"] = np.arange(n, dtype=float)
    arr["client"] = np.linspace(0, 65535, n).astype(np.uint16)
    arr["target"] = arr["client"][::-1]
    out = replay([(KIND_REQUEST, arr)], sink="noc",
                 sink_params={"width": 256, "height": 257}).outputs
    assert out["mesh"] == [256, 257]
    assert out["delivered"] == n and out["dropped"] == 0


@pytest.mark.parametrize("routing", ["xy", "yx"])
def test_ledger_sized_blocks_match_the_reference(routing):
    for profile, nodes, width in (("noc-uniform", 64, 8),
                                  ("noc-hotspot", 16, 4)):
        _, arr = generate(profile, seed=11, n=3000, nodes=nodes,
                          rate=2500.0)
        params = {"width": width, "height": width, "routing": routing}
        assert (SINKS["noc"][1]([arr], **params)
                == reference_noc([arr], **params))


@pytest.mark.parametrize("params, field", [
    ({"width": 0}, "mesh dimensions"),
    ({"height": 0}, "mesh dimensions"),
    ({"width": True}, "width"),
    ({"max_cycles": math.nan}, "max_cycles"),
], ids=["width-0", "height-0", "width-True", "max_cycles-nan"])
def test_bad_params_raise_before_any_warning(params, field):
    # A zero-node mesh used to warn of a division by zero first, and a
    # NaN horizon to fail inside ``digest()`` on its NaN cycle count.
    _, arr = generate("noc-uniform", seed=1, n=50, nodes=16)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=field):
            replay([(KIND_REQUEST, arr)], sink="noc", sink_params=params)
