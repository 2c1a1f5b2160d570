"""Differential tests for the ``queue`` and ``cpu`` replay sinks.

Neither sink starts the event kernel: the queue sink runs the cluster
model's walks, ``fcfs_walk`` (one FCFS recursion per server) under the
static policies and ``jsq_walk`` under ``jsq``, and the cpu sink counts
over whole arrays.  The references
below are the kernel-driven handlers they replaced (one bulk-loaded
event per record through :meth:`Simulator.schedule_batch`, and ``jsq``
completions scheduled mid-run) and the cpu sink's own per-record loop.
Random blocks with tied timestamps, zero service times and shuffled
order must give equal outputs, and so must the ledger-size
``bursty-requests`` trace under ``jsq``, fewer records than servers,
and arrivals at ``-0.0`` with ``-0.0`` service.  ``fcfs_walk`` reports
a server that gets no arrival with count 0 and last finish 0.0.  The
hypothesis differential test does not shrink a failure: each shrink
step reruns the kernel on up to 400 records.  A queue sink ``n_servers`` that is not an integer
is a ``ValueError``, and so is a service time that is negative or not
finite.  The same boundary holds for the ``noc``, ``memory`` and
``cpu`` sinks: a negative or non-finite timestamp is a ``ValueError``,
and a shuffled block replays like its stable-sorted copy.  Every sink,
these and ``wear``, rejects a lane with no records with a
``TraceFormatError``.
"""

from __future__ import annotations

import io
import json
from typing import Any, Dict, List

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from repro.core.events import Simulator
from repro.core.queueing import fcfs_walk
from repro.exec import derive_seed
from repro.traces.format import (
    KIND_INSTRUCTION,
    KIND_REQUEST,
    TraceFormatError,
    TraceWriter,
    dtype_for,
)
from repro.traces.generators import generate
from repro.traces.replay import QUEUE_POLICIES, SINKS, _quantiles, replay

# Values the retired REPRO_FASTPATH variable used to accept.
RETIRED_MODES = ("off", "auto")


def reference_queue(
    blocks: List[np.ndarray],
    sim: Simulator,
    n_servers: int = 8,
    policy: str = "rr",
) -> Dict[str, Any]:
    """The kernel-driven queue sink: one arrival event per record."""
    arr = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
    n = len(arr)
    times = arr["ts"].tolist()
    service = (arr["service_us"] * 1e-6).tolist()
    targets = arr["target"].tolist()
    clients = arr["client"].tolist()

    free_at = [0.0] * n_servers
    qlen = [0] * n_servers
    served = [0] * n_servers
    latencies = np.empty(n)
    rr = 0
    busy = 0.0
    need_qlen = policy == "jsq"

    def complete(s: Simulator, server: int) -> None:
        qlen[server] -= 1

    def pick(i: int) -> int:
        nonlocal rr
        if policy == "rr":
            srv = rr
            rr = (rr + 1) % n_servers
            return srv
        if policy == "target":
            return targets[i] % n_servers
        if policy == "client":
            return clients[i] % n_servers
        return qlen.index(min(qlen))

    def arrive(s: Simulator, i: int) -> None:
        nonlocal busy
        t = s.now
        srv = pick(i)
        f = free_at[srv]
        finish = (t if t > f else f) + service[i]
        free_at[srv] = finish
        served[srv] += 1
        busy += service[i]
        latencies[i] = finish - t
        if need_qlen:
            qlen[srv] += 1
            s.schedule_at(finish, complete, srv, cancellable=False)

    sim.schedule_batch(arr["ts"], arrive, payloads=range(n))
    sim.run()

    makespan = max(max(free_at), times[-1]) if n else 0.0
    return {
        "policy": policy,
        "n_servers": n_servers,
        "requests": n,
        "latency_s": _quantiles(latencies),
        "served_per_server": served,
        "utilization": (busy / (n_servers * makespan)) if makespan else 0.0,
    }


def reference_cpu(
    blocks: List[np.ndarray],
    sim: Simulator,
    load_latency: int = 3,
    branch_penalty: int = 2,
) -> Dict[str, Any]:
    """The kernel-driven cpu sink: one retire event per instruction."""
    arr = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
    n = len(arr)
    ops = arr["op"].tolist()
    dsts = arr["dst"].tolist()
    src1s = arr["src1"].tolist()
    src2s = arr["src2"].tolist()
    state = {"cycles": 0, "stalls": 0, "branches": 0,
             "loads": 0, "stores": 0, "last_load_dst": -1}

    def step(i: int) -> None:
        op = ops[i]
        cycles = 1
        last = state["last_load_dst"]
        if last >= 0 and (src1s[i] == last or src2s[i] == last):
            stall = load_latency - 1
            cycles += stall
            state["stalls"] += stall
        if op == 1:
            state["loads"] += 1
            state["last_load_dst"] = dsts[i]
        else:
            state["last_load_dst"] = -1
            if op == 2:
                state["stores"] += 1
            elif op == 3:
                state["branches"] += 1
                cycles += branch_penalty
        state["cycles"] += cycles

    def retire(s: Simulator, i: int) -> None:
        step(i)

    sim.schedule_batch(arr["ts"], retire, payloads=range(n))
    sim.run()

    cycles = state["cycles"]
    return {
        "instructions": n,
        "cycles": cycles,
        "ipc": n / cycles if cycles else 0.0,
        "stall_cycles": state["stalls"],
        "loads": state["loads"],
        "stores": state["stores"],
        "branches": state["branches"],
    }


def loop_cpu(
    blocks: List[np.ndarray],
    load_latency: int = 3,
    branch_penalty: int = 2,
) -> Dict[str, Any]:
    """The cpu sink's per-record scoreboard loop, before numpy."""
    arr = np.concatenate(blocks)
    arr = arr[np.argsort(arr["ts"], kind="stable")]
    n = len(arr)
    stall = load_latency - 1
    stalls = loads = stores = branches = 0
    last_load_dst = -1
    for op, dst, src1, src2 in zip(
        arr["op"].tolist(),
        arr["dst"].tolist(),
        arr["src1"].tolist(),
        arr["src2"].tolist(),
    ):
        if src1 == last_load_dst or src2 == last_load_dst:
            stalls += stall
        if op == 1:
            loads += 1
            last_load_dst = dst
        else:
            last_load_dst = -1
            if op == 2:
                stores += 1
            elif op == 3:
                branches += 1
    cycles = n + stalls + branches * branch_penalty
    return {
        "instructions": n,
        "cycles": cycles,
        "ipc": n / cycles if cycles else 0.0,
        "stall_cycles": stalls,
        "loads": loads,
        "stores": stores,
        "branches": branches,
    }


def _sink(name: str):
    return SINKS[name][1]


# Quarter-second timestamps and service times add exactly, so a
# completion often lands on a later arrival's timestamp, and zero
# service makes a completion tie with its own arrival.
_times = st.integers(0, 12).map(lambda k: k * 0.25)
_service_us = st.one_of(
    st.sampled_from([0.0, 250_000.0, 500_000.0, 750_000.0]),
    st.floats(0.0, 2e6, allow_nan=False, allow_infinity=False),
)


@st.composite
def request_blocks(draw) -> np.ndarray:
    # Up to 400 records: a server's slice then holds long busy periods,
    # where a pairwise or compensated busy-time sum rounds differently
    # from the kernel's running sum.
    n = draw(st.one_of(st.integers(1, 40), st.integers(41, 400)))
    arr = np.zeros(n, dtype=dtype_for(KIND_REQUEST))
    arr["ts"] = draw(st.lists(_times, min_size=n, max_size=n))
    arr["service_us"] = draw(st.lists(_service_us, min_size=n, max_size=n))
    arr["client"] = draw(st.lists(st.integers(0, 65535), min_size=n,
                                  max_size=n))
    arr["target"] = draw(st.lists(st.integers(0, 65535), min_size=n,
                                  max_size=n))
    if draw(st.booleans()):
        arr = arr[np.argsort(arr["ts"], kind="stable")]
    return arr


@st.composite
def instruction_blocks(draw) -> np.ndarray:
    n = draw(st.integers(1, 60))
    arr = np.zeros(n, dtype=dtype_for(KIND_INSTRUCTION))
    arr["ts"] = draw(st.lists(_times, min_size=n, max_size=n))
    for name, hi in (("op", 3), ("dst", 4), ("src1", 4), ("src2", 4)):
        arr[name] = draw(st.lists(st.integers(0, hi), min_size=n,
                                  max_size=n))
    if draw(st.booleans()):
        arr = arr[np.argsort(arr["ts"], kind="stable")]
    return arr


@given(request_blocks(), st.integers(1, 8))
@settings(max_examples=200,
          phases=tuple(p for p in Phase if p is not Phase.shrink))
def test_queue_sink_matches_the_kernel_reference(arr, n_servers):
    for policy in QUEUE_POLICIES:
        got = _sink("queue")([arr], n_servers=n_servers, policy=policy)
        want = reference_queue([arr], Simulator(), n_servers=n_servers,
                               policy=policy)
        assert got == want, policy


@given(instruction_blocks(), st.integers(1, 5), st.integers(0, 4))
@settings(max_examples=200)
def test_cpu_sink_matches_the_kernel_reference(arr, load_latency,
                                               branch_penalty):
    got = _sink("cpu")([arr], load_latency=load_latency,
                       branch_penalty=branch_penalty)
    want = reference_cpu([arr], Simulator(), load_latency=load_latency,
                         branch_penalty=branch_penalty)
    assert got == want


# Loads and few registers make back-to-back loads and load-use
# matches common; ops up to 255 cover the classes the sink ignores.
_ops = st.one_of(st.sampled_from([1, 1, 1, 0, 2, 3]), st.integers(0, 255))
_regs = st.one_of(st.integers(0, 3), st.integers(0, 255))
_instructions = st.tuples(_times, _ops, _regs, _regs, _regs)


@st.composite
def instruction_lanes(draw) -> List[np.ndarray]:
    """A lane of 1..3 blocks; timestamps tied, shuffled or in order."""
    records = draw(st.one_of(
        st.lists(_instructions, min_size=1, max_size=1),
        st.lists(_instructions, min_size=1, max_size=80),
    ))
    arr = np.zeros(len(records), dtype=dtype_for(KIND_INSTRUCTION))
    for i, name in enumerate(("ts", "op", "dst", "src1", "src2")):
        arr[name] = [record[i] for record in records]
    if draw(st.booleans()):
        arr = arr[np.argsort(arr["ts"], kind="stable")]
    cuts = []
    if len(arr) > 1:
        cuts = draw(st.lists(st.integers(1, len(arr) - 1), max_size=2,
                             unique=True))
    return np.split(arr, sorted(cuts))


@given(instruction_lanes(), st.integers(0, 6), st.integers(0, 4))
@settings(max_examples=300)
def test_cpu_sink_matches_the_loop(blocks, load_latency, branch_penalty):
    got = _sink("cpu")(blocks, load_latency=load_latency,
                       branch_penalty=branch_penalty)
    want = loop_cpu(blocks, load_latency=load_latency,
                    branch_penalty=branch_penalty)
    assert got == want
    assert all(type(v) is int for k, v in got.items() if k != "ipc")


@pytest.mark.parametrize("seed", [0, 7])
def test_cpu_sink_matches_the_loop_on_instr_mix(seed):
    _, arr = generate("instr-mix", seed=seed, n=5000)
    blocks = [arr[:1700], arr[1700:]]
    assert _sink("cpu")(blocks) == loop_cpu(blocks)


def test_a_completion_tied_with_an_arrival_retires_after_it():
    # Zero service: the first completion lands on the second arrival's
    # timestamp.  That arrival still sees server 0 occupied, so jsq
    # sends it to server 1.
    arr = np.zeros(3, dtype=dtype_for(KIND_REQUEST))
    arr["ts"] = [0.0, 0.0, 1.0]
    out = _sink("queue")([arr], n_servers=2, policy="jsq")
    assert out["served_per_server"] == [2, 1]
    assert out == reference_queue([arr], Simulator(), n_servers=2,
                                  policy="jsq")


@pytest.mark.parametrize("n_servers", [1, 3, 8])
def test_jsq_arrivals_at_time_zero_on_never_used_servers(n_servers):
    # Every server is unused at t == 0.0 and counts as idle: the first
    # n_servers arrivals take one each, and the next two queue behind
    # servers 0 and 1.
    arr = np.zeros(n_servers + 2, dtype=dtype_for(KIND_REQUEST))
    arr["service_us"] = 1e6
    out = _sink("queue")([arr], n_servers=n_servers, policy="jsq")
    assert out == reference_queue([arr], Simulator(), n_servers=n_servers,
                                  policy="jsq")
    assert out["served_per_server"] == (
        [3] if n_servers == 1 else [2, 2] + [1] * (n_servers - 2))
    assert out["latency_s"]["max"] == (3.0 if n_servers == 1 else 2.0)


def test_jsq_signed_zero_times_digest_like_the_kernel():
    # The kernel's servers start at 0.0: a -0.0 arrival with -0.0
    # service finishes at 0.0 there, and the digest tells the zeros
    # apart.
    arr = np.zeros(4, dtype=dtype_for(KIND_REQUEST))
    arr["ts"] = [-0.0, -0.0, 0.0, 0.0]
    arr["service_us"] = -0.0
    for n_servers in (1, 2, 5):
        got = _sink("queue")([arr], n_servers=n_servers, policy="jsq")
        want = reference_queue([arr], Simulator(), n_servers=n_servers,
                               policy="jsq")
        assert json.dumps(got) == json.dumps(want)


def test_fcfs_walk_servers_without_arrivals_report_zero():
    # Picks skip servers 1 and 3; round robin over 5 servers with 3
    # arrivals leaves servers 3 and 4 unused.
    times = np.array([0.0, 0.5, 1.0, 1.0])
    service = np.array([2.0, 1.0, 0.0, 0.5])
    finish, served, free_at = fcfs_walk(times, service,
                                        np.array([2, 0, 2, 2]), 4)
    assert finish.tolist() == [2.0, 1.5, 2.0, 2.5]
    assert served == [1, 0, 3, 0]
    assert free_at == [1.5, 0.0, 2.5, 0.0]
    finish, served, free_at = fcfs_walk(times[:3], service[:3], None, 5)
    assert finish.tolist() == [2.0, 1.5, 1.0]
    assert served == [1, 1, 1, 0, 0]
    assert free_at == [2.0, 1.5, 1.0, 0.0, 0.0]


@pytest.mark.parametrize("policy", ["rr", "target", "client"])
@pytest.mark.parametrize("n", [1, 3])
def test_static_policies_with_fewer_records_than_servers(policy, n):
    arr = np.zeros(n, dtype=dtype_for(KIND_REQUEST))
    arr["ts"] = np.arange(n) * 0.25
    arr["service_us"] = 1e6
    arr["target"] = [7, 7, 2][:n]
    arr["client"] = [1, 9, 1][:n]
    out = _sink("queue")([arr], n_servers=8, policy=policy)
    assert out == reference_queue([arr], Simulator(), n_servers=8,
                                  policy=policy)
    assert sum(out["served_per_server"]) == n
    assert out["served_per_server"].count(0) >= 8 - n


@pytest.mark.parametrize("policy", ["rr", "target", "client"])
def test_static_signed_zero_times_digest_like_the_kernel(policy):
    # Each server's recursion starts at the kernel's 0.0, as under jsq.
    arr = np.zeros(4, dtype=dtype_for(KIND_REQUEST))
    arr["ts"] = [-0.0, -0.0, 0.0, 0.0]
    arr["service_us"] = -0.0
    arr["target"] = [0, 1, 0, 1]
    arr["client"] = [3, 3, 3, 3]
    for n_servers in (1, 2, 5):
        got = _sink("queue")([arr], n_servers=n_servers, policy=policy)
        want = reference_queue([arr], Simulator(), n_servers=n_servers,
                               policy=policy)
        assert json.dumps(got) == json.dumps(want)


@pytest.mark.parametrize("copy", [0, 1])
@pytest.mark.parametrize("seed", [20140215, 7])
def test_jsq_matches_the_kernel_reference_on_the_ledger_trace(seed, copy):
    # The ledger's queue-cpu-replay jsq ops: 50k bursty records on 8
    # servers, with 650 to 800 requests in flight at the peak of a
    # burst and the walk entering its every-server-busy state ~180
    # times.
    _, arr = generate("bursty-requests",
                      seed=derive_seed(seed, f"bursty-requests.{copy}"
                                             ">queue:jsq"),
                      n=50_000, base_rate=500.0, burst_rate=5000.0,
                      mean_service_us=5000.0)
    got = _sink("queue")([arr], n_servers=8, policy="jsq")
    assert got == reference_queue([arr], Simulator(), n_servers=8,
                                  policy="jsq")


def test_multiple_blocks_match_the_kernel_reference():
    _, arr = generate("bursty-requests", seed=3, n=400)
    parts = [arr[:150], arr[150:]]
    for policy in QUEUE_POLICIES:
        params = {"n_servers": 3, "policy": policy}
        assert (_sink("queue")(parts, **params)
                == reference_queue(parts, Simulator(), **params))


@pytest.mark.parametrize("n_servers, match", [
    *((bad, "n_servers must be an integer")
      for bad in (2.5, 2.0, True, False, "8", None)),
    *((few, "at least one server") for few in (0, -1, np.int64(0))),
])
def test_a_bad_server_count_is_a_value_error(n_servers, match):
    kind, arr = generate("steady-requests", seed=1, n=20)
    with pytest.raises(ValueError, match=match):
        replay([(kind, arr)], sink="queue",
               sink_params={"n_servers": n_servers})


def test_a_numpy_server_count_replays_like_an_int():
    kind, arr = generate("steady-requests", seed=1, n=200)
    for policy in QUEUE_POLICIES:
        got = replay([(kind, arr)], sink="queue",
                     sink_params={"n_servers": np.int64(3),
                                  "policy": policy})
        want = replay([(kind, arr)], sink="queue",
                      sink_params={"n_servers": 3, "policy": policy})
        assert got.outputs == want.outputs
        assert type(got.outputs["n_servers"]) is int


def test_an_unknown_queue_policy_is_a_value_error():
    kind, arr = generate("steady-requests", seed=1, n=20)
    with pytest.raises(ValueError, match="unknown queue policy"):
        replay([(kind, arr)], sink="queue", sink_params={"policy": "lifo"})


@pytest.mark.parametrize(
    "sink, profile, params",
    [
        ("queue", "steady-requests", {}),
        ("noc", "noc-uniform", {"nodes": 16}),
        ("cpu", "instr-mix", {}),
    ],
    ids=["queue", "noc", "cpu"],
)
def test_negative_timestamp_is_rejected(sink, profile, params):
    kind, arr = generate(profile, seed=1, n=20, **params)
    arr = arr.copy()
    arr["ts"][0] = -1.0
    with pytest.raises(ValueError, match="before time 0"):
        replay([(kind, arr)], sink=sink)


@pytest.mark.parametrize("ts", [np.nan, np.inf, -np.inf],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("sink", ["queue", "noc", "memory", "cpu"])
def test_a_non_finite_timestamp_is_rejected(sink, ts):
    # Only the file reader checked these: a decoded block with a NaN
    # timestamp replayed to NaN quantiles (queue) or in no defined
    # order (memory).
    profile, params = _SINK_PROFILES[sink]
    kind, arr = generate(profile, seed=1, n=20, **params)
    arr = arr.copy()
    arr["ts"][5] = ts
    with pytest.raises(ValueError, match="not finite"):
        replay([(kind, arr)], sink=sink)


@pytest.mark.parametrize("service_us", [-1.0, np.nan, np.inf])
@pytest.mark.parametrize("policy", QUEUE_POLICIES)
def test_a_bad_service_time_is_rejected(policy, service_us):
    # Under jsq the kernel refuses the completion a negative or NaN
    # service would schedule; an infinite one has no finite latency.
    kind, arr = generate("steady-requests", seed=1, n=20)
    arr = arr.copy()
    arr["service_us"][3] = service_us
    with pytest.raises(ValueError, match="service_us"):
        replay([(kind, arr)], sink="queue", sink_params={"policy": policy})


_SINK_PROFILES = {
    "queue": ("steady-requests", {}),
    "noc": ("noc-uniform", {"nodes": 16}),
    "memory": ("kv-zipf", {}),
    "wear": ("wear-hotline", {}),
    "cpu": ("instr-mix", {}),
}


@pytest.mark.parametrize("sink", sorted(SINKS))
def test_a_zero_record_lane_is_a_typed_error(sink):
    # Decoded or read back from bytes, an empty block leaves the lane
    # with nothing to replay.
    profile, params = _SINK_PROFILES[sink]
    kind, arr = generate(profile, seed=1, n=20, **params)
    empty = arr[:0]
    buf = io.BytesIO()
    with TraceWriter(buf) as w:
        w.write_block(kind, empty)
    for source in ([(kind, empty)], buf.getvalue()):
        with pytest.raises(TraceFormatError, match="records to replay"):
            replay(source, sink=sink)


def _shuffled_noc_block() -> np.ndarray:
    """A noc-hotspot block with tied, shuffled timestamps."""
    _, arr = generate("noc-hotspot", seed=4, n=600, nodes=16, rate=2500.0,
                      hot_fraction=0.4)
    arr = arr.copy()
    arr["ts"] = np.floor(arr["ts"] * 1e3) / 1e3
    return arr[np.random.default_rng(9).permutation(len(arr))]


@pytest.mark.parametrize("mode", RETIRED_MODES)
def test_shuffled_noc_block_replays_like_its_stable_sorted_copy(
    mode, monkeypatch
):
    monkeypatch.setenv("REPRO_FASTPATH", mode)
    arr = _shuffled_noc_block()
    assert (np.diff(arr["ts"]) < 0).any()
    in_order = arr[np.argsort(arr["ts"], kind="stable")]
    params = {"width": 4, "height": 4}
    got = replay([(KIND_REQUEST, arr)], sink="noc", sink_params=params)
    want = replay([(KIND_REQUEST, in_order)], sink="noc",
                  sink_params=params)
    assert got.outputs["delivered"] == len(arr)
    assert got.digest() == want.digest()
