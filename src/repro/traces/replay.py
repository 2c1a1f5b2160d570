"""Trace replay: feed recorded streams into the existing simulators.

The second input mode for every simulator family: instead of drawing a
synthetic workload at run time, a *sink* replays a trace
(:mod:`repro.traces.format`).  No sink starts the event kernel.  The
``queue`` sink runs the cluster model's walks:
:func:`repro.core.queueing.fcfs_walk`, one FCFS recursion per server,
under the policies that never read queue depths (``rr``, ``target``,
``client``), and :func:`repro.core.queueing.jsq_walk` under ``jsq``.
The ``cpu`` sink counts its hazards and op classes over whole arrays,
and the ``memory`` sink runs
:meth:`repro.memory.hierarchy.MemoryHierarchy.run_trace`, E17's model,
which runs the cache hierarchy one level at a time, each level
filtering the whole ordered stream as address and write arrays.  All
three keep the order the kernel would run the records in: stable by
timestamp, with a timestamp before 0 or not finite a ``ValueError``
(the ``noc`` sink shares that boundary), as is a ``queue`` service time
that is negative or not finite.  A lane with no records is a
``TraceFormatError`` for every sink.  Under ``jsq`` the walk keeps a
heap only while every server is busy, and a request finishing at an
arrival's time is still in flight then: the kernel ran the bulk-loaded
arrival first.  The ``noc`` sink passes its packets as one ``(n, 2, 2)``
coordinate array, its ``routing`` name and no kernel to
:meth:`repro.interconnect.noc.MeshNoC.run`, which numbers the distinct
pairs and builds their hops in numpy and walks its ring of per-cycle
departure lists; the sink reads the result's per-packet ``latencies``
and ``hops`` arrays, not its packets.  The
``wear`` sink applies its write stream in closed form.

Sinks (:data:`SINKS`):

* ``queue``   — request records into an FCFS multi-server queue with a
  pluggable, deterministic scheduling policy (the scheduling
  championship's plug point), each server taking its records in stable
  timestamp order.
* ``noc``     — request records as node-to-node packets through
  :class:`repro.interconnect.noc.MeshNoC`, routed ``xy`` or ``yx``
  by name (the routing championship's plug point).
* ``memory``  — memory records through the default
  :class:`repro.memory.hierarchy.MemoryHierarchy`, one level at a time:
  L1 filters the whole stream in stable timestamp order, and each next
  level filters the previous level's misses.
* ``wear``    — memory-record write streams against a
  :class:`repro.memory.wear.WearLeveler` (the wear championship's plug
  point).
* ``cpu``     — instruction records through a small in-order scoreboard
  (load-use hazards, branch bubbles) in stable timestamp order.

Every sink returns a :class:`ReplayResult` whose :meth:`digest` covers
only deterministic simulation outputs — latencies, counts, cycle
totals, wear profiles, interval statistics — never wall-clock, so the
same trace + sink + params digests identically across serial/pool/socket
exec backends.
"""

from __future__ import annotations

import hashlib
import json
import numbers
from dataclasses import dataclass, field
from typing import Any, BinaryIO, Dict, Iterable, List, Optional, Tuple, Union

import numpy as np

from ..core.queueing import fcfs_walk, jsq_walk
from ..exec.cache import canonicalize
from .format import (
    KIND_INSTRUCTION,
    KIND_MEMORY,
    KIND_REQUEST,
    TraceFormatError,
    TraceReader,
    kind_name,
)
from .stats import IntervalStats

__all__ = [
    "QUEUE_POLICIES",
    "ReplayResult",
    "SINKS",
    "replay",
]


@dataclass
class ReplayResult:
    """Deterministic outcome of one trace replay."""

    sink: str
    records: int
    outputs: Dict[str, Any]
    stats: Dict[str, Any] = field(default_factory=dict)

    def digest(self) -> str:
        """sha256 over the canonical deterministic payload.

        The digest is the cross-backend parity check, so only
        simulation outputs contribute.
        """
        payload = canonicalize(
            {
                "sink": self.sink,
                "records": self.records,
                "outputs": self.outputs,
                "stats": self.stats,
            }
        )
        blob = json.dumps(
            payload, sort_keys=True, separators=(",", ":"), allow_nan=False
        ).encode()
        return hashlib.sha256(blob).hexdigest()

    def to_dict(self) -> Dict[str, Any]:
        return {
            "sink": self.sink,
            "records": self.records,
            "outputs": canonicalize(self.outputs),
            "stats": canonicalize(self.stats),
            "digest": self.digest(),
        }


def _gather(
    source: Union[str, bytes, BinaryIO, Iterable[Tuple[int, np.ndarray]]],
    want_kind: int,
    stats: Optional[IntervalStats],
) -> List[np.ndarray]:
    """Collect all blocks of ``want_kind``, feeding stats along the way.

    Blocks of other kinds are counted into stats but not replayed —
    a mixed trace replays per-sink, each sink taking its lane.  A lane
    with no records is a ``TraceFormatError``.
    """
    if isinstance(source, (str, bytes, bytearray)) or hasattr(source, "read"):
        with TraceReader(source) as reader:  # type: ignore[arg-type]
            blocks = [(k, a) for k, a in reader.blocks()]
    else:
        blocks = [(k, a) for k, a in source]
    out: List[np.ndarray] = []
    for kind, arr in blocks:
        if stats is not None:
            stats.feed(kind, arr)
        if kind == want_kind:
            out.append(arr)
    if not any(len(arr) for arr in out):
        raise TraceFormatError(
            f"trace has no {kind_name(want_kind)} records to replay"
        )
    return out


def _time_ordered(
    blocks: List[np.ndarray],
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """The blocks as one record array in the order the kernel runs them.

    A bulk-loaded train runs stable by timestamp, and the kernel refuses
    a timestamp before time 0 or one that is not finite; a decoded
    iterable may be out of order.  Returns the ordered array and the
    stable sort permutation, or ``None`` for it when the records were
    already in order.
    """
    arr = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
    order = None
    # A NaN fails ``>=`` too: a lane holding one is sorted, NaNs last.
    if not (np.diff(arr["ts"]) >= 0).all():
        order = np.argsort(arr["ts"], kind="stable")
        arr = arr[order]
    ts = arr["ts"]
    # In order, the ends bound every timestamp.
    if not (ts[0] >= 0 and ts[-1] < np.inf):
        raise ValueError(f"record timestamp {_out_of_range(ts)} is "
                         "before time 0 or not finite")
    return arr, order


def _out_of_range(values: np.ndarray) -> float:
    """The first of ``values`` that is negative or not finite."""
    return float(values[~((values >= 0) & (values < np.inf))][0])


def _quantiles(values: np.ndarray) -> Dict[str, float]:
    p50, p99 = np.percentile(values, [50, 99]).tolist()
    return {
        "mean": float(np.mean(values)),
        "p50": p50,
        "p99": p99,
        "max": float(np.max(values)),
    }


# -- queue sink ------------------------------------------------------------

#: Deterministic scheduling policies for the queue sink.  All are pure
#: functions of replay state (no RNG at replay time), so every policy
#: digests stably — the property the scheduling championship scores on.
QUEUE_POLICIES = ("rr", "target", "client", "jsq")


def _replay_queue(
    blocks: List[np.ndarray],
    n_servers: int = 8,
    policy: str = "rr",
) -> Dict[str, Any]:
    """FCFS servers: the cluster model's :func:`fcfs_walk` under the
    static policies, or its :func:`jsq_walk` under ``jsq`` with every
    rate 1.0 (``s / 1.0`` is exact)."""
    if policy not in QUEUE_POLICIES:
        raise ValueError(
            f"unknown queue policy {policy!r}; choose from "
            f"{', '.join(QUEUE_POLICIES)}"
        )
    if (isinstance(n_servers, bool)
            or not isinstance(n_servers, numbers.Integral)):
        raise ValueError(f"n_servers must be an integer, got {n_servers!r}")
    n_servers = int(n_servers)
    if n_servers < 1:
        raise ValueError("need at least one server")
    arr, order = _time_ordered(blocks)
    n = len(arr)
    times = arr["ts"]
    service_us = arr["service_us"]
    busy = _busy_seconds(service_us)
    if policy == "jsq":
        finish, served, free_at, _ = jsq_walk(
            times.tolist(), (service_us * 1e-6).tolist(), [1.0] * n_servers)
    else:
        picks = (None if policy == "rr"
                 else arr[policy].astype(np.int64) % n_servers)
        finish, served, free_at = fcfs_walk(
            times, service_us * 1e-6, picks, n_servers)
    # ``finish`` and ``times`` are in time order.
    walked = np.asarray(finish) - times
    # Each latency is filed under its record's original position: their
    # mean sums them in that order.
    if order is None:
        latencies = walked
    else:
        latencies = np.empty(n)
        latencies[order] = walked
    makespan = max(max(free_at), float(arr["ts"][-1]))
    return {
        "policy": policy,
        "n_servers": n_servers,
        "requests": n,
        "latency_s": _quantiles(latencies),
        "served_per_server": served,
        "utilization": (busy / (n_servers * makespan)) if makespan else 0.0,
    }


def _busy_seconds(service_us: np.ndarray) -> float:
    """Total service in seconds, summed in time order as the kernel's
    handlers did (not pairwise, as ``np.sum``) from their 0.0, which
    turns a sum of ``-0.0``s into ``0.0``; rejects a bad service time."""
    service = service_us * 1e-6
    if not (service.min() >= 0 and service.max() < np.inf):
        raise ValueError(f"record service_us {_out_of_range(service_us)} "
                         "is negative or not finite")
    return 0.0 + float(np.add.accumulate(service)[-1])


# -- noc sink --------------------------------------------------------------


def _replay_noc(
    blocks: List[np.ndarray],
    width: int = 8,
    height: int = 8,
    routing: str = "xy",
    max_cycles: int = 500_000,
) -> Dict[str, Any]:
    """Request records as packets on a ``width`` x ``height`` mesh, given
    to :meth:`MeshNoC.run` as one ``(n, 2, 2)`` array of coordinates and
    routed ``xy`` or ``yx``."""
    from ..interconnect.noc import MeshNoC, NoCConfig

    # The mesh is checked before any node-id arithmetic: a zero width
    # would divide by zero below.
    noc = MeshNoC(NoCConfig(width=width, height=height))
    arr, _ = _time_ordered(blocks)
    nodes = width * height
    # int64 before the modulo: the record fields are uint16, too narrow
    # for a node count above 65535.  Column 0 is the source node.
    ids = np.stack([arr["client"], arr["target"]], 1).astype(np.int64) % nodes
    same = ids[:, 0] == ids[:, 1]
    ids[same, 1] = (ids[same, 1] + 1) % nodes
    pairs = np.stack([ids % width, ids // width], axis=2)
    # Trace timestamps are seconds; the NoC clock is cycles.  Scale so
    # the whole trace spans a workload-proportional cycle window and
    # quantize to integers (the model aligns to cycle boundaries).  The
    # records are in order, so ``ts[0]`` and ``ts[-1]`` are the block's
    # earliest and latest timestamps.
    ts = arr["ts"]
    span = float(ts[-1] - ts[0]) or 1.0
    cycles = np.floor((ts - ts[0]) / span * (len(arr) * 2.0))
    result = noc.run(
        pairs,
        injection_times=cycles,
        max_cycles=max_cycles,
        routing=routing,
    )
    # The per-packet arrays, never ``result.delivered``: on the walk
    # that would build one Packet per delivery.
    delivered = len(result.latencies)
    return {
        "routing": routing,
        "mesh": [width, height],
        "packets": len(pairs),
        "delivered": delivered,
        "dropped": result.dropped,
        "latency_cycles": _quantiles(
            result.latencies if delivered else np.zeros(1)
        ),
        "mean_hops": float(np.mean(result.hops)) if delivered else 0.0,
        "total_cycles": float(result.cycles),
    }


# -- memory sink -----------------------------------------------------------


def _replay_memory(
    blocks: List[np.ndarray],
) -> Dict[str, Any]:
    """Memory records through the default three-level hierarchy.

    :meth:`~repro.memory.hierarchy.MemoryHierarchy.run_trace` takes the
    records in stable timestamp order, as ``uint64`` addresses and
    ``bool`` write flags, and runs one level at a time: L1 filters the
    whole stream, and each next level filters the previous level's
    misses.  A record reaching a level pays that level's latency; one
    missing every level also pays the memory latency.
    """
    from ..memory.hierarchy import MemoryHierarchy

    arr, _ = _time_ordered(blocks)
    result = MemoryHierarchy().run_trace(arr["addr"], arr["op"] != 0)
    return {
        "accesses": result.accesses,
        "level_hits": result.level_hits,
        "memory_accesses": result.memory_accesses,
        "total_cycles": result.total_cycles,
        "amat_cycles": result.amat_cycles,
    }


# -- wear sink -------------------------------------------------------------


def _replay_wear(
    blocks: List[np.ndarray],
    leveler: str = "none",
    n_lines: int = 4096,
    endurance: float = 1e6,
    line: int = 64,
    gap_interval: int = 100,
) -> Dict[str, Any]:
    from ..memory.wear import (
        NoWearLeveling,
        StartGapWearLeveling,
        TableWearLeveling,
    )

    levelers = {
        "none": lambda: NoWearLeveling(n_lines),
        "start-gap": lambda: StartGapWearLeveling(
            n_lines, gap_interval=gap_interval
        ),
        "table": lambda: TableWearLeveling(n_lines),
    }
    try:
        lvl = levelers[leveler]()
    except KeyError:
        raise ValueError(
            f"unknown wear leveler {leveler!r}; choose from "
            f"{', '.join(sorted(levelers))}"
        ) from None
    arr = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
    write_mask = arr["op"] != 0
    logicals = (
        (arr["addr"][write_mask] // np.uint64(line)) % np.uint64(n_lines)
    ).astype(np.int64)
    wear = np.zeros(n_lines + lvl.extra_frames)
    applied, crossed = lvl.write_stream(logicals, wear, endurance)
    nz = wear[wear > 0]
    return {
        "leveler": leveler,
        "writes": int(len(logicals)),
        "applied": int(applied),
        "endurance_crossed": bool(crossed),
        "max_wear": float(np.max(wear)) if wear.size else 0.0,
        "mean_wear": float(np.mean(wear)) if wear.size else 0.0,
        "lines_touched": int(len(nz)),
        "migration_writes": int(lvl.migration_writes),
    }


# -- cpu sink --------------------------------------------------------------


def _replay_cpu(
    blocks: List[np.ndarray],
    load_latency: int = 3,
    branch_penalty: int = 2,
) -> Dict[str, Any]:
    """In-order scoreboard: 1 cycle/op, load-use stalls, branch bubbles.

    Op classes follow :func:`repro.traces.generators.instr_mix`:
    0 ALU, 1 load, 2 store, 3 branch.  A consumer of the previous
    load's destination stalls ``load_latency - 1`` cycles; every branch
    pays ``branch_penalty`` pipeline bubbles.  Simple, but enough to
    rank instruction mixes, and fully deterministic.
    """
    arr, _ = _time_ordered(blocks)
    n = len(arr)
    op = arr["op"]
    # An op stalls when the op before it is a load and it reads that
    # load's destination register.
    dst = arr["dst"][:-1]
    after_load = (op[:-1] == 1) & (
        (arr["src1"][1:] == dst) | (arr["src2"][1:] == dst))
    stalls = int(np.count_nonzero(after_load)) * (load_latency - 1)
    loads, stores, branches = np.bincount(op, minlength=4)[1:4].tolist()

    # One cycle per op, plus the stalls and the branch bubbles.
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


#: sink name -> (record kind consumed, implementation).
SINKS = {
    "queue": (KIND_REQUEST, _replay_queue),
    "noc": (KIND_REQUEST, _replay_noc),
    "memory": (KIND_MEMORY, _replay_memory),
    "wear": (KIND_MEMORY, _replay_wear),
    "cpu": (KIND_INSTRUCTION, _replay_cpu),
}


def replay(
    source: Union[str, bytes, BinaryIO, Iterable[Tuple[int, np.ndarray]]],
    sink: str = "queue",
    sink_params: Optional[Dict[str, Any]] = None,
    stats_interval: int = 0,
) -> ReplayResult:
    """Replay one trace through one sink.

    ``source`` is a trace path, raw bytes, an open binary file, or an
    already-decoded iterable of ``(kind, array)`` blocks.
    ``stats_interval > 0`` attaches an :class:`IntervalStats` pass over
    every record in the trace (all kinds, not just the replayed lane)
    and embeds its summary in the result — and therefore in the digest.
    """
    try:
        want_kind, impl = SINKS[sink]
    except KeyError:
        raise ValueError(
            f"unknown replay sink {sink!r}; choose from "
            f"{', '.join(sorted(SINKS))}"
        ) from None
    stats = IntervalStats(stats_interval) if stats_interval > 0 else None
    blocks = _gather(source, want_kind, stats)
    outputs = impl(blocks, **(sink_params or {}))
    n = int(sum(len(b) for b in blocks))
    return ReplayResult(
        sink=sink,
        records=n,
        outputs=outputs,
        stats=stats.finish() if stats is not None else {},
    )
