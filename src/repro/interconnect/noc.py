"""Cycle-approximate network-on-chip simulator.

Packet-level, dimension-order-routed 2-D mesh with single-flit packets
and one-packet-per-cycle links — the minimal model that still produces
the canonical NoC behaviours: low-load latency ~ hop count x router
delay, queueing growth with injection rate, and saturation throughput
differences between traffic patterns.

:meth:`MeshNoC.run` has two paths with one event order.  The *kernel
path* runs on the shared event kernel
(:class:`repro.core.events.Simulator`): one :class:`Packet` per
injection, and packet injections and link departures are scheduled
events, so the kernel's fault hooks can stall links mid-flight
(:meth:`MeshNoC.inject_fault`), checkpoints capture the run, and probes
and span tracers see every hop.  The *walk* computes the same
departures without an event per hop or a :class:`Packet`: one link
level at a time in numpy (:func:`_level_schedule`), a per-link FIFO
recursion per level, with the kernel's ``(time, seq)`` order within a
cycle derived from the events that scheduled each departure; its
:attr:`NoCResult.delivered` is built the first time it is read.  Both
paths number the distinct ``(src, dst)`` pairs in numpy
(:meth:`MeshNoC._route_table`); the kernel path routes each once with
the scalar ``xy``/``yx`` route, and the walk reads each packet's two
legs as runs of link levels (:func:`_dimension_levels`).  A run walks
iff no ``sim`` is passed, traced or not; both paths report the same
``noc.*`` metrics and ``noc.run`` span times.

Energy: every hop charges router + link energy to a ledger, connecting
the NoC to the paper's "energy is largely spent moving data" argument
(experiments E04/E21).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, Deque, Dict, Optional, Sequence, Tuple

import numpy as np

from ..core.energy import EnergyLedger
from ..core.events import FunctionCheckpoint, Simulator
from ..core.instrument import default_registry
from ..core.units import is_integer
from .topology import ROUTES

Coord = Tuple[int, int]
Link = Tuple[Coord, Coord]


@dataclass(frozen=True)
class NoCConfig:
    width: int = 8
    height: int = 8
    router_delay_cycles: int = 2  # pipeline latency per hop
    link_delay_cycles: int = 1
    energy_per_hop_router_j: float = 4e-12
    energy_per_hop_link_j: float = 2e-12

    def __post_init__(self) -> None:
        # The model runs on whole cycles: the walk's schedule is in
        # integer cycles.  A bool is not a size.
        for name in ("width", "height", "router_delay_cycles",
                     "link_delay_cycles"):
            value = getattr(self, name)
            if isinstance(value, bool) or not is_integer(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.width < 1 or self.height < 1:
            raise ValueError("mesh dimensions must be >= 1")
        if self.router_delay_cycles < 1 or self.link_delay_cycles < 0:
            raise ValueError("bad delays")
        if min(self.energy_per_hop_router_j, self.energy_per_hop_link_j) < 0:
            raise ValueError("energies must be non-negative")

    @property
    def hop_latency(self) -> int:
        return self.router_delay_cycles + self.link_delay_cycles


@dataclass(slots=True)
class Packet:
    src: Coord
    dst: Coord
    injected_at: float
    route: list[Coord] = field(default_factory=list)
    hop_index: int = 0
    delivered_at: Optional[float] = None

    @property
    def latency(self) -> float:
        if self.delivered_at is None:
            raise ValueError("packet not yet delivered")
        return self.delivered_at - self.injected_at

    @property
    def hops(self) -> int:
        return len(self.route) - 1


@dataclass(eq=False)
class NoCResult:
    """One run's outcome.

    ``latencies`` and ``hops`` are float arrays with one entry per
    delivered packet, in delivery order; the summary statistics read
    them.  :attr:`delivered` lists the same packets as :class:`Packet`
    objects, built on first read from ``_packets``.
    """

    latencies: np.ndarray
    hops: np.ndarray
    dropped: int
    cycles: float
    ledger: EnergyLedger
    _packets: Callable[[], list[Packet]] = field(repr=False)

    @cached_property
    def delivered(self) -> list[Packet]:
        return self._packets()

    @property
    def mean_latency(self) -> float:
        if not len(self.latencies):
            return float("nan")
        return float(np.mean(self.latencies))

    @property
    def p99_latency(self) -> float:
        if not len(self.latencies):
            return float("nan")
        return float(np.percentile(self.latencies, 99))

    @property
    def throughput_packets_per_cycle(self) -> float:
        if self.cycles <= 0:
            return float("nan")
        return len(self.latencies) / self.cycles

    @property
    def mean_hops(self) -> float:
        if not len(self.hops):
            return float("nan")
        return float(np.mean(self.hops))

    def energy_per_packet_j(self) -> float:
        if not len(self.latencies):
            return float("nan")
        return self.ledger.total() / len(self.latencies)


class _LinkState:
    """FIFO queue plus serialization state for one directed link, on
    the kernel path (the walk keeps no per-link state)."""

    __slots__ = ("queue", "next_free", "busy")

    def __init__(self) -> None:
        self.queue: Deque[tuple] = deque()  # (ready, packet, ...)
        self.next_free = 0.0  # earliest cycle the link may forward again
        self.busy = False  # a departure event is scheduled


class MeshNoC:
    """Event-driven mesh NoC with per-link FIFO queues (a kernel model).

    Each directed link serves one packet per cycle; a packet becomes
    eligible to depart ``hop_latency - 1`` cycles after arriving at the
    link and lands at the next router one cycle after departing, so an
    uncontended hop costs exactly ``hop_latency``.  On the kernel path
    departures are kernel events (one per hop), which is what lets the
    shared instrumentation/fault machinery observe the NoC like any
    other simulator.  Without a ``sim``, :meth:`run` computes the same
    departures link level by link level in numpy instead
    (:func:`_level_schedule`), on packet indices rather than
    :class:`Packet` objects; the kernel path is its differential
    reference.
    """

    def __init__(self, config: NoCConfig = NoCConfig()) -> None:
        self.config = config
        self._sim: Optional[Simulator] = None
        self._stats = None
        # The kernel path's links, keyed by ``(from, to)`` coordinates.
        self._links: Dict[Link, _LinkState] = {}
        self.faults_injected = 0

    # -- SimModel protocol -------------------------------------------------

    def bind(self, sim: Simulator) -> None:
        self._sim = sim
        self._stats = sim.metrics.scoped("noc")

    def reset(self) -> None:
        self._links = {}
        self.faults_injected = 0

    def finish(self) -> None:
        if self._stats is not None:
            backlog = sum(len(ls.queue) for ls in self._links.values())
            self._stats.gauge("queued_at_end").set(backlog)

    # -- fault-injection hook ----------------------------------------------

    def inject_fault(self, sim: Simulator, rng: np.random.Generator) -> str:
        """Stall one random active link (kernel fault hook).

        Models a transient link fault requiring retransmission: the
        link's next-free cycle is pushed out by 10 hop latencies.
        """
        if not self._links:
            return "no active links; fault absorbed"
        links = sorted(self._links)  # deterministic order for the draw
        link = links[int(rng.integers(len(links)))]
        penalty = 10.0 * self.config.hop_latency
        state = self._links[link]
        state.next_free = max(state.next_free, sim.now) + penalty
        self.faults_injected += 1
        self._stats.counter("faults").inc()
        return f"link {link[0]}->{link[1]} stalled {penalty:g} cycles"

    def run(
        self,
        pairs: Sequence[tuple[Coord, Coord]] | np.ndarray,
        injection_times: Optional[np.ndarray] = None,
        max_cycles: int = 200_000,
        sim: Optional[Simulator] = None,
        routing: str = "xy",
    ) -> NoCResult:
        """Inject packets (``pairs[i]`` at ``injection_times[i]``, default
        all at cycle 0 back-to-back per source) and run to drain (or to
        the ``max_cycles`` horizon; undelivered packets count as
        dropped; the horizon is inclusive).  ``pairs`` is a sequence of
        ``((sx, sy), (dx, dy))`` or an ``(n, 2, 2)`` integer array.  Pass
        ``sim`` to share a caller-owned kernel.  ``routing`` names the
        dimension order, ``"xy"`` (default) or ``"yx"`` (the NoC routing
        championship plugs in here).  Coordinates must be integers
        inside the mesh, injection times finite and non-negative,
        ``max_cycles`` a number >= 0, not a bool, and ``routing`` one of
        those names (``ValueError`` otherwise).  Without ``sim`` the run
        walks, and a session tracer gets one ``noc.run`` span
        (``path="walk"``)."""
        if routing not in ROUTES:
            raise ValueError(f"unknown routing {routing!r}; choose from "
                             f"{', '.join(sorted(ROUTES))}")
        if isinstance(max_cycles, (bool, np.bool_)) or not max_cycles >= 0:
            raise ValueError(
                f"max_cycles must be a number >= 0, got {max_cycles!r}"
            )
        if injection_times is None:
            injection_arr = np.zeros(len(pairs))
        else:
            injection_arr = np.asarray(injection_times, dtype=float)
            if len(injection_arr) != len(pairs):
                raise ValueError("injection_times must match pairs")
            bad = np.flatnonzero(
                ~np.isfinite(injection_arr) | (injection_arr < 0)
            )
            if bad.size:
                i = int(bad[0])
                raise ValueError(
                    f"injection_times[{i}] = {injection_arr[i]} is not a "
                    "finite cycle >= 0"
                )
        distinct, route_ids = self._route_table(pairs)
        # Injections align to the next cycle boundary (the model is
        # cycle-approximate even though the kernel clock is a float).
        inject_at = np.ceil(injection_arr)
        until = float(max_cycles)
        if sim is None:
            registry = default_registry()
            tracer = registry.tracer
            self._stats = registry.scoped("noc")
            self.reset()
            injected, hops, backlog, order, arrivals, hop_counts = (
                _level_schedule(distinct, route_ids, inject_at, until,
                                self.config, routing)
            )
            injected_at = injection_arr[order]
            result = self._result(
                len(route_ids), injected, hops, arrivals, injected_at,
                hop_counts.astype(float),
                partial(_walk_packets, distinct, routing, route_ids[order],
                        injected_at, arrivals),
                until, backlog=backlog,
            )
            if tracer is not None:
                # The kernel stops at the horizon or the last departure,
                # a cycle before its delivery (at 0.0 with no packets).
                end = until if result.dropped else max(result.cycles - 1, 0.0)
                tracer.emit("noc.run", 0.0, end, category="model",
                            path="walk", packets=len(route_ids),
                            delivered=len(arrivals), hops=hops)
            return result

        sim.attach(self)
        self.reset()
        # One attribute probe per run; per-packet spans are emitted
        # completed at delivery (checkpoint-replay safe).
        tracer = getattr(sim.metrics, "tracer", None)

        packets = _packets(distinct, routing, route_ids, injection_arr)
        links = self._links
        delivered: list[Packet] = []
        hop_lat = self.config.hop_latency
        hops = 0
        injected = 0

        def schedule_departure(s: Simulator, state: _LinkState) -> None:
            ready = state.queue[0][0]
            next_free = state.next_free
            now = s.now
            depart = ready if ready > next_free else next_free
            if now > depart:
                depart = now
            state.busy = True
            # The departure event carries the link state directly, so
            # the hot path never touches the links dict.
            s.schedule_at(depart, forward, state, cancellable=False)

        def forward(s: Simulator, state: _LinkState) -> None:
            nonlocal hops
            state.busy = False
            if not state.queue:
                return
            # A fault may have pushed next_free past this departure;
            # reschedule rather than forwarding early.
            if state.next_free > s.now:
                schedule_departure(s, state)
                return
            packet = state.queue.popleft()[1]
            state.next_free = s.now + 1.0
            hops += 1
            packet.hop_index += 1
            if packet.hop_index == len(packet.route) - 1:
                at = s.now + 1.0
                packet.delivered_at = at
                delivered.append(packet)
                if tracer is not None:
                    tracer.emit("noc.packet", packet.injected_at, at,
                                hops=packet.hop_index)
            else:
                enqueue(s, packet, s.now + 1.0)
            if state.queue:
                schedule_departure(s, state)

        def enqueue(s: Simulator, packet: Packet, now: float) -> None:
            link = (packet.route[packet.hop_index],
                    packet.route[packet.hop_index + 1])
            state = links.get(link)
            if state is None:
                state = links[link] = _LinkState()
            state.queue.append((now + hop_lat - 1.0, packet))
            if not state.busy:
                schedule_departure(s, state)

        def inject(s: Simulator, packet: Packet) -> None:
            nonlocal injected
            injected += 1
            enqueue(s, packet, s.now)

        # A time-sorted workload bulk-loads the kernel's in-order lane
        # in O(n), one seq per packet in injection order.
        sim.schedule_batch(inject_at.tolist(), inject, payloads=packets)

        # Checkpoint support.  Pending departure events carry _LinkState
        # objects as payloads, so restore must roll the *same* state
        # objects back in place (and prune links created after the
        # snapshot); packets are likewise shared by identity.
        def _ckpt_snapshot():
            return (
                hops,
                injected,
                len(delivered),
                [(p.hop_index, p.delivered_at) for p in packets],
                [
                    (link, state, list(state.queue), state.next_free,
                     state.busy)
                    for link, state in links.items()
                ],
                self.faults_injected,
            )

        def _ckpt_restore(saved):
            nonlocal hops, injected
            hops, injected = saved[0], saved[1]
            del delivered[saved[2]:]
            for packet, (hop_index, delivered_at) in zip(packets, saved[3]):
                packet.hop_index = hop_index
                packet.delivered_at = delivered_at
            links.clear()
            for link, state, queue, next_free, busy in saved[4]:
                state.queue = deque(queue)
                state.next_free = next_free
                state.busy = busy
                links[link] = state
            self.faults_injected = saved[5]

        sim.register_checkpointable(
            FunctionCheckpoint(_ckpt_snapshot, _ckpt_restore)
        )
        if tracer is not None:
            with tracer.span("noc.run", sim=sim, category="model",
                             packets=len(packets)):
                sim.run(until=until)
        else:
            sim.run(until=until)
        n = len(delivered)
        return self._result(
            len(packets), injected, hops,
            np.fromiter((p.delivered_at for p in delivered), float, n),
            np.fromiter((p.injected_at for p in delivered), float, n),
            np.fromiter((p.hops for p in delivered), float, n),
            delivered.copy, until,
        )

    def _result(
        self,
        n_packets: int,
        injected: int,
        hops: int,
        delivered_at: np.ndarray,
        injected_at: np.ndarray,
        hop_counts: np.ndarray,
        packets: Callable[[], list[Packet]],
        until: float,
        backlog: Optional[int] = None,
    ) -> NoCResult:
        """Metrics, energy, :meth:`finish` and the result, shared by both
        paths.  The arrays hold one entry per delivered packet, in
        delivery order; ``packets`` builds the :class:`Packet` list.
        The walk passes its ``backlog`` at the horizon; the kernel path's
        is in its link queues, which :meth:`finish` counts."""
        cfg = self.config
        stats = self._stats
        # Per-hop/injection accounting batches exactly: the counts cover
        # only steps that actually ran inside the horizon.
        stats.counter("packets_injected").inc(injected)
        stats.counter("hops_forwarded").inc(hops)
        ledger = EnergyLedger()
        if hops:
            ledger.charge(
                "noc.router", cfg.energy_per_hop_router_j * hops, ops=hops
            )
            ledger.charge("noc.link", cfg.energy_per_hop_link_j * hops)
        latencies = delivered_at - injected_at
        stats.histogram("packet_latency_cycles").observe_many(latencies)
        if backlog is None:
            self.finish()
        else:
            stats.gauge("queued_at_end").set(backlog)

        dropped = n_packets - len(latencies)
        # Deliveries run in time order, so the last one is the latest.
        last_delivery = float(delivered_at[-1]) if len(latencies) else 0.0
        cycles = last_delivery if dropped == 0 else until
        return NoCResult(
            latencies=latencies, hops=hop_counts, dropped=dropped,
            cycles=cycles, ledger=ledger, _packets=packets,
        )

    def _route_table(
        self, pairs: Sequence[tuple[Coord, Coord]] | np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """The distinct ``(src, dst)`` pairs, as a ``(k, 2, 2)`` int64
        array, and each packet's index into them.

        The pairs are checked as one integer array; if that fails, each
        is checked in input order and the first bad one raises a
        ``ValueError`` naming it.  The distinct pairs come in the order
        of their node ids (:func:`_distinct_pairs`).
        """
        if not len(pairs):
            return np.zeros((0, 2, 2), np.int64), np.zeros(0, np.intp)
        try:
            arr = np.asarray(pairs)
        except ValueError:  # ragged: some pair is not two coordinates
            arr = np.zeros(0)
        width, height = int(self.config.width), int(self.config.height)
        ok = arr.dtype.kind in "iu" and arr.shape[1:] == (2, 2)
        if ok:
            x, y = arr[..., 0], arr[..., 1]
            ok = not (((x < 0) | (x >= width) | (y < 0) | (y >= height)).any()
                      or ((x[:, 0] == x[:, 1]) & (y[:, 0] == y[:, 1])).any())
        if not ok:
            for src, dst in (pairs.tolist() if isinstance(pairs, np.ndarray)
                             else pairs):
                self._check_pair(src, dst)
            # No pair is bad: numpy had only promoted integers (signed
            # with uint64 to float) or kept bools.
            arr = np.array(pairs, dtype=np.int64)
            if arr.shape[1:] != (2, 2):
                raise ValueError(f"pairs of shape {arr.shape}, not (n, 2, 2)")
        # Inside the mesh, every coordinate and node id fits int64.
        arr = arr.astype(np.int64, copy=False)
        ids = arr[..., 0] + arr[..., 1] * width
        ends, route_ids = _distinct_pairs(ids[:, 0], ids[:, 1], width * height)
        return np.stack([ends % width, ends // width], axis=2), route_ids

    def _check_pair(self, src: Coord, dst: Coord) -> None:
        for c in (src, dst):
            if not (is_integer(c[0]) and is_integer(c[1])):
                raise ValueError(
                    f"coordinate {tuple(c)} is not a pair of integers")
            if not (0 <= c[0] < self.config.width
                    and 0 <= c[1] < self.config.height):
                raise ValueError(f"coordinate {tuple(c)} outside the mesh")
        if tuple(src) == tuple(dst):
            raise ValueError("self-loop packet")


def _distinct_pairs(
    a: np.ndarray, b: np.ndarray, nodes: int
) -> tuple[np.ndarray, np.ndarray]:
    """The distinct pairs ``(a[i], b[i])`` of node ids below ``nodes``,
    sorted, as ``(k, 2)`` rows, and each pair's index into them: keyed
    ``a * nodes + b``, or as rows where that key could overflow int64.
    No first indices: their stable sort is about 3x slower."""
    if nodes > 2**31:
        rows, inverse = np.unique(np.stack([a, b], axis=1),
                                  return_inverse=True, axis=0)
        return rows, inverse.reshape(-1)
    keys, inverse = np.unique(a * nodes + b, return_inverse=True)
    return np.stack(np.divmod(keys, nodes), axis=1), inverse


def _dimension_levels(
    pairs: np.ndarray, width: int, height: int, routing: str
) -> tuple[tuple, tuple, int, int]:
    """Each ``(src, dst)`` pair's route as two legs of link levels.

    A dimension-order route crosses links of strictly increasing level.
    Under ``xy`` a ``+x`` link leaving column ``x`` has level ``x``, a
    ``-x`` one ``W-1-x``, a ``+y`` link leaving row ``y`` ``W-1+y`` and a
    ``-y`` one ``W-1+H-1-y``; ``yx`` swaps the axes.  Within its level a
    link is ``2 * c + (step < 0)``, ``c`` its coordinate on the other
    axis.  ``pairs`` is an ``(n, 2, 2)`` int64 array.

    Returns ``(first, second, split, levels)``: per leg, the axis routed
    first then the other, arrays ``(start, hops, link)``, hop ``j`` of a
    leg crossing link ``link`` of level ``start + j``; levels below
    ``split`` are the first axis's, of ``levels`` in all.
    """
    lead = int(routing == "yx")  # the axis routed first
    s0, s1 = (height, width) if lead else (width, height)
    u0, v0 = pairs[:, 0, lead], pairs[:, 0, 1 - lead]
    u1, v1 = pairs[:, 1, lead], pairs[:, 1, 1 - lead]
    back_u, back_v = u1 < u0, v1 < v0
    first = (np.where(back_u, s0 - 1 - u0, u0), np.abs(u1 - u0),
             2 * v0 + back_u)
    second = (np.where(back_v, s1 - 1 - v0, v0) + (s0 - 1), np.abs(v1 - v0),
              2 * u1 + back_v)
    return first, second, s0 - 1, s0 + s1 - 2


class _Departures:
    """The departures of a level schedule, by hop id.

    Hop ids count hops in the order the level passes settle them, and
    ``n_hops + p`` stands for packet ``p``'s injection.  Departure ``x``
    runs at ``cycle[x]``.  ``by[x]`` is the event that scheduled it: its
    own previous step (a departure or its injection), or its FIFO
    predecessor's departure, in which case ``second[x]``, since a
    departure schedules its packet's next hop before its queue's next
    one.  ``token[x]`` is ``2 * c + kind`` for that event, at cycle
    ``c``, ``kind`` 0 for an injection and 1 for a departure, so tokens
    order the events of one cycle by kind as well.
    """

    __slots__ = ("cycle", "token", "by", "second")

    def __init__(self, n_hops: int, cycles: type, ids: type) -> None:
        self.cycle = np.empty(n_hops, cycles)
        self.token = np.empty(n_hops, cycles)
        self.by = np.empty(n_hops, ids)
        self.second = np.empty(n_hops, bool)

    def before(self, x: int, y: int) -> bool:
        """Whether departure ``x`` runs before ``y != x`` of its cycle.

        Two departures of one cycle run in the order of the events that
        scheduled them: earlier cycle first, injections before
        departures, injections by input index, one event's two by
        emission, and two departures of one cycle likewise, so both
        chains of scheduling events are walked back together.
        """
        by, token = self.by, self.token
        while True:
            bx, b_y = by[x], by[y]
            if bx == b_y:
                return bool(self.second[y])
            tx, ty = token[x], token[y]
            if tx != ty:
                return bool(tx < ty)
            if not tx & 1:
                return bool(bx < b_y)
            x, y = bx, b_y

    def settle(self, lo: int, open_: list[int], up: np.ndarray,
               empty: np.ndarray) -> None:
        """Settle the departures ``lo + i``, ``i`` in ``open_``, whose
        queue the tokens could not tell empty or not at their append, in
        FIFO order: it was empty iff the hop ahead, ``lo + i - 1``,
        departed before their own previous step ``up[i]``, which then
        scheduled them."""
        for i in open_:
            if self.before(lo + i - 1, up[i]):
                self.by[lo + i] = up[i]
                self.second[lo + i] = False
                empty[i] = True

    def runs(self, x: np.ndarray, hop_lat: int) -> tuple[np.ndarray,
                                                          np.ndarray]:
        """How many steps back each departure ``x`` was scheduled by a
        departure exactly ``hop_lat`` cycles earlier, and the departure
        where that run ends."""
        run = np.zeros(len(x), np.int64)
        end = x.astype(np.int64)
        walking = np.arange(len(x))
        n_hops = len(self.by)
        while len(walking):
            at = end[walking]
            by = self.by[at]
            on = (by < n_hops) & (self.cycle[at] - (self.token[at] >> 1)
                                  == hop_lat)
            walking = walking[on]
            end[walking] = by[on]
            run[walking] += 1
        return run, end


def _level_schedule(
    distinct: np.ndarray,
    route_ids: np.ndarray,
    inject_at: np.ndarray,
    until: float,
    config: NoCConfig,
    routing: str,
) -> tuple[int, int, int, np.ndarray, np.ndarray, np.ndarray]:
    """The kernel path's departures, computed one link level at a time.

    Packet ``i`` goes from ``distinct[r, 0]`` to ``distinct[r, 1]``,
    ``r = route_ids[i]``, and is injected at cycle ``inject_at[i]``
    (whole cycles).  On a link, hop ``k`` of a packet is appended at
    ``a``, its injection cycle for ``k = 0`` and otherwise the cycle hop
    ``k - 1`` departed, and is
    ready at ``R = a + hop_latency - 1`` if injected, ``a + hop_latency``
    if forwarded.  In append order a link departs ``D_i = max(R_i,
    D_{i-1} + 1)``, that is ``i + cummax(R - i)``.  Levels
    (:func:`_dimension_levels`) are processed in order, so every hop's
    ``a`` is known when its level is.  Only same-cycle order needs more
    than that: the kernel's ``(time, seq)`` order, which
    :class:`_Departures` derives from the events that scheduled each
    departure instead of stepping cycles.  The whole schedule is
    computed and then cut at ``until``.

    Returns ``(injected, hops, backlog, order, arrivals, hop_counts)``:
    the packets injected, hops departed and hops still queued at the
    horizon, and the delivered packets' input indices, delivery cycles
    and hop counts, in delivery order.
    """
    live = np.flatnonzero(inject_at <= until)
    m = len(live)
    if not m:
        return 0, 0, 0, live, np.zeros(0), np.zeros(0, np.int64)
    h = int(config.hop_latency)
    first, second, split, levels = _dimension_levels(
        distinct, int(config.width), int(config.height), routing)
    route = route_ids[live]
    # Levels are below ``width + height``; links stay int64, as they
    # enter the sort keys.
    small, unsigned = ((np.int32, np.uint32)
                       if config.width + config.height < 2**31
                       else (np.int64, np.uint64))
    first, second = ((start[route].astype(small),
                      length[route].astype(small), link[route])
                     for start, length, link in (first, second))
    base = float(inject_at[live].min())
    injected = inject_at[live] - base
    counts = first[1] + second[1]
    n_hops = int(counts.sum())
    # Cycles count from ``base``.  A level delays a hop by at most
    # ``h`` plus one cycle per hop ahead of it in its queue.
    bound = float(injected.max()) + levels * h + n_hops + 2
    cycles = np.int32 if 2 * bound < 2**31 else np.int64
    deps = _Departures(n_hops, cycles,
                       np.int32 if n_hops + m < 2**31 else np.int64)
    # Per packet: the cycle its next hop is appended, the token of the
    # event that scheduled its last departure (one that sorts a first
    # hop ahead of forwards) and that departure's hop id.
    at = injected.astype(cycles)
    token = 2 * (at - (h + 1))
    last = np.arange(n_hops, n_hops + m, dtype=deps.by.dtype)
    queued = np.zeros(m, bool)
    horizon = until - base
    hops = backlog = 0
    lo = 0
    for level in _present(first, second, levels):
        start, length, links = first if level < split else second
        p = np.flatnonzero((level - start).view(unsigned)
                           < length.view(unsigned))
        n = len(p)
        a = at[p].astype(np.int64)
        up = last[p]
        # The append order on each link: in a cycle, injections first,
        # in input order, then forwards in the order their departures
        # ran, by the tokens of the events that scheduled those, and
        # through their chains where the tokens tie.
        order, link, same = _append_order(
            links[p], a, token[p] - 2 * a + (2 * h + 2), 2 * h + 4)
        for t in np.flatnonzero(same).tolist():
            while t >= 0 and same[t] and deps.before(up[order[t + 1]],
                                                     up[order[t]]):
                order[t], order[t + 1] = order[t + 1], order[t]
                t -= 1
        p, a, up = p[order], a[order], up[order]
        forward = up < n_hops
        new = np.empty(n, bool)
        new[0] = True
        np.not_equal(link[1:], link[:-1], out=new[1:])
        depart = _fifo(a + forward - np.arange(n), link, new) + (h - 1)
        depart += np.arange(n)
        ahead = np.empty(n, np.int64)
        ahead[1:] = depart[:-1]
        ahead[new] = -1
        # The queue was empty at the append iff the hop ahead had left;
        # the departure was then scheduled by its own previous step,
        # else by the hop ahead's departure.
        empty = ahead < a
        tok = 2 * np.maximum(ahead, a) + (forward | ~empty)
        # A forward appended in the cycle the hop ahead departs found
        # the queue empty iff that departure ran first.  The events'
        # tokens decide most; the rest are settled in FIFO order.
        tie = np.flatnonzero((ahead == a) & forward)
        unsettled = ()
        if len(tie):
            tq, tu = tok[tie - 1], token[p[tie]]
            even = (tq & 1) == 0
            empty[tie] = (tq < tu) | ((tq == tu) & even
                                      & (p[tie - 1] < p[tie]))
            unsettled = tie[(tq == tu) & ~even].tolist()
        hi = lo + n
        ids = np.arange(lo, hi)
        deps.cycle[lo:hi] = depart
        deps.token[lo:hi] = tok
        deps.by[lo:hi] = np.where(empty, up, ids - 1)
        deps.second[lo:hi] = ~empty
        deps.settle(lo, unsettled, up, empty)
        at[p] = depart
        token[p] = tok
        last[p] = ids
        queued[p[~empty]] = True
        if depart.max() > horizon:
            left = depart <= horizon
            hops += int(np.count_nonzero(left))
            backlog += int(np.count_nonzero(~left & (a <= horizon)))
        else:
            hops += n
        lo = hi
    done = at.astype(np.int64)
    order = _delivery_order(deps, done, counts, queued, last, h, horizon)
    return (m, hops, backlog, live[order], done[order] + (base + 1.0),
            counts[order])


def _present(first: tuple, second: tuple, levels: int) -> list[int]:
    """The levels some leg crosses, in order."""
    cover = np.zeros(levels + 1, np.int64)
    for start, length, _ in (first, second):
        cover += np.bincount(start, minlength=levels + 1)
        cover -= np.bincount(start + length, minlength=levels + 1)
    return np.flatnonzero(np.cumsum(cover[:levels]) > 0).tolist()


def _append_order(
    link: np.ndarray, a: np.ndarray, rank: np.ndarray, ranks: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The order of one level's hops by ``(link, a, rank)``, ties in
    input order; the links in that order; and where hop ``t`` ties with
    hop ``t + 1`` on an odd ``rank < ranks``, for the caller to settle.
    One packed sort where ``(link, a, rank, position)`` fits an int64
    key, else ``np.lexsort``."""
    n = len(a)
    low = int(a.min())
    span = int(a.max()) - low + 1
    if (int(link.max()) + 1) * span * ranks * n < 2**63:
        key = ((link * span + (a - low)) * ranks + rank) * n + np.arange(n)
        key.sort()
        order = key % n
        key //= n
        same = (key[1:] == key[:-1]) & (key[1:] & 1 == 1)
        return order, key // (span * ranks), same
    order = np.lexsort((rank, a, link))
    link, a, rank = link[order], a[order], rank[order]
    same = ((link[1:] == link[:-1]) & (a[1:] == a[:-1])
            & (rank[1:] == rank[:-1]) & (rank[1:] & 1 == 1))
    return order, link, same


def _fifo(v: np.ndarray, link: np.ndarray, new: np.ndarray) -> np.ndarray:
    """The running maximum of ``v`` within each run of equal ``link``s
    (non-decreasing; ``new`` marks where a run starts)."""
    span = int(v.max()) - int(v.min()) + 1
    if (int(link[-1]) + 1) * span < 2**62:
        lift = link * span
        return np.maximum.accumulate(v + lift) - lift
    out = np.empty_like(v)
    bounds = np.append(np.flatnonzero(new), len(v)).tolist()
    for lo, hi in zip(bounds, bounds[1:]):
        out[lo:hi] = np.maximum.accumulate(v[lo:hi])
    return out


def _delivery_order(
    deps: _Departures,
    done: np.ndarray,
    counts: np.ndarray,
    queued: np.ndarray,
    last: np.ndarray,
    hop_lat: int,
    horizon: float,
) -> np.ndarray:
    """The packets whose last departure, at ``done``, is inside the
    horizon, in the order those departures run.

    A packet none of whose departures queued runs in ``(cycle, hops
    descending, input order)``.  In a cycle that also delivers a queued
    packet, the packets sort by their last departures' runs
    (:meth:`_Departures.runs`), longest first, then by the token of the
    event that scheduled where each run ends, and by the scheduling
    chains where those tie.
    """
    sel = np.flatnonzero(done <= horizon)
    m = len(done)
    if not len(sel):
        return sel
    at = done[sel]
    low = int(at.min())
    top = int(counts.max())
    if (int(at.max()) - low + 1) * (top + 1) * m < 2**63:
        key = ((at - low) * (top + 1) + (top - counts[sel])) * m + sel
        key.sort()
        sel = key % m
    else:
        sel = sel[np.lexsort((sel, -counts[sel], at))]
    at = done[sel]
    new = np.empty(len(sel), bool)
    new[0] = True
    np.not_equal(at[1:], at[:-1], out=new[1:])
    cycle = np.cumsum(new) - 1
    mixed = np.zeros(cycle[-1] + 1, bool)
    mixed[cycle[queued[sel]]] = True
    mixed &= np.bincount(cycle) > 1
    pos = np.flatnonzero(mixed[cycle])
    if not len(pos):
        return sel
    run, end = deps.runs(last[sel[pos]], hop_lat)
    token = deps.token[end]
    index = np.where(token & 1 == 0, deps.by[end], 0)
    rank = np.lexsort((index, token, -run, cycle[pos]))
    sel[pos] = sel[pos][rank]
    keys = np.stack([cycle[pos], run, token, index])[:, rank]
    same = (keys[:, 1:] == keys[:, :-1]).all(axis=0)
    for t in np.flatnonzero(same).tolist():
        while t >= 0 and same[t] and deps.before(last[sel[pos[t + 1]]],
                                                 last[sel[pos[t]]]):
            sel[pos[t]], sel[pos[t + 1]] = sel[pos[t + 1]], sel[pos[t]]
            t -= 1
    return sel


def _packets(
    distinct: np.ndarray,
    routing: str,
    route_ids: np.ndarray,
    injected_at: np.ndarray,
) -> list[Packet]:
    """One :class:`Packet` per ``route_ids`` entry, injected at
    ``injected_at``, on the scalar route (each distinct pair routed once)."""
    sx, sy, dx, dy = distinct.reshape(-1, 4).T.tolist()
    ends = list(zip(zip(sx, sy), zip(dx, dy)))
    routes = [ROUTES[routing](src, dst) for src, dst in ends]
    return [Packet(*ends[r], injected_at=t, route=routes[r])
            for r, t in zip(route_ids.tolist(), injected_at.tolist())]


def _walk_packets(
    distinct: np.ndarray,
    routing: str,
    route_ids: np.ndarray,
    injected_at: np.ndarray,
    arrivals: np.ndarray,
) -> list[Packet]:
    """The walk's deliveries as :class:`Packet` objects, in delivery
    order; ``route_ids``, ``injected_at`` and ``arrivals`` run parallel.
    A module-level function, so a result stays picklable."""
    built = _packets(distinct, routing, route_ids, injected_at)
    for packet, at in zip(built, arrivals.tolist()):
        packet.hop_index = len(packet.route) - 1
        packet.delivered_at = at
    return built


def latency_vs_load(
    config: NoCConfig,
    rates: Sequence[float],
    n_packets: int = 2000,
    pattern: str = "uniform",
    rng=0,
) -> dict[str, np.ndarray]:
    """The canonical latency/throughput curve: sweep injection rate.

    Rate is packets/cycle/node aggregate scaled by node count; latency
    blows up at saturation.
    """
    from .traffic import make_pattern, poisson_injection_times

    if not rates:
        raise ValueError("rates must be non-empty")
    noc = MeshNoC(config)
    n_nodes = config.width * config.height
    lat, thr = [], []
    for rate in rates:
        pairs = make_pattern(pattern, n_packets, config.width, config.height, rng=rng)
        times = poisson_injection_times(
            n_packets, rate_per_cycle=rate * n_nodes, rng=rng
        )
        result = noc.run(pairs, injection_times=times)
        lat.append(result.mean_latency)
        thr.append(result.throughput_packets_per_cycle)
    return {
        "offered_rate": np.asarray(rates, dtype=float),
        "mean_latency": np.array(lat),
        "throughput": np.array(thr),
    }
