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
and span tracers see every hop.  The *walk* keeps the same
``(time, seq)`` order on a private ring of per-cycle departure lists,
on packet indices and flat lists, without scheduling an event per hop
or building a :class:`Packet`; its :attr:`NoCResult.delivered` is built
from those lists the first time it is read.  Both paths route each
distinct ``(src, dst)`` pair once, numbered in numpy by
:meth:`MeshNoC._route_table`.  A run walks iff no ``sim`` is passed,
traced or not; both paths report the same ``noc.*`` metrics and
``noc.run`` span times.

Energy: every hop charges router + link energy to a ledger, connecting
the NoC to the paper's "energy is largely spent moving data" argument
(experiments E04/E21).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, Deque, Dict, Optional, Sequence, Tuple

import numpy as np

from ..core.energy import EnergyLedger
from ..core.events import FunctionCheckpoint, Simulator
from ..core.instrument import default_registry
from ..core.units import is_integer
from .topology import xy_route

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
        # The model runs on whole cycles: the walk's calendar is a ring
        # indexed by integer cycle.  A bool is not a size.
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
    """FIFO queue plus serialization state for one directed link.

    The walk (:meth:`MeshNoC._walk`) reads only ``queue``: without
    faults a link's next free cycle never decides a departure, and a
    link has a departure pending exactly when its queue is non-empty.
    """

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
    other simulator.  Without a ``sim``, :meth:`run` walks the same
    departures on a ring of per-cycle lists instead (:meth:`_walk`),
    carrying packet indices rather than :class:`Packet` objects; the
    kernel path is its differential reference.
    """

    def __init__(self, config: NoCConfig = NoCConfig()) -> None:
        self.config = config
        self._sim: Optional[Simulator] = None
        self._stats = None
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
        route_fn: Optional[Callable[[Coord, Coord], list[Coord]]] = None,
    ) -> NoCResult:
        """Inject packets (``pairs[i]`` at ``injection_times[i]``, default
        all at cycle 0 back-to-back per source) and run to drain (or to
        the ``max_cycles`` horizon; undelivered packets count as
        dropped; the horizon is inclusive).  ``pairs`` is a sequence of
        ``((sx, sy), (dx, dy))`` or an ``(n, 2, 2)`` integer array.  Pass
        ``sim`` to share a caller-owned kernel, and ``route_fn`` to swap
        the routing policy (default :func:`xy_route`; any ``(src, dst)
        -> [coords]`` path on mesh links works — the NoC routing
        championship plugs in here), called once per distinct pair
        (:meth:`_route_table`), in first-seen order, on Python ints.
        Coordinates must be integers inside the mesh, injection times
        finite and non-negative and ``max_cycles`` a number >= 0, not a
        bool (``ValueError`` otherwise).  Without ``sim`` the run walks,
        and a session tracer gets one ``noc.run`` span (``path="walk"``)."""
        if route_fn is None:
            route_fn = xy_route
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
        ends, route_ids = self._route_table(pairs)
        routes = [route_fn(src, dst) for src, dst in ends]
        # Injections align to the next cycle boundary (the model is
        # cycle-approximate even though the kernel clock is a float).
        inject_at = np.ceil(injection_arr)
        until = float(max_cycles)
        if sim is None:
            registry = default_registry()
            tracer = registry.tracer
            self._stats = registry.scoped("noc")
            self.reset()
            injected, hops, order, arrivals = self._walk(
                routes, route_ids, inject_at, until
            )
            idx = np.array(order, dtype=np.intp)
            injected_at = injection_arr[idx]
            delivered_ids = route_ids[idx]
            route_hops = np.array([len(r) - 1 for r in routes], dtype=float)
            result = self._result(
                len(route_ids), injected, hops,
                np.array(arrivals, dtype=float), injected_at,
                route_hops[delivered_ids],
                partial(_walk_packets, ends, routes, delivered_ids,
                        injected_at, arrivals),
                until,
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

        packets = [
            Packet(*ends[r], injected_at=t, route=routes[r])
            for t, r in zip(injection_arr.tolist(), route_ids.tolist())
        ]
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
    ) -> NoCResult:
        """Metrics, energy, :meth:`finish` and the result, shared by both
        paths.  The arrays hold one entry per delivered packet, in
        delivery order; ``packets`` builds the :class:`Packet` list."""
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
        self.finish()

        dropped = n_packets - len(latencies)
        # Deliveries run in time order, so the last one is the latest.
        last_delivery = float(delivered_at[-1]) if len(latencies) else 0.0
        cycles = last_delivery if dropped == 0 else until
        return NoCResult(
            latencies=latencies, hops=hop_counts, dropped=dropped,
            cycles=cycles, ledger=ledger, _packets=packets,
        )

    def _walk(
        self,
        routes: list[list[Coord]],
        route_ids: np.ndarray,
        inject_at: np.ndarray,
        until: float,
    ) -> tuple[int, int, list[int], list[int]]:
        """The kernel path's event order on a ring of per-cycle lists.

        Each route becomes a chain ``(queue, rest)`` of the link queues
        its hops cross, ending in ``None``; a queue entry is ``(ready,
        packet index, rest of chain)``.  ``ring[t % (hop_latency + 1)]``
        lists the link queues departing at cycle ``t`` in the order the
        kernel would have scheduled them, i.e. in seq order: no
        departure is ever scheduled more than ``hop_latency`` cycles
        ahead, so the ring never wraps onto a pending cycle.  At each
        cycle the packets due then inject first, in input order
        (bulk-loaded, they hold the lowest seqs), then that cycle's
        departures run in list order.  A link has a departure pending
        exactly when its queue is non-empty.  Returns ``(injected, hops,
        order, arrivals)``: the delivered packets' indices and delivery
        cycles, in delivery order.
        """
        hop_lat = int(self.config.hop_latency)
        links = self._links
        chains: list = []
        for route in routes:
            queues = []
            for link in zip(route, route[1:]):
                state = links.get(link)
                if state is None:
                    state = links[link] = _LinkState()
                queues.append(state.queue)
            chain = None
            for queue in reversed(queues):
                chain = (queue, chain)
            chains.append(chain)
        order = np.argsort(inject_at, kind="stable")
        due = inject_at[order].tolist()
        index = order.tolist()
        first = [chains[r] for r in route_ids[order].tolist()]
        n = len(index)
        size = hop_lat + 1
        ring: list[list[Deque]] = [[] for _ in range(size)]
        delivered: list[int] = []
        arrivals: list[int] = []
        hops = 0
        j = 0
        next_due = due[0] if n else math.inf
        t = int(next_due) if n else 0
        # No departure is pending after cycle ``last``.
        last = -1
        # A link may forward again one cycle after it last did, so its
        # next free cycle is at most ``t + 1``: an idle link departs when
        # the packet is ready, and a backlogged one one cycle after its
        # departure (or when its next packet is ready, if later).
        while t <= until:
            if t == next_due:
                ready = t + hop_lat - 1
                # ``ready == t`` (only when ``hop_latency == 1``) lands
                # at the end of this cycle's list, after the departures
                # scheduled before it.
                bucket = ring[ready % size]
                while next_due == t:
                    queue, rest = first[j]
                    if not queue:
                        bucket.append(queue)
                    queue.append((ready, index[j], rest))
                    j += 1
                    next_due = due[j] if j < n else math.inf
                if ready > last:
                    last = ready
            bucket = ring[t % size]
            if bucket:
                free = t + 1
                ready = last = t + hop_lat
                soon = ring[free % size]
                later = ring[ready % size]
                for queue in bucket:
                    _, i, rest = queue.popleft()
                    if rest is None:
                        delivered.append(i)
                        arrivals.append(free)
                    else:
                        nxt, rest = rest
                        if not nxt:
                            later.append(nxt)
                        nxt.append((ready, i, rest))
                    if queue:
                        depart = queue[0][0]
                        if depart > free:
                            ring[depart % size].append(queue)
                        else:
                            soon.append(queue)
                hops += len(bucket)
                bucket.clear()
            if t < last:
                t += 1
            elif j < n:
                t = int(next_due)
            else:
                break
        return j, hops, delivered, arrivals

    def _route_table(
        self, pairs: Sequence[tuple[Coord, Coord]] | np.ndarray
    ) -> tuple[list[tuple[Coord, Coord]], np.ndarray]:
        """The distinct ``(src, dst)`` pairs in first-seen order, as
        tuples of Python ints, and each packet's index into them.

        The pairs are checked as one integer array; if that fails, each
        is checked in input order and the first bad one raises a
        ``ValueError`` naming it.  Pairs are keyed ``src_node * nodes +
        dst_node``, or by both node ids where that could overflow int64.
        """
        if not len(pairs):
            return [], np.zeros(0, dtype=np.intp)
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
        nodes = width * height
        ids = arr[..., 0] + arr[..., 1] * width
        if nodes <= 2**31:  # keys below 2**62
            ids = ids[:, 0] * nodes + ids[:, 1]
        _, first, inverse = np.unique(ids, return_index=True,
                                      return_inverse=True, axis=0)
        # ``np.unique`` numbers the pairs by key; renumber by first sight.
        seen = np.argsort(first)
        rank = np.empty_like(seen)
        rank[seen] = np.arange(len(seen))
        sx, sy, dx, dy = arr[first[seen]].reshape(-1, 4).T.tolist()
        return list(zip(zip(sx, sy), zip(dx, dy))), rank[inverse.reshape(-1)]

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


def _walk_packets(
    ends: list[tuple[Coord, Coord]],
    routes: list[list[Coord]],
    route_ids: np.ndarray,
    injected_at: np.ndarray,
    arrivals: list[int],
) -> list[Packet]:
    """The walk's deliveries as :class:`Packet` objects, in delivery
    order; ``route_ids``, ``injected_at`` and ``arrivals`` run parallel.
    A module-level function, so a result stays picklable."""
    built = []
    for r, t, at in zip(route_ids.tolist(), injected_at.tolist(), arrivals):
        src, dst = ends[r]
        route = routes[r]
        built.append(Packet(
            src=src, dst=dst, injected_at=t, route=route,
            hop_index=len(route) - 1, delivered_at=float(at),
        ))
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
