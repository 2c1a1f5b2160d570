"""Warehouse-scale cluster queueing simulator.

An event-driven multi-server queueing model on the core simulation
kernel (:class:`repro.core.events.Simulator`): Poisson arrivals,
per-server FCFS queues, pluggable load-balancing policies (random,
round-robin, join-shortest-queue, power-of-two choices), and optional
server heterogeneity/stragglers.  On the kernel path arrivals and
completions are kernel events, so the simulator composes with the
shared instrumentation (per-component counters and latency quantiles on
``sim.metrics``), span tracers, checkpoints and
:class:`repro.crosscut.faults.KernelFaultInjector` (transient server
degradation).  When :func:`repro.core.events.kernel_unobserved` holds
(no ``sim`` passed, no init hook, no session tracer) the run instead
walks its arrivals in the kernel's event order (sharing
:mod:`repro.core.queueing` with the ``queue`` replay sink), with the
same results and ``cluster.*`` metrics.  Validated against M/M/1 and
M/M/c closed forms, it underpins the datacenter experiments (E07's
queueing tail, E22's analytics cluster).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from ..core.events import FunctionCheckpoint, Simulator, kernel_unobserved
from ..core.instrument import default_registry
from ..core.queueing import fcfs_walk, jsq_walk
from ..core.rng import RngLike, resolve_rng


class Balancer(Enum):
    RANDOM = "random"
    ROUND_ROBIN = "round_robin"
    JSQ = "join_shortest_queue"
    POWER_OF_TWO = "power_of_two"


@dataclass(frozen=True)
class ClusterConfig:
    n_servers: int = 16
    service_rate: float = 1.0  # requests/s per server
    balancer: Balancer = Balancer.RANDOM
    slow_server_fraction: float = 0.0
    slow_factor: float = 4.0

    def __post_init__(self) -> None:
        if self.n_servers < 1:
            raise ValueError("need at least one server")
        if self.service_rate <= 0:
            raise ValueError("service rate must be positive")
        if not 0.0 <= self.slow_server_fraction <= 1.0:
            raise ValueError("slow fraction must be in [0, 1]")
        if self.slow_factor < 1.0:
            raise ValueError("slow factor must be >= 1")


@dataclass
class ClusterResult:
    latencies: np.ndarray
    utilization: float

    @property
    def mean_latency(self) -> float:
        return float(self.latencies.mean()) if self.latencies.size else float("nan")

    @property
    def p50(self) -> float:
        return float(np.median(self.latencies)) if self.latencies.size else float("nan")

    @property
    def p99(self) -> float:
        return (
            float(np.percentile(self.latencies, 99))
            if self.latencies.size
            else float("nan")
        )


class ClusterSimulator:
    """Event-driven FCFS multi-queue cluster (a kernel :class:`SimModel`).

    Each server is an independent FCFS queue.  Requests arrive as kernel
    events; the balancer picks a server at arrival time; the completion
    is scheduled at ``max(now, server_free) + service`` (exact for FCFS,
    so no per-request occupancy events are needed) and decrements the
    server's queue length when it fires — which is what makes
    join-shortest-queue and power-of-two see live queue depths.

    Because the per-request random draws (balancer choice, service time)
    happen in arrival order, results are reproducible for a given seed
    regardless of how completions interleave.  The same draws feed the
    walk (:meth:`_walk`) that :meth:`run` takes when
    :func:`~repro.core.events.kernel_unobserved` holds; the kernel path
    is its differential reference.
    """

    def __init__(self, config: ClusterConfig = ClusterConfig()) -> None:
        self.config = config
        self._sim: Optional[Simulator] = None
        self._stats = None
        # Server state lives in plain Python lists: the per-arrival hot
        # path indexes them thousands of times, and list indexing beats
        # NumPy scalar indexing by a wide margin at size ~n_servers.
        self._rates: Optional[list[float]] = None
        self._free_at: Optional[list[float]] = None
        self._qlen: Optional[list[int]] = None
        self.faults_injected = 0

    # -- SimModel protocol -------------------------------------------------

    def bind(self, sim: Simulator) -> None:
        self._sim = sim
        self._stats = sim.metrics.scoped("cluster")

    def reset(self) -> None:
        cfg = self.config
        n_slow = int(round(cfg.slow_server_fraction * cfg.n_servers))
        self._rates = [
            cfg.service_rate / cfg.slow_factor if i < n_slow
            else cfg.service_rate
            for i in range(cfg.n_servers)
        ]
        self._free_at = [0.0] * cfg.n_servers
        self._qlen = [0] * cfg.n_servers
        self.faults_injected = 0

    def finish(self) -> None:
        if self._stats is not None and self._qlen is not None:
            self._stats.gauge("queued_at_end").set(int(sum(self._qlen)))

    # -- fault-injection hook ----------------------------------------------

    def inject_fault(self, sim: Simulator, rng: np.random.Generator) -> str:
        """Transiently degrade one random server (kernel fault hook).

        The chosen server's service rate drops by ``slow_factor`` (at
        least 4x) for ten mean service times, then recovers — the
        "limping server" mode behind the paper's tail-at-scale argument.
        Returns a short description for the fault log.
        """
        if self._rates is None:
            raise RuntimeError("inject_fault before reset()")
        server = int(rng.integers(self.config.n_servers))
        factor = max(self.config.slow_factor, 4.0)
        duration = 10.0 / self.config.service_rate
        self._rates[server] /= factor

        def _recover(s: Simulator, srv: int) -> None:
            self._rates[srv] *= factor

        sim.schedule(duration, _recover, server)
        self.faults_injected += 1
        self._stats.counter("faults").inc()
        return f"server {server} degraded {factor:g}x for {duration:g}s"

    # -- the simulation ----------------------------------------------------

    def run(
        self,
        arrival_rate: float,
        n_requests: int,
        rng: RngLike = None,
        sim: Optional[Simulator] = None,
    ) -> ClusterResult:
        """Simulate ``n_requests`` Poisson arrivals at ``arrival_rate``.

        Pass ``sim`` to run on a caller-owned kernel (shared metrics,
        armed fault injectors, co-simulated models).  Otherwise the run
        walks its arrivals itself when nothing observes the kernel
        (:func:`~repro.core.events.kernel_unobserved`), and creates a
        private kernel when something does.
        """
        cfg = self.config
        if not math.isfinite(arrival_rate) or arrival_rate <= 0:
            raise ValueError(
                f"arrival rate must be positive and finite, got {arrival_rate}"
            )
        if n_requests < 1:
            raise ValueError("need at least one request")
        gen = resolve_rng(rng)
        arrival_times = np.cumsum(
            gen.exponential(1.0 / arrival_rate, n_requests)
        )
        # Pre-draw the per-request randomness in batches (balancer choice
        # and a unit-exponential service draw scaled by the server's
        # *current* rate at arrival time, so transient faults still bite).
        service_units = gen.standard_exponential(n_requests)
        balancer = cfg.balancer
        n_servers = cfg.n_servers
        picks: Optional[np.ndarray] = None
        if balancer is Balancer.RANDOM:
            picks = gen.integers(n_servers, size=n_requests)
        elif balancer is Balancer.POWER_OF_TWO:
            picks = gen.integers(n_servers, size=(n_requests, 2))
        if kernel_unobserved(sim):
            self._stats = default_registry().scoped("cluster")
            self.reset()
            latencies, busy = self._walk(arrival_times, service_units, picks)
            return self._result(latencies, busy, arrival_times)

        # The handlers index plain lists, far faster than NumPy scalars.
        arrival_times, service_units = (arrival_times.tolist(),
                                        service_units.tolist())
        picks = None if picks is None else picks.tolist()
        kernel = sim if sim is not None else Simulator()
        kernel.attach(self)
        self.reset()
        # Span tracing: one attribute probe per run, hoisted out of the
        # arrival hot path; per-request spans are emitted *completed* at
        # arrival time (the finish instant is known then), which is what
        # lets them replay identically after a checkpoint restore.
        tracer = getattr(kernel.metrics, "tracer", None)
        rates = self._rates
        free_at = self._free_at
        qlen = self._qlen
        latencies = np.empty(n_requests)
        busy = 0.0
        rr = 0

        def complete(s: Simulator, server: int) -> None:
            qlen[server] -= 1

        def arrive(s: Simulator, i: int) -> None:
            nonlocal busy, rr
            t = s.now
            if balancer is Balancer.RANDOM:
                srv = picks[i]
            elif balancer is Balancer.ROUND_ROBIN:
                srv = rr
                rr = (rr + 1) % n_servers
            elif balancer is Balancer.JSQ:
                srv = qlen.index(min(qlen))
            else:  # POWER_OF_TWO
                a, b = picks[i]
                srv = a if qlen[a] <= qlen[b] else b
            service = service_units[i] / rates[srv]
            f = free_at[srv]
            finish = (t if t > f else f) + service
            free_at[srv] = finish
            qlen[srv] += 1
            s.schedule_at(finish, complete, srv, cancellable=False)
            latencies[i] = finish - t
            busy += service
            if tracer is not None:
                tracer.emit("cluster.request", t, finish, i=i, server=srv)

        # The whole arrival train is pre-scheduled as one in-order run
        # in the kernel's sorted lane (O(1) pops), taking its seqs in
        # arrival order before any completion exists.  Completions
        # always carry younger seqs than arrivals, so a completion
        # stamped exactly at an arrival time runs after that arrival.
        kernel.schedule_batch(
            arrival_times, arrive, payloads=range(n_requests)
        )

        # Checkpoint support: all mutable run state lives in the closure
        # (nonlocal counters) and in lists the pending events alias, so a
        # FunctionCheckpoint can copy it out and write it back in place —
        # nothing on the arrival/completion hot path changes.
        def _ckpt_snapshot():
            return (
                busy,
                rr,
                list(rates),
                list(free_at),
                list(qlen),
                latencies.copy(),
                self.faults_injected,
            )

        def _ckpt_restore(state):
            nonlocal busy, rr
            busy, rr = state[0], state[1]
            rates[:] = state[2]
            free_at[:] = state[3]
            qlen[:] = state[4]
            latencies[:] = state[5]
            self.faults_injected = state[6]

        kernel.register_checkpointable(
            FunctionCheckpoint(_ckpt_snapshot, _ckpt_restore)
        )
        if tracer is not None:
            with tracer.span("cluster.run", sim=kernel, category="model",
                             requests=n_requests, servers=cfg.n_servers):
                kernel.run()
        else:
            kernel.run()
        return self._result(latencies, busy, arrival_times)

    def _result(
        self,
        latencies: np.ndarray,
        busy: float,
        arrival_times: Sequence[float],
    ) -> ClusterResult:
        """Metrics, :meth:`finish` and the result, shared by both paths."""
        stats = self._stats
        n_requests = len(latencies)
        # Every arrival runs and every request completes (the kernel
        # drains), so the counters batch to exact totals and the
        # latency histogram sees the same values in the same order.
        stats.counter("requests").inc(n_requests)
        stats.counter("completions").inc(n_requests)
        stats.histogram("latency_s").observe_many(latencies)
        self.finish()

        makespan = max(max(self._free_at), float(arrival_times[-1]))
        utilization = busy / (makespan * self.config.n_servers)
        stats.gauge("utilization").set(utilization)
        return ClusterResult(latencies=latencies, utilization=utilization)

    def _walk(
        self,
        arrival_times: np.ndarray,
        service_units: np.ndarray,
        picks: Optional[np.ndarray],
    ) -> tuple[np.ndarray, float]:
        """The kernel path's event order without the kernel.

        ``random`` and ``round_robin`` never read queue lengths, so their
        completions need not run at all: they run
        :func:`repro.core.queueing.fcfs_walk`, as the ``queue`` replay
        sink does.  A completion retires when it finishes strictly
        before an arrival: at a tie the kernel ran the bulk-loaded
        arrival first.  ``jsq`` reads every queue length: it runs
        :func:`repro.core.queueing.jsq_walk`, which keeps a heap of each
        server's earliest pending finish only while no server is idle.
        ``power_of_two`` reads only its two candidates' lengths: each
        server keeps its pending finishes in a FIFO (an FCFS server's
        finish times never decrease), and only the two candidates'
        FIFOs are trimmed at each arrival.  Needs the server state
        :meth:`reset` sets up; returns ``(latencies, busy seconds)``.
        """
        balancer = self.config.balancer
        n_servers = self.config.n_servers
        rates = self._rates
        free_at = self._free_at
        if balancer is Balancer.RANDOM or balancer is Balancer.ROUND_ROBIN:
            servers = (picks if picks is not None
                       else np.arange(len(arrival_times)) % n_servers)
            service = service_units / np.array(rates)[servers]
            finish, _, free_at[:] = fcfs_walk(
                arrival_times, service, picks, n_servers)
            # Summed in arrival order, from 0.0, as the handlers did.
            busy = 0.0 + float(np.add.accumulate(service)[-1])
            return finish - arrival_times, busy
        times, units = arrival_times.tolist(), service_units.tolist()
        if balancer is Balancer.POWER_OF_TWO:
            latencies = []
            busy = 0.0
            # Each server's pending finishes, oldest first: a server's
            # finish times never decrease, so those before ``t`` lead.
            pending = [deque() for _ in range(n_servers)]
            for t, unit, (a, b) in zip(times, units, picks.tolist()):
                qa = pending[a]
                while qa and qa[0] < t:
                    qa.popleft()
                qb = pending[b]
                while qb and qb[0] < t:
                    qb.popleft()
                srv = a if len(qa) <= len(qb) else b
                service = unit / rates[srv]
                f = free_at[srv]
                finish = (t if t > f else f) + service
                free_at[srv] = finish
                pending[srv].append(finish)
                latencies.append(finish - t)
                busy += service
            return np.array(latencies), busy
        # jsq; ``free_at`` takes each server's last finish.
        finish, _, free_at[:], busy = jsq_walk(times, units, rates)
        return np.array(finish) - arrival_times, busy


# ---------------------------------------------------------------------------
# Closed forms for validation
# ---------------------------------------------------------------------------


def mm1_mean_latency(arrival_rate: float, service_rate: float) -> float:
    """M/M/1 sojourn time: 1 / (mu - lambda)."""
    if arrival_rate <= 0 or service_rate <= 0:
        raise ValueError("rates must be positive")
    if arrival_rate >= service_rate:
        return float("inf")
    return 1.0 / (service_rate - arrival_rate)


def erlang_c(c: int, offered_load: float) -> float:
    """Erlang-C probability that an arrival must queue (M/M/c)."""
    if c < 1:
        raise ValueError("c must be >= 1")
    if offered_load < 0:
        raise ValueError("offered load must be non-negative")
    if offered_load >= c:
        return 1.0
    a = offered_load
    # Stable computation via iterative Erlang-B.
    b = 1.0
    for k in range(1, c + 1):
        b = a * b / (k + a * b)
    rho = a / c
    return b / (1.0 - rho + rho * b)


def mmc_mean_latency(
    arrival_rate: float, service_rate: float, c: int
) -> float:
    """M/M/c mean sojourn time."""
    if arrival_rate <= 0 or service_rate <= 0:
        raise ValueError("rates must be positive")
    a = arrival_rate / service_rate
    if a >= c:
        return float("inf")
    pq = erlang_c(c, a)
    wq = pq / (c * service_rate - arrival_rate)
    return wq + 1.0 / service_rate


def utilization_latency_tradeoff(
    utilizations: np.ndarray, service_rate: float = 1.0, c: int = 16
) -> dict[str, np.ndarray]:
    """The provisioning curve: latency vs utilization (M/M/c).

    The datacenter operator's dilemma the paper alludes to: high
    utilization is cheap but explodes the tail; tail-tolerance buys
    back utilization.
    """
    u = np.asarray(utilizations, dtype=float)
    if np.any((u <= 0) | (u >= 1)):
        raise ValueError("utilizations must be in (0, 1)")
    lat = np.array(
        [mmc_mean_latency(x * c * service_rate, service_rate, c) for x in u]
    )
    return {"utilization": u, "mean_latency": lat}
