"""Discrete-event simulation kernel — the shared substrate.

Every event-driven simulator in the library runs on this kernel: the
datacenter cluster queues (:mod:`repro.datacenter.cluster`), kernel-path
hedging (:mod:`repro.datacenter.hedging`), autoscaling fleet dynamics
(:mod:`repro.datacenter.autoscale`), the mesh NoC
(:mod:`repro.interconnect.noc`), and the intermittent/duty-cycled sensor
models (:mod:`repro.sensor.harvest`, :mod:`repro.sensor.duty`).  The
cluster and NoC models run on a kernel exactly when the caller passes
one as ``sim``; without it they walk the same event order privately,
traced or not.  Design points:

* Events are ``(time, sequence, token, callback, payload)`` tuples in a
  binary heap.  The monotonically increasing sequence number makes
  ordering total and deterministic even when timestamps tie, which
  matters for reproducibility of coherence races and queueing ties.
  Because every entry's ``(time, sequence)`` key is unique, the executed
  order is a pure function of the *set* of scheduled events — never of
  the heap's internal layout — so batch loading (:meth:`Simulator.
  schedule_many`) cannot perturb determinism.
* Callbacks may schedule further events; the kernel runs until the queue
  drains, a time horizon passes, or an event budget is exhausted.
* **Hot path**: the event queue is two lanes.  In-order schedules (bulk
  arrival trains via :meth:`Simulator.schedule_many`, self-chaining
  sources whose next firing never precedes the previous tail) land in a
  *sorted lane* popped by index in O(1); out-of-order schedules fall
  back to the binary heap.  Each pop takes the global ``(time, seq)``
  minimum of the two lane heads, so the executed order is byte-identical
  to a single heap — only cheaper.  :meth:`Simulator.run` drains in one
  loop that runs lane stretches up to the next heap entry with a
  heap-length check per event, the common fire-and-forget case skips
  :class:`CancelToken` allocation entirely
  (``schedule(..., cancellable=False)``), and ``sim.stats`` is
  synchronized when ``run`` returns (and on exceptions), not per event —
  use a probe for live event counting.
* No global state: a :class:`Simulator` instance owns its clock.
* **Observability**: each simulator carries a
  :class:`~repro.core.instrument.MetricsRegistry` (``sim.metrics``) for
  per-component counters/gauges/quantile histograms, plus probe hooks
  (:meth:`Simulator.add_probe`) called after every executed event and
  periodic samplers (:meth:`Simulator.sample_every`).  With
  instrumentation disabled the hot path pays only one emptiness check
  per event.
* **Fault injection**: because all simulators share the one event loop,
  :class:`repro.crosscut.faults.KernelFaultInjector` can drive faults
  into any model through the same scheduling interface.
* **Checkpoint/restart**: :meth:`Simulator.snapshot` captures the clock,
  both event lanes, the sequence counter, cancellation flags, exact
  stats, and the state of every registered :class:`Checkpointable`;
  :meth:`Simulator.restore` rolls all of it back, and a resumed run
  replays the identical event stream.  Snapshots cost nothing on the
  per-event hot path — mid-run accounting is derived structurally from
  the sequence counter (see :meth:`Simulator.snapshot`).
* **Times are checked**: every scheduling entry point rejects a time
  before the clock with :class:`ValueError`, NaN included (it compares
  false both ways and would let the clock run backwards); so does
  ``run(until=nan)``.

Models plug in through the :class:`SimModel` protocol — ``bind(sim)``,
``reset()``, ``finish()`` — so generic machinery (fault injectors,
samplers, reporters) can treat them uniformly.
"""

from __future__ import annotations

import heapq
import itertools
import math
import weakref
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Protocol, Tuple, runtime_checkable

from .instrument import MetricsRegistry, default_registry

EventCallback = Callable[["Simulator", Any], None]
ProbeCallback = Callable[["Simulator", "Event"], None]

#: Version tag written into every :class:`KernelSnapshot`; bump when the
#: snapshot layout changes so stale snapshots are rejected loudly.
SNAPSHOT_VERSION = 1


@dataclass(frozen=True, slots=True)
class Event:
    """A scheduled event (exposed for introspection/testing/probes)."""

    time: float
    seq: int
    callback: EventCallback
    payload: Any = None


class CancelToken:
    """Handle returned by :meth:`Simulator.schedule`; cancels lazily.

    Cancellation marks the token; the kernel discards cancelled events
    when they reach the head of the heap (the standard lazy-deletion
    idiom, O(1) cancel without heap surgery).

    Queue-backed tokens also carry their event's sequence number
    (``seq``) and the owning simulator's cancel log, so ``cancel()``
    records the seq in O(1).  That log is what lets
    :meth:`Simulator.snapshot` capture the cancelled-pending set without
    scanning every pending entry — the scan was O(pending) per snapshot
    and dominated checkpoint overhead on large queues.  An event that knows its own ``(time, seq)`` key
    knows its exact position in the total execution order, which is
    what a mid-run :meth:`Simulator.snapshot` needs (see
    ``repro.resilience.CheckpointManager``).
    """

    __slots__ = ("cancelled", "_log", "seq")

    def __init__(self, log: Optional[set] = None, seq: int = -1) -> None:
        self.cancelled = False
        self._log = log
        self.seq = seq

    def cancel(self) -> None:
        if self.cancelled:
            return
        self.cancelled = True
        if self._log is not None:
            self._log.add(self.seq)


class _ChainToken(CancelToken):
    """Token for a :meth:`Simulator.sample_every` chain.

    Cancelling it also cancels the chain's single pending firing; the
    one reused ``_tick`` closure re-arms ``pending`` each period, so a
    long-lived sampler allocates one token per tick and nothing else.
    """

    __slots__ = ("pending",)

    def __init__(self) -> None:
        super().__init__()
        self.pending: Optional[CancelToken] = None

    def cancel(self) -> None:
        self.cancelled = True
        if self.pending is not None:
            self.pending.cancel()


@dataclass
class SimStats:
    """Counters describing a simulation run."""

    events_executed: int = 0
    events_cancelled: int = 0
    end_time: float = 0.0


@runtime_checkable
class Checkpointable(Protocol):
    """Protocol for state that participates in kernel snapshots.

    ``snapshot_state()`` returns an opaque value capturing the object's
    mutable simulation state *by value* (copy anything that will mutate
    after the snapshot); ``restore_state(state)`` rolls the object back
    to exactly that state.  ``restore_state`` must be repeatable: the
    same snapshot may be restored more than once, so it must not consume
    or alias the saved value destructively.

    Models implementing both methods are auto-registered by
    :meth:`Simulator.attach`; run-local closure state registers through
    :meth:`Simulator.register_checkpointable`, typically via
    :class:`FunctionCheckpoint`.
    """

    def snapshot_state(self) -> Any: ...

    def restore_state(self, state: Any) -> None: ...


class FunctionCheckpoint:
    """Adapter pairing two closures into a :class:`Checkpointable`.

    The model ``run()`` functions keep their hot state in locals and
    closures (``nonlocal`` counters, lists aliased by event callbacks).
    A ``FunctionCheckpoint`` created inside such a function can read and
    rebind that state directly, which lets a model join checkpointing
    without moving anything off its fast path::

        def _snap():             # copy-by-value
            return (busy, list(qlen))
        def _restore(state):
            nonlocal busy
            busy = state[0]
            qlen[:] = state[1]
        sim.register_checkpointable(FunctionCheckpoint(_snap, _restore))
    """

    __slots__ = ("_snapshot_fn", "_restore_fn")

    def __init__(
        self,
        snapshot_fn: Callable[[], Any],
        restore_fn: Callable[[Any], None],
    ) -> None:
        self._snapshot_fn = snapshot_fn
        self._restore_fn = restore_fn

    def snapshot_state(self) -> Any:
        return self._snapshot_fn()

    def restore_state(self, state: Any) -> None:
        self._restore_fn(state)


class KernelSnapshot:
    """A restorable point-in-time capture of a :class:`Simulator`.

    Holds the clock, the sequence counter, every pending event entry
    (with each entry's cancellation flag as of snapshot time), exact
    :class:`SimStats`, and one ``(object, state)`` pair per registered
    :class:`Checkpointable`.  Event entries reference live callback and
    token objects, so a snapshot is restorable **within the process that
    took it** — cross-process durability is layered above the kernel
    (see ``repro.resilience``), which persists model- and job-level
    state instead of closures.

    Copy-on-write: the in-order lane is append-only while a run drains,
    so a mid-run snapshot records a ``(lane, start, end)`` *view* of the
    pending tail instead of copying it (the copy was O(pending) and
    dominated checkpoint overhead on large queues).  The view is
    materialized into a private list the first time :attr:`entries` is
    read — or by the kernel, just before it compacts the lane (see
    ``Simulator._flush_lazy_snapshots``).  A snapshot evicted from a
    bounded ring before either happens never pays for the copy at all.
    """

    __slots__ = (
        "version", "label", "now", "next_seq", "burned", "_entries",
        "cancelled_seqs", "events_executed", "events_cancelled", "states",
        "_lane_ref", "_lane_start", "_lane_end", "__weakref__",
    )

    def __init__(
        self,
        *,
        version: int,
        label: Optional[str],
        now: float,
        next_seq: int,
        burned: int,
        entries: List[tuple],
        cancelled_seqs: frozenset,
        events_executed: int,
        events_cancelled: int,
        states: List[Tuple[Any, Any]],
        lane_ref: Optional[list] = None,
        lane_start: int = 0,
        lane_end: int = 0,
    ) -> None:
        #: Snapshot layout version (checked by restore()).
        self.version = version
        self.label = label
        self.now = now
        #: Value the sequence counter restarts from on restore.
        self.next_seq = next_seq
        #: Sequence numbers consumed by ``snapshot()`` itself (see
        #: :meth:`Simulator.snapshot`); needed for exact executed-count
        #: accounting across repeated snapshots.
        self.burned = burned
        # Heap-lane entries (always copied eagerly: the heap mutates in
        # place); the in-order-lane tail rides in the lazy view.
        self._entries = entries
        #: Seqs of pending entries whose token was cancelled at snapshot
        #: time; restore() resets every pending token's flag from this
        #: set.  May contain stale seqs of already-executed events whose
        #: token was cancelled late; those never match a pending entry,
        #: so they are inert on restore.
        self.cancelled_seqs = cancelled_seqs
        self.events_executed = events_executed
        self.events_cancelled = events_cancelled
        #: ``(checkpointable, state)`` pairs, in registration order.
        self.states = states
        self._lane_ref = lane_ref
        self._lane_start = lane_start
        self._lane_end = lane_end

    def materialize(self) -> None:
        """Detach from the live lane by copying the viewed tail (idempotent)."""
        lane = self._lane_ref
        if lane is not None:
            self._entries = self._entries + lane[self._lane_start:self._lane_end]
            self._lane_ref = None

    @property
    def entries(self) -> List[tuple]:
        """Pending entries from both lanes, each ``(time, seq, token,
        cb, payload)``.  Reading this materializes a lazy snapshot."""
        self.materialize()
        return self._entries

    @property
    def pending(self) -> int:
        """Number of pending entries captured (including cancelled).

        Computable without materializing the lazy lane view.
        """
        n = len(self._entries)
        if self._lane_ref is not None:
            n += self._lane_end - self._lane_start
        return n


@runtime_checkable
class SimModel(Protocol):
    """Protocol for components that live on the event kernel.

    ``bind(sim)`` attaches the model to a simulator (acquire metrics
    scopes, stash the handle); ``reset()`` clears per-run state so a
    model can be reused across runs; ``finish()`` flushes end-of-run
    summary metrics.  :meth:`Simulator.attach` calls ``bind`` and
    records the model so samplers/fault injectors can enumerate the
    components of a simulation.
    """

    def bind(self, sim: "Simulator") -> None: ...

    def reset(self) -> None: ...

    def finish(self) -> None: ...


_INIT_HOOKS: List[Callable[["Simulator"], None]] = []


def add_init_hook(hook: Callable[["Simulator"], None]) -> Callable[["Simulator"], None]:
    """Register ``hook(sim)`` to run at the end of every ``Simulator()``.

    This is the attachment point for process-wide observability (the
    session tracer registers its span sink as a checkpointable on each
    new simulator, the sim-profiler attaches its probe) without the
    kernel importing any of it.  Hooks run in registration order; with
    none registered the constructor pays a single emptiness check.
    """
    _INIT_HOOKS.append(hook)
    return hook


def remove_init_hook(hook: Callable[["Simulator"], None]) -> None:
    """Unregister a hook added by :func:`add_init_hook` (missing is a no-op)."""
    try:
        _INIT_HOOKS.remove(hook)
    except ValueError:
        pass


class Simulator:
    """Deterministic discrete-event simulator.

    Example
    -------
    >>> sim = Simulator()
    >>> fired = []
    >>> sim.schedule(2.0, lambda s, p: fired.append((s.now, p)), "late")
    <repro.core.events.CancelToken object at ...>
    >>> sim.schedule(1.0, lambda s, p: fired.append((s.now, p)), "early")
    <repro.core.events.CancelToken object at ...>
    >>> stats = sim.run()
    >>> fired
    [(1.0, 'early'), (2.0, 'late')]
    """

    def __init__(
        self,
        start_time: float = 0.0,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self._now = float(start_time)
        #: Out-of-order lane: a binary heap of (time, seq, token, cb, payload).
        self._heap: list[tuple[float, int, CancelToken, EventCallback, Any]] = []
        #: In-order lane: entries sorted by (time, seq), consumed by index.
        #: Schedules whose time is >= the lane tail append here in O(1)
        #: and pop in O(1); everything else falls back to the heap.  Pops
        #: always take the global (time, seq) minimum of both lane heads,
        #: so the merged order equals a single heap's.
        self._lane: list[tuple[float, int, CancelToken, EventCallback, Any]] = []
        self._lane_pos = 0
        self._seq = itertools.count()
        self._running = False
        self.stats = SimStats()
        #: Instrumentation registry; defaults to the process session
        #: registry (a shared no-op unless ``--instrument``-style code
        #: called :func:`repro.core.instrument.enable_session`).
        self.metrics = metrics if metrics is not None else default_registry()
        self._probes: List[ProbeCallback] = []
        self.models: List[SimModel] = []
        #: Objects whose state rides along in kernel snapshots.
        self._checkpointables: List[Checkpointable] = []
        #: Seq numbers consumed by snapshot() itself (never assigned to
        #: an event); tracked so executed-count accounting stays exact.
        self._burned = 0
        #: Seqs of cancelled-but-still-queued events, maintained eagerly
        #: by CancelToken.cancel() and pruned when purges discard the
        #: entry.  snapshot() reads this instead of scanning every
        #: pending entry.  The object identity is stable for the
        #: simulator's lifetime (tokens hold a reference), so restore()
        #: mutates it in place.
        self._cancel_log: set[int] = set()
        #: Weak refs to copy-on-write snapshots still viewing ``_lane``;
        #: materialized (copied out) just before any lane compaction
        #: invalidates their indices.  Snapshots evicted from a bounded
        #: ring die here silently and never pay for the copy.
        self._lazy_snaps: list[weakref.ref[KernelSnapshot]] = []
        if _INIT_HOOKS:
            for hook in list(_INIT_HOOKS):
                hook(self)

    def _flush_lazy_snapshots(self) -> None:
        """Materialize outstanding copy-on-write snapshots.

        Called before every lane compaction (``del lane[:pos]`` /
        ``lane.clear()``): those shift or drop lane indices, so any
        snapshot still holding a ``(lane, start, end)`` view must copy
        its tail out first.  Appends never invalidate a view, so the
        hot scheduling paths stay flush-free.
        """
        snaps = self._lazy_snaps
        if snaps:
            for ref in snaps:
                snap = ref()
                if snap is not None:
                    snap.materialize()
            snaps.clear()

    def _drop_consumed(self, pos: int) -> None:
        """Compact the lane by dropping its consumed prefix ``[:pos]``."""
        self._flush_lazy_snapshots()
        del self._lane[:pos]

    @property
    def now(self) -> float:
        """Current simulation time [s or cycles, caller's choice]."""
        return self._now

    def __len__(self) -> int:
        """Number of pending entries, **including** lazily-cancelled events.

        Cancellation is lazy (tokens are marked, dead entries are only
        discarded when they surface at a queue head), so ``len(sim)``
        over-counts by however many cancelled events have not yet been
        purged.  Use :meth:`pending_live` for the exact number of events
        that will still fire.

        Both counts are exact between runs; from *inside* a callback they
        may additionally include already-consumed lane entries, because
        the run loop keeps its lane cursor in a local until it returns.
        """
        return len(self._heap) + len(self._lane) - self._lane_pos

    def pending_live(self) -> int:
        """Number of pending events that are *not* cancelled (O(n))."""
        live = sum(
            1 for _t, _s, token, _cb, _p in self._heap
            if token is None or not token.cancelled
        )
        lane = self._lane
        for i in range(self._lane_pos, len(lane)):
            token = lane[i][2]
            if token is None or not token.cancelled:
                live += 1
        return live

    def __repr__(self) -> str:
        """Debugging summary; ``live`` is the count that will actually fire.

        ``pending`` is ``len(self)`` (lazily-cancelled entries included),
        ``live`` is :meth:`pending_live` — shown separately because the
        two legitimately disagree while cancellations await purge.
        """
        return (
            f"<Simulator t={self._now:g} pending={len(self)}"
            f" live={self.pending_live()}"
            f" executed={self.stats.events_executed}>"
        )

    # -- model / probe registration ---------------------------------------

    def attach(self, model: SimModel) -> SimModel:
        """Bind a :class:`SimModel` to this simulator and track it.

        Every call binds (a walk in between may have rebound its
        metrics), but lists the model once.  Models that also implement
        :class:`Checkpointable` are auto-registered for kernel snapshots.
        """
        model.bind(self)
        if not any(existing is model for existing in self.models):
            self.models.append(model)
        if isinstance(model, Checkpointable):
            self.register_checkpointable(model)
        return model

    def register_checkpointable(self, obj: Checkpointable) -> Checkpointable:
        """Include ``obj``'s state in every subsequent :meth:`snapshot`.

        Registration is idempotent per object (identity-deduplicated),
        so models that re-register on every ``run()`` call don't snapshot
        the same state twice.
        """
        if not any(existing is obj for existing in self._checkpointables):
            self._checkpointables.append(obj)
        return obj

    def finish_models(self) -> None:
        """Call ``finish()`` on every attached model (end-of-run flush)."""
        for model in self.models:
            model.finish()

    def add_probe(self, probe: ProbeCallback) -> ProbeCallback:
        """Register ``probe(sim, event)``, called after each executed event.

        Probes are the kernel's observation point: tracing, event-type
        accounting, and fault triggers all hang off this hook.  With no
        probes registered the per-event cost is a single emptiness
        check.
        """
        self._probes.append(probe)
        return probe

    def remove_probe(self, probe: ProbeCallback) -> None:
        self._probes.remove(probe)

    def sample_every(
        self,
        period: float,
        sampler: Callable[["Simulator"], None],
        initial_delay: Optional[float] = None,
    ) -> CancelToken:
        """Run ``sampler(sim)`` every ``period`` until cancelled.

        The standard way to feed gauges (queue depth, stored energy)
        without touching model hot paths.  Returns the token for the
        *chain*: cancelling it stops all future samples.
        """
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        chain = _ChainToken()

        def _tick(sim: "Simulator", _payload: Any) -> None:
            if chain.cancelled:
                return
            sampler(sim)
            if not chain.cancelled:  # the sampler itself may cancel
                chain.pending = sim.schedule(period, _tick)

        chain.pending = self.schedule(
            period if initial_delay is None else initial_delay, _tick
        )
        return chain

    # -- scheduling --------------------------------------------------------

    def schedule(
        self,
        delay: float,
        callback: EventCallback,
        payload: Any = None,
        cancellable: bool = True,
    ) -> Optional[CancelToken]:
        """Schedule ``callback(sim, payload)`` at ``now + delay``.

        ``cancellable=False`` is the fire-and-forget fast path: it skips
        the per-event :class:`CancelToken` allocation (the common case —
        arrival trains, completions, self-rescheduling ticks) and
        returns ``None``.
        """
        if not delay >= 0:  # also rejects NaN
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        seq = next(self._seq)
        token = CancelToken(self._cancel_log, seq) if cancellable else None
        entry = (self._now + delay, seq, token, callback, payload)
        lane = self._lane
        if not lane or entry[0] >= lane[-1][0]:
            lane.append(entry)  # in-order: O(1) append, O(1) pop later
        else:
            heapq.heappush(self._heap, entry)
        return token

    def schedule_at(
        self,
        time: float,
        callback: EventCallback,
        payload: Any = None,
        cancellable: bool = True,
    ) -> Optional[CancelToken]:
        """Schedule at an absolute timestamp ``time >= now``.

        ``cancellable=False`` skips token allocation and returns
        ``None`` (see :meth:`schedule`).
        """
        if not time >= self._now:  # also rejects NaN
            raise ValueError(
                f"cannot schedule at {time} before current time {self._now}"
            )
        seq = next(self._seq)
        token = CancelToken(self._cancel_log, seq) if cancellable else None
        entry = (float(time), seq, token, callback, payload)
        lane = self._lane
        if not lane or entry[0] >= lane[-1][0]:
            lane.append(entry)
        else:
            heapq.heappush(self._heap, entry)
        return token

    def schedule_many(
        self,
        times,
        callback: EventCallback,
        payloads=None,
    ) -> int:
        """Bulk-schedule ``callback`` at absolute ``times`` (fire-and-forget).

        ``payloads``, when given, pairs one payload with each timestamp
        (lengths must match).  Events are non-cancellable; sequence
        numbers are assigned in iteration order, so ties break exactly
        as if each event had been scheduled with :meth:`schedule_at` in
        a loop.  Returns the number of events scheduled.

        The whole load is checked before any sequence number is taken,
        so a rejected load leaves the kernel as it was.  A nondecreasing
        batch whose first timestamp does not precede the in-order lane's
        tail extends the lane in O(n) and will pop in O(1) per event; a
        large out-of-order batch is merged into the heap with one
        ``heapify``.  Either way the executed order is identical —
        ``(time, seq)`` keys are unique, so pop order never depends on
        which lane holds an entry.
        """
        now = self._now
        ts = list(map(float, times))
        prev = -math.inf
        in_order = True
        for t in ts:
            if not t >= now:  # also rejects NaN
                raise ValueError(
                    f"cannot schedule at {t} before current time {now}"
                )
            if t < prev:
                in_order = False
            prev = t
        n = len(ts)
        if payloads is None:
            payload_seq: Any = itertools.repeat(None, n)
        else:
            payload_seq = list(payloads)
            if len(payload_seq) != n:
                raise ValueError("times and payloads must have equal lengths")
        if not n:
            return 0
        start_seq = next(self._seq)
        self._seq = itertools.count(start_seq + n)
        entries = list(zip(
            ts,
            range(start_seq, start_seq + n),
            itertools.repeat(None, n),
            itertools.repeat(callback, n),
            payload_seq,
        ))
        lane = self._lane
        heap = self._heap
        if in_order and (not lane or ts[0] >= lane[-1][0]):
            lane.extend(entries)  # stays sorted: O(n) load, O(1) pops
        elif n * 4 > len(heap):
            heap.extend(entries)
            heapq.heapify(heap)  # O(n+m) beats m pushes for large m
        else:
            push = heapq.heappush
            for entry in entries:
                push(heap, entry)
        return n

    #: The cluster, hedging, NoC and harvest models bulk-load their
    #: arrival, injection and tick trains through this name, so a
    #: wrapper can time those loads apart from other bulk schedules.
    schedule_batch = schedule_many

    def _next_entry(self, pop: bool):
        """The next live event across both lanes (or ``None`` if drained).

        Purges cancelled entries from whichever lane surfaces them,
        counting them in ``stats``; pops the returned entry iff ``pop``.
        """
        if self._running:
            # run() holds the lane consumption index in a local; mutating
            # it from a callback would desync the drain loop.
            raise RuntimeError(
                "peek_time()/step() cannot be called while run() is active"
            )
        heap = self._heap
        lane = self._lane
        while True:
            pos = self._lane_pos
            lane_head = lane[pos] if pos < len(lane) else None
            if heap and (lane_head is None or heap[0] < lane_head):
                entry = heap[0]
                from_heap = True
            elif lane_head is not None:
                entry = lane_head
                from_heap = False
            else:
                if pos and not self._running:
                    self._flush_lazy_snapshots()
                    lane.clear()  # fully consumed: reclaim
                    self._lane_pos = 0
                return None
            token = entry[2]
            if (token is not None and token.cancelled) or pop:
                if from_heap:
                    heapq.heappop(heap)
                else:
                    self._lane_pos = pos + 1
            if token is not None and token.cancelled:
                self.stats.events_cancelled += 1
                self._cancel_log.discard(entry[1])
                continue
            return entry

    def peek_time(self) -> Optional[float]:
        """Timestamp of the next live event, or ``None`` if drained."""
        entry = self._next_entry(pop=False)
        return None if entry is None else entry[0]

    def step(self) -> bool:
        """Execute the single next live event; return False if drained."""
        entry = self._next_entry(pop=True)
        if entry is None:
            return False
        time, seq, _token, callback, payload = entry
        self._now = time
        callback(self, payload)
        self.stats.events_executed += 1
        if self._probes:
            event = Event(time=time, seq=seq, callback=callback,
                          payload=payload)
            for probe in self._probes:
                probe(self, event)
        return True

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> SimStats:
        """Run until the queue drains, ``until`` passes, or budget is hit.

        ``until`` is inclusive: events stamped exactly at ``until`` run.
        When the next live event lies beyond ``until`` the clock advances
        to ``until``, so back-to-back ``run`` calls behave like one
        longer run; a queue that drains first leaves the clock at its
        last event.

        One loop serves every bound.  Each pass either runs one head
        entry (the heap head, or a lane head whose successor the heap
        head precedes), or drains a stretch ``lane[pos:boundary]`` of
        the in-order lane, where ``boundary`` is the first lane entry
        behind the heap head, the ``until`` horizon, the ``max_events``
        budget, whichever comes first.
        Inside a stretch an event costs one callback plus a cancel-log,
        a probe and a heap-length check; a callback that pushes onto the
        heap ends the stretch, so the next pass re-merges at the exact
        ``(time, seq)`` slot.  ``stats`` counters accumulate in locals
        and synchronize when ``run`` returns — including on an exception
        escaping a callback — so code that needs per-event counts live
        should use a probe.
        """
        if self._running:
            raise RuntimeError("simulator is already running (re-entrant run)")
        if until is not None and math.isnan(until):
            # NaN compares false against every timestamp, so the horizon
            # checks below would never stop the drain.
            raise ValueError("run(until=nan): the horizon must be a number")
        self._running = True
        heap = self._heap
        lane = self._lane
        pos = self._lane_pos
        heappop = heapq.heappop
        probes = self._probes
        stats_obj = self.stats
        clog = self._cancel_log
        executed = 0
        # Span tracing costs one attribute probe per run() call, never
        # per event: with no tracer attached the drain below is untouched.
        tracer = getattr(self.metrics, "tracer", None)
        run_span = (
            tracer.begin("kernel.run", sim_time=self._now, category="kernel")
            if tracer is not None else None
        )
        completed = False
        try:
            while max_events is None or executed < max_events:
                if pos < len(lane):
                    entry = lane[pos]
                    if heap and heap[0] < entry:
                        entry = heappop(heap)
                    elif until is not None and entry[0] > until:
                        # The lane head is next and lies beyond the
                        # horizon: purge it if cancelled, else stop.
                        if clog:
                            token = entry[2]
                            if token is not None and token.cancelled:
                                pos += 1
                                stats_obj.events_cancelled += 1
                                clog.discard(entry[1])
                                continue
                        if until > self._now:
                            self._now = until
                        break
                    elif heap and (
                        pos + 1 == len(lane) or heap[0] < lane[pos + 1]
                    ):
                        # A one-entry stretch (the common case behind a
                        # busy heap) runs like a heap head, below.
                        pos += 1
                        if pos >= 262144 and pos * 2 >= len(lane):
                            self._drop_consumed(pos)
                            pos = 0
                    else:
                        # Drain the lane stretch [pos, boundary).  Keys
                        # are unique, so tuple compares and bisects never
                        # reach the token field; lane[pos + 1] precedes
                        # the heap head here.
                        n_heap = len(heap)
                        boundary = (
                            bisect_left(lane, heap[0], pos + 2)
                            if n_heap else len(lane)
                        )
                        if until is not None and lane[boundary - 1][0] > until:
                            # Entries at exactly ``until`` run; seqs are
                            # finite, so they all sort before the probe.
                            boundary = bisect_left(
                                lane, (until, math.inf), pos + 1, boundary
                            )
                        if (max_events is not None
                                and boundary - pos > max_events - executed):
                            boundary = pos + (max_events - executed)
                        while pos < boundary:
                            entry = lane[pos]
                            pos += 1
                            if clog:
                                token = entry[2]
                                if token is not None and token.cancelled:
                                    stats_obj.events_cancelled += 1
                                    clog.discard(entry[1])
                                    continue
                            self._now = entry[0]
                            callback = entry[3]
                            callback(self, entry[4])
                            executed += 1
                            if probes:
                                event = Event(time=entry[0], seq=entry[1],
                                              callback=callback,
                                              payload=entry[4])
                                for probe in probes:
                                    probe(self, event)
                            if len(heap) != n_heap:
                                break
                        # Amortized compaction: self-chaining sims append
                        # one event per pop, so the consumed prefix would
                        # otherwise grow without bound.
                        if pos >= 262144 and pos * 2 >= len(lane):
                            self._drop_consumed(pos)
                            pos = 0
                        continue
                elif heap:
                    entry = heappop(heap)
                else:
                    break
                if clog:
                    token = entry[2]
                    if token is not None and token.cancelled:
                        # Purge accounting is live (not batched in a
                        # local) so a mid-run snapshot() can read an exact
                        # count; an empty cancel log proves no pending
                        # event is cancelled.
                        stats_obj.events_cancelled += 1
                        clog.discard(entry[1])
                        continue
                if until is not None and entry[0] > until:
                    # Only a heap head gets here beyond the horizon.
                    heapq.heappush(heap, entry)
                    if until > self._now:
                        self._now = until
                    break
                self._now = entry[0]
                callback = entry[3]
                callback(self, entry[4])
                executed += 1
                if probes:
                    event = Event(time=entry[0], seq=entry[1],
                                  callback=callback, payload=entry[4])
                    for probe in probes:
                        probe(self, event)
            completed = True
        finally:
            self._running = False
            if pos:
                self._drop_consumed(pos)
            self._lane_pos = 0
            stats_obj.events_executed += executed
            if run_span is not None:
                tracer.end(
                    run_span,
                    sim_time=self._now,
                    status="ok" if completed else "error",
                    events=executed,
                )
        stats_obj.end_time = self._now
        return stats_obj

    # -- checkpoint / restart ---------------------------------------------

    def snapshot(
        self,
        label: Optional[str] = None,
        *,
        current_seq: Optional[int] = None,
    ) -> KernelSnapshot:
        """Capture a restorable :class:`KernelSnapshot` of this simulator.

        Works both between runs and **mid-run, from inside an event
        callback** — the latter requires ``current_seq``, the sequence
        number of the event currently executing (the ``seq`` of the
        :class:`CancelToken` it was scheduled with).  Pop order is
        the global ``(time, seq)`` minimum across both lanes, so every
        entry with key <= ``(now, current_seq)`` has been consumed and
        every entry above it is pending; a binary search on that key
        recovers the lane split exactly, with zero per-event cost on
        uncheckpointed runs.

        Accounting: ``snapshot()`` consumes one sequence number (a
        deterministic side effect — a run that takes checkpoints and a
        crash-resume run replay the identical seq stream).  The executed
        count is derived structurally — every seq ever issued is either
        executed, purged-as-cancelled, still pending, or burned by a
        snapshot — so mid-run snapshots get exact :class:`SimStats`
        without the run loop syncing counters per event.

        The snapshot holds live object references (callbacks, tokens,
        payloads); it is valid within this process only.
        """
        nxt = next(self._seq)
        self._seq = itertools.count(nxt + 1)
        prior_burned = self._burned
        self._burned = prior_burned + 1
        lane = self._lane
        if self._running:
            if current_seq is None:
                raise RuntimeError(
                    "mid-run snapshot() requires current_seq (the executing "
                    "event's sequence number: its CancelToken.seq, as "
                    "CheckpointManager passes it)"
                )
            key = (self._now, current_seq)
            lo, hi = 0, len(lane)
            while lo < hi:
                mid = (lo + hi) // 2
                if (lane[mid][0], lane[mid][1]) <= key:
                    lo = mid + 1
                else:
                    hi = mid
            pos = lo
        else:
            pos = self._lane_pos
        # Copy-on-write: only the (small, mutated-in-place) heap is
        # copied now; the lane tail is recorded as a (lane, start, end)
        # view and copied lazily — on first entries access or just
        # before a lane compaction (see _flush_lazy_snapshots).  This
        # makes snapshot() O(heap + cancelled) instead of O(pending),
        # which is what keeps periodic-checkpoint overhead low on
        # large-queue drains.
        heap_part = list(self._heap)
        n_pending = len(heap_part) + (len(lane) - pos)
        # O(cancelled), not O(pending): the cancel log is maintained
        # eagerly by CancelToken.cancel() and pruned on purge.  A token
        # cancelled *after* its event already fired can leave a stale
        # seq here; restore() only applies the set to pending entries,
        # so stale seqs are inert.
        cancelled_seqs = frozenset(self._cancel_log)
        created = nxt - prior_burned
        executed = created - n_pending - self.stats.events_cancelled
        snap = KernelSnapshot(
            version=SNAPSHOT_VERSION,
            label=label,
            now=self._now,
            next_seq=nxt + 1,
            burned=prior_burned + 1,
            entries=heap_part,
            cancelled_seqs=cancelled_seqs,
            events_executed=executed,
            events_cancelled=self.stats.events_cancelled,
            states=[
                (obj, obj.snapshot_state()) for obj in self._checkpointables
            ],
            lane_ref=lane,
            lane_start=pos,
            lane_end=len(lane),
        )
        snaps = self._lazy_snaps
        if len(snaps) >= 64:  # drop refs to ring-evicted snapshots
            snaps[:] = [ref for ref in snaps if ref() is not None]
        snaps.append(weakref.ref(snap))
        return snap

    def restore(self, snap: KernelSnapshot) -> None:
        """Roll this simulator back to ``snap``.

        Rebuilds the pending-event structure, resets every pending
        token's cancellation flag to its snapshot-time value, restores
        the clock / sequence counter / stats, and calls
        ``restore_state`` on each captured :class:`Checkpointable`.
        Restoring the same snapshot more than once is supported.  A
        subsequent ``run()`` replays exactly the event stream the
        original run executed after the snapshot point (same seeds
        assumed), which is the determinism guarantee the golden
        crash-resume tests pin.
        """
        if self._running:
            raise RuntimeError("cannot restore() while run() is active")
        if snap.version != SNAPSHOT_VERSION:
            raise ValueError(
                f"snapshot version {snap.version} != kernel "
                f"SNAPSHOT_VERSION {SNAPSHOT_VERSION}"
            )
        self._now = snap.now
        self._seq = itertools.count(snap.next_seq)
        self._burned = snap.burned
        cancelled_seqs = snap.cancelled_seqs
        for entry in snap.entries:
            token = entry[2]
            if token is not None:
                token.cancelled = entry[1] in cancelled_seqs
        # Tokens alias the cancel log by reference, so reset it in
        # place to the snapshot-time set.
        self._cancel_log.clear()
        self._cancel_log.update(cancelled_seqs)
        # Rebuild into the sorted in-order lane (ties impossible: seqs
        # are unique, so sorted() never compares tokens).  Replay then
        # drains through the O(1)-pop lane fast path instead of paying
        # a heap pop per event — this is what makes resume-after-crash
        # cheaper than restart in the resilience benchmarks.
        self._heap = []
        self._lane = sorted(snap.entries)
        self._lane_pos = 0
        self.stats.events_executed = snap.events_executed
        self.stats.events_cancelled = snap.events_cancelled
        self.stats.end_time = snap.now
        for obj, state in snap.states:
            obj.restore_state(state)


@dataclass(slots=True)
class PeriodicSource:
    """Helper that re-schedules itself every ``period``.

    Used by traffic generators, sensor duty cycles, and autoscaler
    ticks.  The callback receives the simulator and this source's
    ``payload``.

    Stopping
    --------
    * ``stop_after`` is an **inclusive** deadline: a firing stamped
      exactly at ``stop_after`` still runs; the first firing strictly
      beyond it is suppressed (and nothing further is scheduled).
    * :meth:`stop` cancels the pending firing immediately via the
      kernel's :class:`CancelToken` (lazy deletion — the dead event is
      discarded when it surfaces).  :meth:`start` also returns that
      token for callers that prefer to hold it directly.
    """

    period: float
    callback: EventCallback
    payload: Any = None
    stop_after: Optional[float] = None
    fires: int = field(default=0, init=False)
    _token: Optional[CancelToken] = field(
        default=None, init=False, repr=False, compare=False
    )

    def start(self, sim: Simulator, initial_delay: float = 0.0) -> CancelToken:
        if self.period <= 0:
            raise ValueError(f"period must be positive, got {self.period}")
        self._token = sim.schedule(initial_delay, self._fire)
        return self._token

    def stop(self) -> None:
        """Cancel the pending firing; the source goes quiet immediately."""
        if self._token is not None:
            self._token.cancel()
            self._token = None

    @property
    def active(self) -> bool:
        """True while a future firing is scheduled."""
        return self._token is not None and not self._token.cancelled

    def _fire(self, sim: Simulator, _payload: Any) -> None:
        if self.stop_after is not None and sim.now > self.stop_after:
            self._token = None
            return
        self.callback(sim, self.payload)
        self.fires += 1
        self._token = sim.schedule(self.period, self._fire)
