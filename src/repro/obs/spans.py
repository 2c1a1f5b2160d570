"""Structured span tracing over sim-time and wall-time clocks.

A *span* is a named interval with attributes: a kernel drain, a model
phase, an exec job, one request's life from arrival to completion.
Spans carry **two** clocks — the simulated interval ``[t0_sim, t1_sim]``
that is bit-reproducible across runs, and the wall-clock interval that
is not (and is therefore excluded from canonical streams and digests).

Design constraints, in order:

1. **Determinism.**  Golden tests pin sha256 digests of span streams,
   and crash+resume must replay the identical stream.  So spans are
   recorded *at completion time* in sink order — there are no numeric
   span ids to drift, and the parent link is the *name* of the
   innermost span open on the tracer's stack at emission.  The sink is
   checkpointable: a kernel restore truncates it back to the snapshot
   point exactly as the kernel discards post-snapshot events, and the
   replay re-emits the truncated tail identically.
2. **~Zero cost when off.**  Nothing here is touched unless a tracer is
   attached to a registry; the kernel reads ``metrics.tracer`` once per
   ``run()`` call (see :meth:`repro.core.events.Simulator.run`), and
   model emission sites are guarded by a single ``is not None`` test
   hoisted out of their hot loops.
3. **Bounded memory.**  :class:`SpanSink` is a ring over a deque with a
   ``dropped`` counter.

Span **categories** partition the stream by replay behaviour:

* ``"sim"`` — emitted by event callbacks, timestamped purely in
  sim-time.  These replay byte-identically across serial, pool,
  and crash+resume executions and are what the golden-trace suite pins.
* ``"kernel"`` / ``"model"`` / ``"exec"`` — lifecycle spans around
  drains, model phases, and jobs.  Deterministic for a straight run,
  but a resumed run legitimately has *extra* kernel/model lifecycle
  spans (the second ``run()`` call), so equivalence tests filter to
  ``"sim"`` while straight-run goldens may pin the full stream.
"""

from __future__ import annotations

import hashlib
import time as _time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Deque, Iterable, Iterator, List, Optional, Tuple

__all__ = [
    "DEFAULT_SPAN_CAPACITY",
    "SpanRecord",
    "SpanSink",
    "Tracer",
    "attach_tracer",
    "canonical_spans",
    "maybe_span",
    "span_stream_digest",
]

DEFAULT_SPAN_CAPACITY = 65536


@dataclass(frozen=True)
class SpanRecord:
    """One completed span.

    ``attrs`` is a key-sorted tuple of pairs so records compare and
    hash canonically.  ``parent`` is the name of the innermost span
    that was open when this one finished ("" at top level).
    """

    name: str
    category: str
    parent: str
    t0_sim: Optional[float]
    t1_sim: Optional[float]
    t0_wall: float
    t1_wall: float
    status: str
    attrs: Tuple[Tuple[str, Any], ...]

    def canonical(self) -> tuple:
        """Reproducible projection: everything except wall-clock times."""
        return (self.name, self.category, self.parent,
                repr(self.t0_sim), repr(self.t1_sim), self.status, self.attrs)

    def to_dict(self) -> dict:
        """Plain-dict form for pipes and JSON export (wall times kept)."""
        return {
            "name": self.name,
            "category": self.category,
            "parent": self.parent,
            "t0_sim": self.t0_sim,
            "t1_sim": self.t1_sim,
            "t0_wall": self.t0_wall,
            "t1_wall": self.t1_wall,
            "status": self.status,
            "attrs": [[k, v] for k, v in self.attrs],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SpanRecord":
        return cls(
            name=d["name"], category=d["category"], parent=d["parent"],
            t0_sim=d["t0_sim"], t1_sim=d["t1_sim"],
            t0_wall=d["t0_wall"], t1_wall=d["t1_wall"],
            status=d["status"],
            attrs=tuple((k, v) for k, v in d["attrs"]),
        )


class SpanSink:
    """Bounded ring of completed :class:`SpanRecord`\\ s.

    Oldest spans are evicted first once ``capacity`` is reached and
    counted in ``dropped``.  The sink is
    :class:`repro.core.events.Checkpointable`-shaped: its snapshot is
    the ``(length, dropped)`` position in the stream, and restore
    truncates back to it — valid because completed spans are only ever
    appended, never mutated, so a replayed run re-appends the same tail.
    """

    __slots__ = ("capacity", "_spans", "dropped")

    def __init__(self, capacity: int = DEFAULT_SPAN_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._spans: Deque[SpanRecord] = deque(maxlen=capacity)
        self.dropped = 0

    def emit(self, record: SpanRecord) -> None:
        if len(self._spans) == self.capacity:
            self.dropped += 1
        self._spans.append(record)

    def records(self, category: Optional[str] = None) -> List[SpanRecord]:
        if category is None:
            return list(self._spans)
        return [s for s in self._spans if s.category == category]

    def clear(self) -> None:
        self._spans.clear()
        self.dropped = 0

    def __len__(self) -> int:
        return len(self._spans)

    # -- Checkpointable ----------------------------------------------------

    def snapshot_state(self) -> Any:
        return (len(self._spans), self.dropped)

    def restore_state(self, state: Any) -> None:
        n, dropped = state
        if dropped != self.dropped:
            # The ring wrapped between the snapshot and now: the exact
            # prefix is unrecoverable, so restore to best effort (keep
            # what we have) rather than silently lying about history.
            self.dropped = dropped
            return
        while len(self._spans) > n:
            self._spans.pop()


class _OpenSpan:
    """Handle for a begin()/end() pair; also the tracer's stack entry."""

    __slots__ = ("name", "category", "parent", "t0_sim", "t0_wall", "attrs")

    def __init__(self, name: str, category: str, parent: str,
                 t0_sim: Optional[float], t0_wall: float,
                 attrs: Tuple[Tuple[str, Any], ...]) -> None:
        self.name = name
        self.category = category
        self.parent = parent
        self.t0_sim = t0_sim
        self.t0_wall = t0_wall
        self.attrs = attrs


def _sorted_attrs(attrs: dict) -> Tuple[Tuple[str, Any], ...]:
    return tuple(sorted(attrs.items()))


class Tracer:
    """Span factory bound to one :class:`SpanSink`.

    Three emission styles:

    * :meth:`span` — a context manager for lifecycle phases
      (``with tracer.span("cluster.run", sim=kernel, category="model"):``);
    * :meth:`begin`/:meth:`end` — the explicit form the kernel uses
      around its drain loop;
    * :meth:`emit` — a *completed* interval recorded after the fact
      (``tracer.emit("cluster.request", t_arrive, t_finish, server=3)``),
      the form model callbacks use: it needs no open-span state, so it
      replays identically after a checkpoint restore.

    The open-span stack provides parent names for nesting.  It is
    deliberately **not** checkpointed: lifecycle spans bracket the
    restore itself, so their nesting cannot be rewound — only completed
    ("sim"-category) spans participate in crash+resume equivalence.
    """

    __slots__ = ("sink", "_stack", "_wall")

    def __init__(self, sink: Optional[SpanSink] = None,
                 capacity: int = DEFAULT_SPAN_CAPACITY,
                 wall_clock=_time.perf_counter) -> None:
        self.sink = sink if sink is not None else SpanSink(capacity)
        self._stack: List[_OpenSpan] = []
        self._wall = wall_clock

    def current_parent(self) -> str:
        """Name of the innermost open span ("" at top level)."""
        return self._stack[-1].name if self._stack else ""

    def begin(self, name: str, *, sim_time: Optional[float] = None,
              category: str = "lifecycle", **attrs: Any) -> _OpenSpan:
        span = _OpenSpan(name, category, self.current_parent(),
                         sim_time, self._wall(), _sorted_attrs(attrs))
        self._stack.append(span)
        return span

    def end(self, span: _OpenSpan, *, sim_time: Optional[float] = None,
            status: str = "ok", **attrs: Any) -> SpanRecord:
        # Remove from wherever it sits; normally the top, but an
        # exception tearing down nested begin()s out of order must not
        # corrupt the stack.
        for i in range(len(self._stack) - 1, -1, -1):
            if self._stack[i] is span:
                del self._stack[i]
                break
        merged = span.attrs + _sorted_attrs(attrs) if attrs else span.attrs
        record = SpanRecord(
            name=span.name, category=span.category, parent=span.parent,
            t0_sim=span.t0_sim, t1_sim=sim_time,
            t0_wall=span.t0_wall, t1_wall=self._wall(),
            status=status, attrs=merged,
        )
        self.sink.emit(record)
        return record

    @contextmanager
    def span(self, name: str, *, sim: Any = None,
             category: str = "lifecycle", **attrs: Any) -> Iterator[_OpenSpan]:
        """Context manager over an interval; ``sim`` supplies sim-time."""
        t0 = sim.now if sim is not None else None
        handle = self.begin(name, sim_time=t0, category=category, **attrs)
        try:
            yield handle
        except BaseException:
            self.end(handle, sim_time=(sim.now if sim is not None else None),
                     status="error")
            raise
        self.end(handle, sim_time=(sim.now if sim is not None else None))

    def emit(self, name: str, t0_sim: Optional[float],
             t1_sim: Optional[float], *, category: str = "sim",
             status: str = "ok", **attrs: Any) -> SpanRecord:
        """Record an already-completed interval (the model-callback form)."""
        wall = self._wall()
        record = SpanRecord(
            name=name, category=category, parent=self.current_parent(),
            t0_sim=t0_sim, t1_sim=t1_sim, t0_wall=wall, t1_wall=wall,
            status=status, attrs=_sorted_attrs(attrs),
        )
        self.sink.emit(record)
        return record


def attach_tracer(sim: Any, tracer: Optional[Tracer] = None,
                  capacity: int = DEFAULT_SPAN_CAPACITY) -> Tracer:
    """Attach a tracer to one simulator's registry and checkpoint chain.

    Refuses a simulator on the shared NULL registry: setting ``tracer``
    there would silently enable tracing for every uninstrumented
    simulator in the process.  Construct the sim with a private registry
    (``Simulator(metrics=MetricsRegistry())``) or enable a session.
    """
    from repro.core.instrument import NULL_REGISTRY

    if sim.metrics is NULL_REGISTRY:
        raise ValueError(
            "cannot attach a tracer to the shared NULL registry; "
            "pass the simulator a private MetricsRegistry or enable a session"
        )
    if tracer is None:
        tracer = Tracer(capacity=capacity)
    sim.metrics.tracer = tracer
    sim.register_checkpointable(tracer.sink)
    return tracer


def maybe_span(tracer: Optional[Tracer], name: str, *, sim: Any = None,
               category: str = "model", **attrs: Any):
    """``tracer.span(...)`` or an inert context when tracing is off.

    The pattern model run() wrappers use::

        with maybe_span(getattr(kernel.metrics, "tracer", None),
                        "cluster.run", sim=kernel, requests=n):
            kernel.run()
    """
    if tracer is None:
        from contextlib import nullcontext
        return nullcontext()
    return tracer.span(name, sim=sim, category=category, **attrs)


def canonical_spans(
    records: Iterable[SpanRecord],
    categories: Optional[Iterable[str]] = None,
) -> List[tuple]:
    """Canonical (wall-clock-free) tuples, optionally category-filtered."""
    cats = set(categories) if categories is not None else None
    return [
        r.canonical() for r in records
        if cats is None or r.category in cats
    ]


def span_stream_digest(
    records: Iterable[SpanRecord],
    categories: Optional[Iterable[str]] = None,
) -> str:
    """sha256 over the canonical span stream — the golden-trace pin.

    One line per span, fields joined with ``|``; attrs rendered with
    ``repr`` so floats round-trip exactly.
    """
    h = hashlib.sha256()
    for c in canonical_spans(records, categories):
        name, category, parent, t0, t1, status, attrs = c
        attr_text = ",".join(f"{k}={v!r}" for k, v in attrs)
        h.update(f"{name}|{category}|{parent}|{t0}|{t1}|{status}|{attr_text}\n"
                 .encode())
    return h.hexdigest()
