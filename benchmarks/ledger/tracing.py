"""Spans for the ledger's traced run, recorded from outside the program.

A :class:`Tracer` keeps finished spans in memory.  Each span has a
name, a start and end (``time.perf_counter`` seconds), the id of the
span that was open when it began, and a trace id shared by every span
of one round or request.  Calls that happen once per round or per
replay get a span each.  Calls made per simulated event
(``Cache.access``, ``Simulator.schedule_at``) would make the trace as
large as the workload, so they are folded into one *aggregate* child
per parent span that holds a call count and the summed time.

:class:`Wrappers` installs the tracer around public entry points of
``repro``, by replacing class or module attributes, and puts back the
exact original objects on :meth:`Wrappers.remove`.  Nothing under
``src/`` knows it is being traced.

:func:`self_times` turns an exported span list into self times: a
span's duration minus the part of it that its children cover.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

_perf = time.perf_counter

#: Span name -> layer.  A span name's prefix is its layer, except the
#: round/request roots, whose self time is "unattributed".
ROOT_NAMES = ("round", "serve.request")

#: Fields of ``Simulator.fastpath_stats`` read around ``Simulator.run``.
FASTPATH_FIELDS = (
    "batches", "batched_events", "traces_installed", "aborts", "deopts",
    "declines",
)


def layer_of(name: str) -> str:
    if name in ROOT_NAMES:
        return "unattributed"
    return name.split(".", 1)[0]


class Span:
    __slots__ = ("id", "name", "trace", "parent", "start", "end", "attrs",
                 "aggs")

    def __init__(self, sid: int, name: str, trace: Optional[str],
                 parent: Optional[int], start: float,
                 attrs: Dict[str, Any]) -> None:
        self.id = sid
        self.name = name
        self.trace = trace
        self.parent = parent
        self.start = start
        self.end = start
        self.attrs = attrs
        #: Aggregate children: name -> [calls, total_s, first_start, last_end].
        self.aggs: Dict[str, List[float]] = {}


class Tracer:
    """In-memory span recorder; one open-span stack per thread.

    ``first_id`` lets a tracer in another process number its spans
    apart from this one's, so the two span lists can be joined.
    """

    def __init__(self, first_id: int = 1) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()
        self._ids = itertools.count(first_id)

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, trace: Optional[str] = None,
             **attrs: Any) -> Iterator[Span]:
        """Record one span around the ``with`` body.

        ``trace`` starts a new trace id; otherwise the span joins the
        trace of the span it runs inside.
        """
        stack = self._stack()
        parent = stack[-1] if stack else None
        if trace is None and parent is not None:
            trace = parent.trace
        sp = Span(next(self._ids), name, trace,
                  parent.id if parent is not None else None, _perf(), attrs)
        stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = _perf()
            stack.pop()
            self.spans.append(sp)

    def coarse(self, name: str, fn: Callable,
               attrs: Optional[Callable[..., Dict[str, Any]]] = None,
               ) -> Callable:
        """Wrap ``fn`` so every call records one span.

        ``attrs``, if given, is called with the call's arguments and
        returns the span's attributes.
        """
        span = self.span

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with span(name, **(attrs(*args, **kwargs) if attrs else {})):
                return fn(*args, **kwargs)

        return wrapper

    def drained(self, name: str, fn: Callable) -> Callable:
        """Wrap a generator function: drain it inside one span.

        The caller gets an iterator over the already-produced items, so
        the time spent producing them lands in the span rather than
        being spread over the caller's loop.
        """
        span = self.span

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Iterator[Any]:
            with span(name):
                items = list(fn(*args, **kwargs))
            return iter(items)

        return wrapper

    def aggregate(self, name: str, fn: Callable) -> Callable:
        """Wrap a per-event ``fn``: count and time it into the open span."""
        local = self._local

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            t0 = _perf()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = _perf()
                stack = getattr(local, "stack", None)
                if stack:
                    aggs = stack[-1].aggs
                    agg = aggs.get(name)
                    if agg is None:
                        aggs[name] = [1, t1 - t0, t0, t1]
                    else:
                        agg[0] += 1
                        agg[1] += t1 - t0
                        agg[3] = t1

        return wrapper

    def sim_run(self, fn: Callable) -> Callable:
        """Wrap ``Simulator.run``: one span carrying the kernel counters
        (``sim.stats`` and ``sim.fastpath_stats``) the call added."""
        span = self.span

        @functools.wraps(fn)
        def run(sim: Any, *args: Any, **kwargs: Any) -> Any:
            fp = sim.fastpath_stats
            before = [getattr(fp, f) for f in FASTPATH_FIELDS]
            executed = sim.stats.events_executed
            with span("core.run") as sp:
                try:
                    return fn(sim, *args, **kwargs)
                finally:
                    sp.attrs["events"] = sim.stats.events_executed - executed
                    for field, b in zip(FASTPATH_FIELDS, before):
                        sp.attrs[field] = getattr(fp, field) - b

        return run

    def export(self) -> List[Dict[str, Any]]:
        """Spans as plain dicts, aggregates as children with
        ``calls``/``total_s``, ordered by start time."""
        out: List[Dict[str, Any]] = []
        ids = itertools.count(max((s.id for s in self.spans), default=0) + 1)
        for sp in self.spans:
            out.append({
                "id": sp.id, "name": sp.name, "trace": sp.trace,
                "parent": sp.parent, "start": sp.start, "end": sp.end,
                **({"attrs": sp.attrs} if sp.attrs else {}),
            })
            for name, (calls, total, first, last) in sp.aggs.items():
                out.append({
                    "id": next(ids), "name": name, "trace": sp.trace,
                    "parent": sp.id, "start": first, "end": last,
                    "calls": int(calls), "total_s": total,
                })
        out.sort(key=lambda s: (s["start"], s["id"]))
        return out


def duration(span: Dict[str, Any]) -> float:
    """Time a span accounts for: its summed call time if aggregate."""
    if "total_s" in span:
        return span["total_s"]
    return span["end"] - span["start"]


def self_times(spans: List[Dict[str, Any]]) -> Dict[int, float]:
    """Span id -> self time (duration minus what its children cover).

    Interval children cover the union of their intervals clipped to the
    parent; an aggregate child covers its summed call time.
    """
    children: Dict[int, List[Dict[str, Any]]] = {}
    for sp in spans:
        if sp.get("parent") is not None:
            children.setdefault(sp["parent"], []).append(sp)
    out: Dict[int, float] = {}
    for sp in spans:
        covered = 0.0
        intervals: List[Tuple[float, float]] = []
        for child in children.get(sp["id"], ()):
            if "total_s" in child:
                covered += child["total_s"]
            else:
                lo = max(child["start"], sp["start"])
                hi = min(child["end"], sp["end"])
                if hi > lo:
                    intervals.append((lo, hi))
        intervals.sort()
        cur_lo: Optional[float] = None
        cur_hi = 0.0
        for lo, hi in intervals:
            if cur_lo is None or lo > cur_hi:
                if cur_lo is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_lo is not None:
            covered += cur_hi - cur_lo
        out[sp["id"]] = duration(sp) - covered
    return out


# -- wrappers around public entry points ---------------------------------

#: (module, class or None for a module attribute, attribute, span name,
#: wrapper kind).  Kinds: "coarse" one span per call, "drained" a
#: generator drained in one span, "aggregate" per-event call folded
#: into its parent, "sim_run" a span with kernel counters.
TARGETS: Tuple[Tuple[str, Optional[str], str, str, str], ...] = (
    ("repro.traces.format", "TraceReader", "blocks", "traces.decode",
     "drained"),
    ("repro.traces.stats", "IntervalStats", "feed", "traces.stats",
     "coarse"),
    ("repro.traces.stats", "IntervalStats", "finish", "traces.stats",
     "coarse"),
    ("repro.traces", None, "replay", "traces.replay", "coarse"),
    ("repro.core.events", "Simulator", "schedule_batch",
     "core.schedule_batch", "coarse"),
    ("repro.core.events", "Simulator", "schedule_at", "core.schedule_at",
     "aggregate"),
    ("repro.core.events", "Simulator", "run", "core.run", "sim_run"),
    ("repro.memory.cache", "Cache", "access", "memory.access", "aggregate"),
    ("repro.interconnect.noc", "MeshNoC", "run", "interconnect.noc_run",
     "coarse"),
    ("repro.exec.cache", "ResultCache", "get", "exec.cache_get", "coarse"),
    ("repro.exec.cache", "ResultCache", "put", "exec.cache_put", "coarse"),
)


def targets_for(layers: Tuple[str, ...]) -> Tuple[Tuple[str, Optional[str],
                                                          str, str, str],
                                                    ...]:
    """The wrapper targets whose span names belong to ``layers``."""
    return tuple(t for t in TARGETS if layer_of(t[3]) in layers)


def _owner(module: str, cls: Optional[str]) -> Any:
    mod = importlib.import_module(module)
    return getattr(mod, cls) if cls is not None else mod


class Wrappers:
    """Install tracer wrappers; :meth:`remove` restores the originals.

    Only attributes defined directly on the owner are replaced, and the
    exact original object is put back, so a run after :meth:`remove`
    executes the unmodified program.  ``attrs`` maps the span name of a
    "coarse" target to its :meth:`Tracer.coarse` attribute function.
    """

    def __init__(self, tracer: Tracer,
                 targets: Tuple[Tuple[str, Optional[str], str, str, str],
                                ...] = TARGETS,
                 attrs: Optional[Dict[str, Callable[..., Dict[str, Any]]]]
                 = None) -> None:
        self.tracer = tracer
        self.targets = targets
        self.attrs = attrs or {}
        self._saved: List[Tuple[Any, str, Any]] = []

    def install(self) -> "Wrappers":
        if self._saved:
            raise RuntimeError("wrappers already installed")
        try:
            for module, cls, attr, name, kind in self.targets:
                owner = _owner(module, cls)
                original = vars(owner)[attr]
                if kind == "sim_run":
                    wrapped = self.tracer.sim_run(original)
                elif kind == "coarse":
                    wrapped = self.tracer.coarse(name, original,
                                                 self.attrs.get(name))
                else:
                    wrapped = getattr(self.tracer, kind)(name, original)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, wrapped)
        except BaseException:
            self.remove()
            raise
        return self

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Wrappers":
        return self.install()

    def __exit__(self, *exc_info: object) -> None:
        self.remove()
