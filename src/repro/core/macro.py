"""Macro-events: batch execution of bulk-loaded event trains.

A *macro-event* is a contiguous span of pending events that share one
handler, executed as a single operation instead of one kernel dispatch
per event.  A span exists only where a model declares it: bulk-loading
a train via :meth:`Simulator.schedule_many` / :meth:`Simulator.
schedule_batch` into the sorted in-order lane, with a callback that
carries a *batch implementation* the handler author attached with
:func:`as_macro`.  The drain hands the whole span to that twin.
Events scheduled one at a time never batch, whatever their callback::

    def arrive(sim, i):            # scalar handler, the semantic truth
        ...
    def arrive_batch(sim, run):    # batch twin: consume a MacroRun
        for t, i in run:
            ...
        return len(run)
    as_macro(arrive, arrive_batch)

Contract for batch implementations
----------------------------------
The batch twin must be **observationally identical** to calling the
scalar handler once per consumed entry, in order.  Specifically:

* Consume entries front-to-back and return how many were consumed
  (``None`` means "all of them").  Partial consumption is the *hazard
  horizon* mechanism: stop before the first entry whose outcome could
  be affected by something the batch itself did — typically an event it
  scheduled whose timestamp does not exceed the next entry's (the
  kernel re-interleaves and retries after the intervening event runs).
  Ties are safe to consume: run entries carry older sequence numbers
  than anything scheduled during the batch, so at equal timestamps the
  run entry executes first in scalar order too.
* ``sim.now`` is **stale** inside the batch (the kernel commits the
  clock after the batch returns).  Read per-entry times from the run
  and use absolute scheduling (``sim.schedule_at``), never
  relative-delay scheduling against ``sim.now``.
* Scheduling new events is allowed; attaching observers (probes,
  tracers), ``snapshot()``/``restore()``, and cancelling entries inside
  the run are not.
* Be atomic or be exact: return ``k`` only after the side effects of
  exactly the first ``k`` entries are applied.  An exception must leave
  **zero** entries' side effects applied — the kernel treats a raising
  batch as having consumed nothing and re-raises.
* Return ``0`` to decline (e.g. an attached model-level tracer needs
  per-event hooks); the kernel counts a decline, falls back to the
  general path and backs off before retrying.

Span entries are non-cancellable (bulk loads create no tokens).  The
kernel never offers a batch a span crossing an out-of-order (heap)
event or a ``run(until=)`` horizon, or any span at all while kernel
observers (probes, span tracer, armed fault injector) are active —
those guards live in ``events.py``, not here.

Vectorization: :meth:`MacroRun.times_array` returns the span's
timestamps as a numpy array when numpy is importable, falling back to a
plain list otherwise, so batch twins can be written numpy-vectorized
with a pure-python scalar fallback and still run on minimal installs.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, List, Tuple

try:  # numpy is optional at this layer: scalar fallback below
    import numpy as _np
except ImportError:  # pragma: no cover - exercised on minimal installs
    _np = None

__all__ = ["MacroRun", "as_macro"]

#: Attribute under which :func:`as_macro` stores the batch twin.  Bound
#: methods proxy attribute reads to their function, so a batch attached
#: to a plain function is found through any closure or direct reference.
MACRO_ATTR = "__macro_batch__"


class MacroRun:
    """Read-only view of one declared span of pending lane entries.

    Iterating yields ``(time, payload)`` pairs in execution order.  The
    view aliases the kernel's live lane — it is only valid for the
    duration of the batch call that received it.
    """

    __slots__ = ("_lane", "_start", "_stop")

    def __init__(self, lane: list, start: int, stop: int) -> None:
        self._lane = lane
        self._start = start
        self._stop = stop

    def __len__(self) -> int:
        return self._stop - self._start

    def __iter__(self) -> Iterator[Tuple[float, Any]]:
        lane = self._lane
        for i in range(self._start, self._stop):
            entry = lane[i]
            yield entry[0], entry[4]

    def __getitem__(self, i: int) -> Tuple[float, Any]:
        if not 0 <= i < self._stop - self._start:
            raise IndexError(i)
        entry = self._lane[self._start + i]
        return entry[0], entry[4]

    def times(self) -> List[float]:
        """The span's timestamps, oldest first, as a plain list."""
        return [e[0] for e in self._lane[self._start:self._stop]]

    def times_array(self):
        """Timestamps as ``numpy.ndarray`` (list fallback without numpy)."""
        times = self.times()
        if _np is not None:
            return _np.asarray(times)
        return times

    def payloads(self) -> List[Any]:
        """The span's payloads, in execution order."""
        return [e[4] for e in self._lane[self._start:self._stop]]


def as_macro(
    scalar: Callable[..., Any], batch: Callable[..., Any]
) -> Callable[..., Any]:
    """Attach ``batch(sim, run) -> consumed`` as the macro twin of the
    scalar event handler ``scalar``; returns ``scalar`` for chaining.

    See the module docstring for the equivalence contract the batch
    implementation must honor.
    """
    setattr(scalar, MACRO_ATTR, batch)
    return scalar
