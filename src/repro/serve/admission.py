"""Admission control: a bounded queue in front of the backend.

The service's overload answer is the paper's own: under saturation,
protect the tail of the work you *did* admit by shedding the work you
cannot serve, loudly and cheaply, instead of queueing without bound
until every response is late.  Concretely:

* at most ``max_queue`` design points may wait for a backend slot;
* at most ``max_inflight`` may execute at once (the dispatcher asks
  :meth:`AdmissionController.next_ready` only when it also has backend
  capacity, so the effective limit is ``min(max_inflight, backend)``);
* a submission that finds the queue full is *shed*: the server turns
  :class:`QueueFull` into ``429 Too Many Requests`` with a
  ``Retry-After`` hint scaled by the current backlog.

Coalesced duplicates and cache fast-path hits never enter the queue —
they add no backend work, so shedding them would be pure waste; only
*new* design points are admitted (that asymmetry is what makes the
duplicate-heavy phase of the load benchmark survive far beyond the
backend's raw capacity).

Everything is guarded by one lock: submissions arrive on the server's
event-loop thread while dispatch/release happen on the dispatcher
thread; an idle dispatcher waits on ``wakeup``, a condition on it.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Deque, Optional

from ..core.instrument import MetricsRegistry, default_registry

__all__ = ["AdmissionController", "QueueFull"]


class QueueFull(Exception):
    """Raised at submission when the admission queue is saturated."""

    def __init__(self, depth: int, retry_after_s: float) -> None:
        super().__init__(
            f"admission queue full ({depth} waiting); "
            f"retry after {retry_after_s:.1f}s"
        )
        self.depth = depth
        self.retry_after_s = retry_after_s


class AdmissionController:
    """Bounded FIFO queue + in-flight limit with shed accounting."""

    def __init__(
        self,
        max_queue: int = 128,
        max_inflight: int = 4,
        retry_after_s: float = 1.0,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        if max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if retry_after_s <= 0:
            raise ValueError("retry_after_s must be positive")
        self.max_queue = max_queue
        self.max_inflight = max_inflight
        self.retry_after_s = retry_after_s
        self._metrics = metrics
        self._lock = threading.Lock()
        #: Notified on every admission (and by the dispatcher's stop).
        self.wakeup = threading.Condition(self._lock)
        self._queue: Deque[Any] = deque()
        self._inflight = 0
        self.admitted = 0
        self.shed = 0

    def _registry(self) -> MetricsRegistry:
        return self._metrics if self._metrics is not None else default_registry()

    # -- submission side (event-loop thread) -------------------------------

    def try_admit(self, entry: Any) -> None:
        """Enqueue a new design point or raise :class:`QueueFull`.

        The ``Retry-After`` hint grows with the backlog: a client that
        hit a momentarily-full queue is told to come back after one
        ``retry_after_s``; one that hit a deep pile-up is told to back
        off proportionally longer.
        """
        registry = self._registry()
        with self._lock:
            depth = len(self._queue)
            if depth >= self.max_queue:
                self.shed += 1
                registry.counter("serve.shed").inc()
                backlog = depth + self._inflight
                raise QueueFull(
                    depth,
                    self.retry_after_s
                    * max(1.0, backlog / max(1, self.max_inflight)),
                )
            self._queue.append(entry)
            self.admitted += 1
            registry.counter("serve.admitted").inc()
            registry.gauge("serve.queue_depth").set(len(self._queue))
            self.wakeup.notify_all()

    # -- dispatch side (dispatcher thread) ---------------------------------

    def next_ready(self) -> Optional[Any]:
        """Pop the oldest queued entry.

        Returns ``None`` when the queue is empty or ``max_inflight`` is
        saturated.  A returned entry counts as in flight until
        :meth:`release`.
        """
        registry = self._registry()
        with self._lock:
            if self._inflight >= self.max_inflight or not self._queue:
                return None
            entry = self._queue.popleft()
            self._inflight += 1
            registry.gauge("serve.queue_depth").set(len(self._queue))
            registry.gauge("serve.inflight").set(self._inflight)
            return entry

    def release(self) -> None:
        """A dispatched entry finished; free its in-flight slot."""
        with self._lock:
            self._inflight = max(0, self._inflight - 1)
            self._registry().gauge("serve.inflight").set(self._inflight)

    # -- introspection -----------------------------------------------------

    def depth(self) -> int:
        with self._lock:
            return len(self._queue)

    def inflight(self) -> int:
        with self._lock:
            return self._inflight

    def idle(self) -> bool:
        """No queued and no in-flight work (the drain condition)."""
        with self._lock:
            return not self._queue and self._inflight == 0
