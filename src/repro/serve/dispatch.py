"""The dispatcher: a long-lived pump from admission to a backend.

A background thread owns the execution backend (anything
:func:`repro.exec.backends.make_backend` returns — serial, pool,
elastic socket workers, array, or a
:class:`~repro.exec.backends.router.BackendRouter`) and runs the
service's steady-state loop:

* while the backend has capacity, pop queued entries from
  admission and ``submit`` them as engine :class:`~repro.exec.job.Job`
  attempts (job id = design id, unique among in-flight work by
  coalescer construction);
* ``poll`` finished attempts and hand each to the coalescer, which
  caches the result and fans it out to every waiter;
* release the admission slot;
* after a pass that did nothing, wait for the next admission — at most
  ``poll_interval_s`` while attempts run or entries wait for capacity,
  since backends report progress only when polled.

This is deliberately the engine's own Runner seam rather than repeated
:meth:`ExecutionEngine.run` calls: the engine tears its runner down
after every graph, while a service needs one warm backend (socket
workers stay attached, pool stays spawned) across an unbounded request
stream.  Retry policy is admission's client-visible contract instead —
a failed attempt is a failed run the client can resubmit.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Optional

from ..core.instrument import MetricsRegistry, default_registry
from ..exec.job import Job
from ..exec.runners import ATTEMPT_OK, Runner
from .admission import AdmissionController
from .coalesce import Coalescer, Entry

__all__ = ["Dispatcher"]


class Dispatcher:
    """Background pump: admission queue -> backend -> coalescer fan-out."""

    def __init__(
        self,
        runner: Runner,
        admission: AdmissionController,
        coalescer: Coalescer,
        timeout_s: Optional[float] = None,
        poll_interval_s: float = 0.002,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.runner = runner
        self.admission = admission
        self.coalescer = coalescer
        self.timeout_s = timeout_s
        self.poll_interval_s = poll_interval_s
        self._metrics = metrics
        self._inflight: Dict[str, Entry] = {}
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self.dispatched = 0

    def _registry(self) -> MetricsRegistry:
        return self._metrics if self._metrics is not None else default_registry()

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        if self._thread is not None:
            raise RuntimeError("dispatcher already started")
        self._thread = threading.Thread(
            target=self._loop, name="repro-serve-dispatch", daemon=True
        )
        self._thread.start()

    def stop(self, drain: bool = True, timeout_s: float = 30.0) -> bool:
        """Stop the pump; with ``drain`` wait for queued+in-flight work.

        Returns ``True`` when everything finished before ``timeout_s``.
        The backend is shut down either way — on a drained stop no work
        is lost; on a timed-out one the remaining attempts die with the
        backend and their waiters see failed runs.
        """
        deadline = time.monotonic() + timeout_s
        drained = True
        if drain:
            while not (self.admission.idle() and not self._inflight):
                if time.monotonic() >= deadline:
                    drained = False
                    break
                time.sleep(self.poll_interval_s)
        with self.admission.wakeup:
            self._stop.set()
            self.admission.wakeup.notify_all()
        if self._thread is not None:
            self._thread.join(timeout=max(0.1, deadline - time.monotonic()))
        # Fail any attempts the backend never returned.
        leftovers = list(self._inflight.values())
        self._inflight.clear()
        for entry in leftovers:
            self.admission.release()
            self.coalescer.complete(
                entry, ok=False, error="server shut down before completion"
            )
            drained = False
        self.runner.shutdown()
        return drained

    def idle(self) -> bool:
        return self.admission.idle() and not self._inflight

    # -- the pump ----------------------------------------------------------

    def _loop(self) -> None:
        registry = self._registry()
        while not self._stop.is_set():
            # Read before the pass, so an admission during it is not
            # slept through.  Never wake on "queue non-empty": that
            # spins while the backend is full.
            seen = self.admission.admitted
            progressed = False
            while self.runner.capacity() > 0:
                entry = self.admission.next_ready()
                if entry is None:
                    break
                self._dispatch(entry, registry)
                progressed = True
            for attempt in self.runner.poll():
                entry = self._inflight.pop(attempt.job_id, None)
                if entry is None:
                    continue
                self.admission.release()
                self.coalescer.complete(
                    entry,
                    ok=attempt.status == ATTEMPT_OK,
                    result=attempt.result,
                    error=attempt.error,
                    duration_s=attempt.duration_s,
                )
                progressed = True
            if not progressed:
                busy = self._inflight or self.admission.depth()
                with self.admission.wakeup:
                    self.admission.wakeup.wait_for(
                        lambda: self.admission.admitted != seen
                        or self._stop.is_set(),
                        self.poll_interval_s if busy else None,
                    )

    def _dispatch(self, entry: Entry, registry: MetricsRegistry) -> None:
        self.coalescer.mark_running(entry)
        job = Job(id=entry.design_id, fn=entry.point.fn)
        # Counted at hand-off: a serial runner executes inside submit, and
        # a mid-flight scrape should already see the dispatch.
        self.dispatched += 1
        registry.counter("serve.dispatched").inc()
        try:
            self.runner.submit(job, entry.point.config, self.timeout_s)
        except Exception as exc:  # submission failure = failed run, not a crash
            self.admission.release()
            self.coalescer.complete(
                entry, ok=False,
                error=f"submit failed: {type(exc).__name__}: {exc}",
            )
            return
        self._inflight[entry.design_id] = entry
