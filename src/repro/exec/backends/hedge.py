"""HedgedRunner: one backend, plus a duplicate for any straggling job.

The paper's tail-at-scale remedy (E07) applied to a live backend.  The
wrapper is itself a :class:`~repro.exec.runners.Runner`, so the serve
dispatcher or the :class:`~repro.exec.engine.ExecutionEngine` drives it
unmodified.  Its one setting is the hedge delay:

* a job still running ``delay_s`` after submission gets one duplicate,
  submitted under ``<id>~~h1`` — but only while the backend has free
  capacity, so a hedge never displaces a first attempt;
* the first result to arrive (primary or hedge, success or failure)
  wins and is delivered under the real job id;
* the loser is cancelled on the backend (best effort); if its result
  arrives anyway, it finds no job waiting and is dropped.

The ``exec.router.hedge_launched`` and ``exec.router.hedge_won``
counters count duplicates and their wins, on the registry the wrapper
is given (``repro serve`` passes its app registry, which ``/metrics``
exports) or else on the session registry.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Mapping, Optional

from ...core.instrument import MetricsRegistry, default_registry
from ..job import Job
from ..runners import Attempt, Runner

__all__ = ["HedgedRunner"]

#: Suffix of a hedge's submission id.  It travels only through the
#: backend (queues, worker frames); callers only see real ids.
HEDGE_SUFFIX = "~~h1"


@dataclass
class _Flight:
    """One submitted job: what a hedge needs to resubmit it."""

    job: Job
    config: Optional[Mapping[str, Any]]
    timeout_s: Optional[float]
    extras: Dict[str, Any]
    submitted: float
    hedged: bool = False


class HedgedRunner:
    """Wrap one backend; duplicate jobs that outlive ``delay_s``."""

    def __init__(self, backend: Runner, delay_s: float,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        if not (math.isfinite(delay_s) and delay_s >= 0):
            raise ValueError(
                f"hedge delay must be a finite number >= 0, got {delay_s!r}"
            )
        self.backend = backend
        self.name = getattr(backend, "name", type(backend).__name__)
        self.delay_s = delay_s
        self._metrics = metrics
        self._flights: Dict[str, _Flight] = {}
        self.hedges_launched = 0
        self.hedges_won = 0

    def capacity(self) -> int:
        return self.backend.capacity()

    def active(self) -> int:
        return self.backend.active()

    def submit(
        self,
        job: Job,
        config: Optional[Mapping[str, Any]],
        timeout_s: Optional[float],
        **extras: Any,
    ) -> None:
        self.backend.submit(job, config, timeout_s, **extras)
        self._flights[job.id] = _Flight(
            job, config, timeout_s, extras, time.perf_counter()
        )

    def poll(self) -> List[Attempt]:
        done: List[Attempt] = []
        for attempt in self.backend.poll():
            sub_id = attempt.job_id
            is_hedge = sub_id.endswith(HEDGE_SUFFIX)
            real_id = sub_id[: -len(HEDGE_SUFFIX)] if is_hedge else sub_id
            flight = self._flights.pop(real_id, None)
            if flight is None:  # a loser that outran its cancel
                continue
            if flight.hedged:
                self._cancel(real_id if is_hedge else real_id + HEDGE_SUFFIX)
                if is_hedge:
                    self.hedges_won += 1
                    self._count("hedge_won")
            done.append(replace(attempt, job_id=real_id))
        self._launch_hedges()
        return done

    def _launch_hedges(self) -> None:
        deadline = time.perf_counter() - self.delay_s
        for real_id, flight in self._flights.items():
            if flight.hedged or flight.submitted > deadline:
                continue
            if self.backend.capacity() <= 0:
                return
            flight.hedged = True
            try:
                self.backend.submit(
                    replace(flight.job, id=real_id + HEDGE_SUFFIX),
                    flight.config, flight.timeout_s, **flight.extras,
                )
            except RuntimeError:
                # The backend refused the duplicate, e.g. a cancelled
                # hedge under the same id still runs on a socket worker
                # that finishes it cooperatively.  The primary runs on.
                continue
            self.hedges_launched += 1
            self._count("hedge_launched")

    def _count(self, name: str) -> None:
        registry = (self._metrics if self._metrics is not None
                    else default_registry())
        registry.counter(f"exec.router.{name}").inc()

    def _cancel(self, sub_id: str) -> None:
        cancel = getattr(self.backend, "cancel", None)
        if callable(cancel):
            cancel(sub_id)

    def shutdown(self) -> None:
        self.backend.shutdown()
        self._flights.clear()
