"""Execution runners: the engine's backend protocol and the serial runner.

The engine (:mod:`repro.exec.engine`) owns scheduling, caching, and
retry policy; a runner only executes *attempts*.  The protocol is
deliberately poll-based — ``submit`` starts work, ``poll`` reaps
finished :class:`Attempt` records — so the engine can multiplex cache
hits and retry backoff over any backend.

:class:`SerialRunner` runs jobs in-process, one at a time.  It is the
zero-dependency fallback and the only runner that can execute
closures/lambdas.  It cannot interrupt a running job, so timeouts are
enforced *post hoc*: a job that ran past its deadline is classified
``timeout`` after the fact.  Jobs that must be contained run on worker
processes instead — the ``pool`` backend
(:class:`repro.exec.backends.socket_worker.PoolBackend`): a job that
raises reports ``error``; one that kills its worker is reported
``crash`` with the worker's exit code as soon as the connection drops;
one that runs past its deadline, or whose heartbeats (see
:func:`repro.exec.heartbeat.heartbeat`) go silent for longer than
``hang_timeout_s`` after its first beat, has its worker killed and is
reported ``timeout`` or ``hung``.  Jobs that never beat keep plain
wall-clock timeout semantics, so the watchdog is opt-in per job
function.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, List, Mapping, Optional, Protocol, runtime_checkable

from .heartbeat import clear_emitter, install_emitter
from .job import Job, invoke

__all__ = ["Attempt", "Runner", "SerialRunner"]

#: Attempt status values handed back by runners.  The engine maps these
#: to final job statuses after retry policy is applied.
ATTEMPT_OK = "ok"
ATTEMPT_ERROR = "error"
ATTEMPT_TIMEOUT = "timeout"
ATTEMPT_CRASH = "crash"
ATTEMPT_HUNG = "hung"


@dataclass
class Attempt:
    """Outcome of one execution attempt of one job."""

    job_id: str
    status: str
    result: Any = None
    error: Optional[str] = None
    duration_s: float = 0.0
    #: Last heartbeat progress value the attempt reported (None if the
    #: job never beat).  The engine's lost-progress retry accounting
    #: keys off this.
    progress: Optional[float] = None
    #: Number of heartbeats received from this attempt.
    heartbeats: int = 0
    #: Telemetry payload from the worker's ``tel`` frame (None when
    #: telemetry was not requested or the worker died before sending it).
    telemetry: Optional[dict] = None

    @property
    def ok(self) -> bool:
        return self.status == ATTEMPT_OK


@runtime_checkable
class Runner(Protocol):
    """What the engine needs from an execution backend.

    A backend may also carry a ``name`` (``serial``, ``pool``,
    ``socket``, ``array``), which :class:`~repro.exec.engine.RunReport`
    and the resilience campaign report; a runner without one is named
    after its type.
    """

    def capacity(self) -> int:
        """Free worker slots right now (0 means: do not submit)."""
        ...

    def active(self) -> int:
        """Attempts currently executing."""
        ...

    def submit(
        self,
        job: Job,
        config: Optional[Mapping[str, Any]],
        timeout_s: Optional[float],
        hang_timeout_s: Optional[float] = None,
        telemetry: Optional[Any] = None,
    ) -> None:
        """Begin one attempt.  ``config``/``timeout_s`` are the engine's
        resolved values (seed injected, defaults applied).
        ``hang_timeout_s`` arms the heartbeat watchdog: after the first
        beat, silence longer than this classifies the attempt ``hung``.
        ``telemetry`` (a :class:`repro.obs.telemetry.TelemetryOptions`)
        asks the attempt to capture metrics/spans/profile and attach the
        payload to its :class:`Attempt`.  Backends without preemption
        may ignore ``hang_timeout_s``; both extras are keyword-optional
        so pre-existing runners keep working."""
        ...

    def poll(self) -> List[Attempt]:
        """Reap every attempt that has finished since the last poll."""
        ...

    def shutdown(self) -> None:
        """Stop outstanding work and release resources."""
        ...


class SerialRunner:
    """In-process, one-job-at-a-time backend (and closure-safe fallback)."""

    name = "serial"

    def __init__(self) -> None:
        self._done: List[Attempt] = []

    def capacity(self) -> int:
        return 1

    def active(self) -> int:
        return 0

    def submit(
        self,
        job: Job,
        config: Optional[Mapping[str, Any]],
        timeout_s: Optional[float],
        hang_timeout_s: Optional[float] = None,
        telemetry: Optional[Any] = None,
    ) -> None:
        # In-process jobs cannot be preempted, so hang_timeout_s cannot
        # be enforced; beats are still recorded so progress-aware retry
        # accounting works identically under both backends.
        beats = {"count": 0, "progress": None}

        def _record(progress: float) -> None:
            beats["count"] += 1
            beats["progress"] = progress

        tel_scope = None
        if telemetry is not None:
            # A fresh capture scope per attempt (saving whatever session
            # surrounded it) so the serial execution of a job produces
            # the same span stream as a worker process's.
            from ..obs import telemetry as _obs_telemetry

            tel_scope = _obs_telemetry.begin_worker(telemetry)
        tel_payload = None
        start = time.perf_counter()
        install_emitter(_record)
        try:
            result = invoke(job.fn, config)
            status: str = ATTEMPT_OK
            error: Optional[str] = None
        except Exception as exc:  # fault containment: any job error is data
            result = None
            status = ATTEMPT_ERROR
            error = f"{type(exc).__name__}: {exc}"
        finally:
            clear_emitter()
            if tel_scope is not None:
                tel_payload = tel_scope.finish()
        duration = time.perf_counter() - start
        if timeout_s is not None and duration > timeout_s:
            # In-process code cannot be interrupted; classify after the
            # fact so serial and parallel sweeps agree on semantics.
            status = ATTEMPT_TIMEOUT
            result = None
            error = (
                f"exceeded timeout of {timeout_s}s (ran {duration:.3f}s; "
                "serial runner enforces timeouts post hoc)"
            )
        self._done.append(
            Attempt(
                job.id,
                status,
                result,
                error,
                duration,
                progress=beats["progress"],
                heartbeats=beats["count"],
                telemetry=tel_payload,
            )
        )

    def poll(self) -> List[Attempt]:
        done, self._done = self._done, []
        return done

    def shutdown(self) -> None:
        self._done.clear()
