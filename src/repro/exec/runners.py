"""Execution backends: one protocol, serial and multiprocessing runners.

The engine (:mod:`repro.exec.engine`) owns scheduling, caching, and
retry policy; a runner only executes *attempts*.  The protocol is
deliberately poll-based — ``submit`` starts work, ``poll`` reaps
finished :class:`Attempt` records — so the engine can multiplex cache
hits, retry backoff, and dependency release over any backend.

* :class:`SerialRunner` runs jobs in-process, one at a time.  It is the
  zero-dependency fallback and the only backend that can execute
  closures/lambdas under the ``spawn`` start method.  It cannot
  interrupt a running job, so timeouts are enforced *post hoc*: a job
  that ran past its deadline is classified ``timeout`` after the fact.
* :class:`ProcessPoolRunner` runs each attempt in its own
  ``multiprocessing.Process`` with a result pipe.  This buys real fault
  containment: a worker that raises reports ``error``; a worker that
  segfaults or ``os._exit``-s is detected by its exit code and reported
  as ``crash`` immediately (never waiting out the wall-clock timeout);
  a worker that hangs past the job deadline is terminated and reported
  as ``timeout``.  A bad job can never take down the sweep.

Watchdog heartbeats and telemetry
---------------------------------
The result pipe carries tagged messages: ``("hb", progress)`` beats
emitted by the job via :func:`repro.exec.heartbeat.heartbeat`, an
optional ``("tel", payload)`` telemetry frame (the worker's metrics
registry, span buffer, and profile — see :mod:`repro.obs.telemetry`)
sent just before the terminal message when the engine requested
telemetry, then one ``("res", status, result, error)`` terminal
message.  Once a worker has
emitted at least one beat, silence longer than ``hang_timeout_s``
classifies it as ``hung`` — detected in a fraction of the wall-clock
timeout — and it is killed; the engine then resumes the job from its
last durable checkpoint instead of waiting out the deadline and
restarting from scratch.  Jobs that never beat keep plain wall-clock
timeout semantics, so the watchdog is strictly opt-in per job function.
"""

from __future__ import annotations

import multiprocessing as mp
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Protocol, runtime_checkable

from .heartbeat import clear_emitter, install_emitter
from .job import Job, invoke

__all__ = ["Attempt", "ProcessPoolRunner", "Runner", "SerialRunner"]

#: Attempt status values handed back by runners.  The engine maps these
#: to final job statuses after retry policy is applied.
ATTEMPT_OK = "ok"
ATTEMPT_ERROR = "error"
ATTEMPT_TIMEOUT = "timeout"
ATTEMPT_CRASH = "crash"
ATTEMPT_HUNG = "hung"

#: Pipe message tags (worker -> parent).  The socket backend reuses the
#: same tags inside explicitly versioned frames — see
#: :mod:`repro.exec.backends.frames` for the wire format.
_MSG_HEARTBEAT = "hb"
_MSG_RESULT = "res"
_MSG_TELEMETRY = "tel"
#: Tags the parent's drain loop understands.  A *well-formed* tagged
#: message with an unknown tag is skipped (forward compatibility:
#: newer workers may emit optional frames) and counted under
#: ``exec.frames.unknown_skipped``; malformed garbage still classifies
#: the worker as crashed — fail loud, never wedge the drain loop.
_KNOWN_TAGS = frozenset({_MSG_HEARTBEAT, _MSG_RESULT, _MSG_TELEMETRY})


def _count_unknown_skipped() -> None:
    from ..core.instrument import default_registry

    default_registry().counter("exec.frames.unknown_skipped").inc()


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
    #: Telemetry payload from the worker's ("tel", ...) frame (None when
    #: telemetry was not requested or the worker died before sending it).
    telemetry: Optional[dict] = None
    #: Name of the worker that executed this attempt, for backends that
    #: know one (the socket backend).  Hedging/verification provenance
    #: and quarantine decisions key off this.
    worker: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status == ATTEMPT_OK


@runtime_checkable
class Runner(Protocol):
    """What the engine needs from an execution backend."""

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

    def __init__(self) -> None:
        self._done: List[Attempt] = []

    def capabilities(self):
        from .backends.base import BackendCapabilities

        return BackendCapabilities(
            name="serial",
            max_parallelism=1,
            supports_heartbeat=False,  # beats recorded, not live
            supports_preemption=False,  # timeouts classified post hoc
            locality=("local", "serial"),
            description="in-process, one job at a time; closure-safe",
        )

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
            # the same span stream as a pool worker's pristine process.
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


def _child_main(conn, fn, config, telemetry=None) -> None:
    """Worker entry point: beat via the pipe, then ship the result.

    Installs the heartbeat emitter before invoking the job, so any
    ``heartbeat(progress)`` call inside the job function becomes a
    ``("hb", progress)`` message to the parent.  When the engine
    requested telemetry, a ``("tel", payload)`` frame with the worker's
    captured metrics/spans/profile precedes the terminal
    ``("res", status, result, error)`` message.
    """
    install_emitter(
        lambda progress: conn.send((_MSG_HEARTBEAT, progress))
    )
    tel_scope = None
    if telemetry is not None:
        from ..obs import telemetry as _obs_telemetry

        tel_scope = _obs_telemetry.begin_worker(telemetry)
    try:
        result = invoke(fn, config)
        payload = (_MSG_RESULT, ATTEMPT_OK, result, None)
    except BaseException as exc:  # noqa: BLE001 - must never escape the child
        payload = (_MSG_RESULT, ATTEMPT_ERROR, None, f"{type(exc).__name__}: {exc}")
    if tel_scope is not None:
        try:
            conn.send((_MSG_TELEMETRY, tel_scope.finish()))
        except Exception:  # telemetry must never sink the result
            pass
    try:
        conn.send(payload)
    except Exception as exc:  # unpicklable result: report, don't crash
        try:
            conn.send(
                (
                    _MSG_RESULT,
                    ATTEMPT_ERROR,
                    None,
                    f"result not transferable: {type(exc).__name__}: {exc}",
                )
            )
        except Exception:
            pass
    finally:
        conn.close()


@dataclass
class _Running:
    job: Job
    process: Any
    conn: Any
    started: float
    deadline: Optional[float]
    timeout_s: Optional[float]
    hang_timeout_s: Optional[float] = None
    #: perf_counter of the most recent heartbeat (None until the first).
    last_beat: Optional[float] = None
    beats: int = 0
    progress: Optional[float] = None
    #: Telemetry payload from the worker's ("tel", ...) frame.
    telemetry: Optional[dict] = None


class ProcessPoolRunner:
    """One process per attempt, up to ``max_workers`` concurrently.

    Spawning a fresh process per attempt (rather than reusing a worker
    pool) is what makes containment simple and airtight: terminating a
    hung or crashed attempt never poisons a shared worker, and the
    parent never blocks on a wedged child.  Attempt startup cost is a
    ``fork`` on POSIX — negligible next to any simulation worth
    parallelizing.
    """

    def __init__(self, max_workers: int, start_method: Optional[str] = None) -> None:
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        self.max_workers = max_workers
        self._ctx = mp.get_context(start_method)
        self._running: Dict[str, _Running] = {}
        # Children that reported a result but had not exited when reaped;
        # joined opportunistically so poll() never blocks on a lingerer.
        self._zombies: List[Any] = []

    def capabilities(self):
        from .backends.base import BackendCapabilities

        return BackendCapabilities(
            name="pool",
            max_parallelism=self.max_workers,
            supports_heartbeat=True,
            supports_preemption=True,
            locality=("local", "pool"),
            description=(
                f"one process per attempt, {self.max_workers} concurrent; "
                "crash containment + live watchdog"
            ),
        )

    def capacity(self) -> int:
        return self.max_workers - len(self._running)

    def active(self) -> int:
        return len(self._running)

    def submit(
        self,
        job: Job,
        config: Optional[Mapping[str, Any]],
        timeout_s: Optional[float],
        hang_timeout_s: Optional[float] = None,
        telemetry: Optional[Any] = None,
    ) -> None:
        if job.id in self._running:
            raise RuntimeError(f"job {job.id!r} is already running")
        if self.capacity() <= 0:
            raise RuntimeError("no free worker slots; poll() first")
        parent_conn, child_conn = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=_child_main,
            args=(child_conn, job.fn, config, telemetry),
            name=f"repro-exec-{job.id}",
            daemon=True,
        )
        started = time.perf_counter()
        process.start()
        child_conn.close()  # the parent only reads
        deadline = started + timeout_s if timeout_s is not None else None
        self._running[job.id] = _Running(
            job,
            process,
            parent_conn,
            started,
            deadline,
            timeout_s,
            hang_timeout_s=hang_timeout_s,
        )

    def cancel(self, job_id: str) -> bool:
        """Terminate a running attempt without recording it (hedge loser).

        Returns True when the job was running and its process was
        killed; the attempt simply never appears in ``poll()``.
        """
        run = self._running.pop(job_id, None)
        if run is None:
            return False
        self._kill(run)
        run.conn.close()
        return True

    def _attempt(
        self,
        run: _Running,
        status: str,
        result: Any,
        error: Optional[str],
        now: float,
    ) -> Attempt:
        return Attempt(
            run.job.id,
            status,
            result,
            error,
            now - run.started,
            progress=run.progress,
            heartbeats=run.beats,
            telemetry=run.telemetry,
        )

    def _kill(self, run: _Running) -> None:
        run.process.terminate()
        run.process.join(1.0)
        if run.process.is_alive():  # pragma: no cover - stubborn child
            run.process.kill()
            run.process.join(1.0)

    def _reap(self, run: _Running, now: float) -> Optional[Attempt]:
        # Liveness is sampled *before* draining the pipe: if the worker
        # is already dead here, everything it ever sent is in the pipe,
        # so "drained the pipe and found no result" proves it died
        # without reporting.  (Checking in the other order races against
        # a child that sends its result and exits between the two
        # checks, misclassifying a clean finish as a crash.)
        alive = run.process.is_alive()
        pipe_broken = False
        while True:
            try:
                if not run.conn.poll():
                    break
                message = run.conn.recv()
            except (EOFError, OSError):
                pipe_broken = True
                break
            if (
                isinstance(message, tuple)
                and len(message) == 2
                and message[0] == _MSG_HEARTBEAT
            ):
                run.beats += 1
                run.progress = message[1]
                run.last_beat = now
                continue
            if (
                isinstance(message, tuple)
                and len(message) == 2
                and message[0] == _MSG_TELEMETRY
            ):
                run.telemetry = message[1]
                continue
            if (
                isinstance(message, tuple)
                and len(message) == 4
                and message[0] == _MSG_RESULT
            ):
                _tag, status, result, error = message
                return self._attempt(run, status, result, error, now)
            if (
                isinstance(message, tuple)
                and len(message) >= 1
                and isinstance(message[0], str)
                and message[0] not in _KNOWN_TAGS
            ):
                # Well-formed but unknown tag: a newer worker emitting an
                # optional frame this parent predates.  Skip it.
                _count_unknown_skipped()
                continue
            return self._attempt(
                run,
                ATTEMPT_CRASH,
                None,
                f"unrecognized worker message {message!r}",
                now,
            )
        if alive and pipe_broken:
            # A child that exits between the liveness sample and the pipe
            # read shows up here as a closed pipe; a brief join tells
            # that crash, with its exit code, from a live child that
            # merely closed its end.
            run.process.join(0.5)
            alive = run.process.exitcode is None
        if not alive:
            # Died without a result: a hard crash (segfault, os._exit,
            # OOM kill).  Classified immediately on this poll — a dead
            # child never waits out the wall-clock timeout.
            code = run.process.exitcode
            return self._attempt(
                run,
                ATTEMPT_CRASH,
                None,
                f"worker exited with code {code} before reporting a result",
                now,
            )
        if pipe_broken:
            return self._attempt(
                run,
                ATTEMPT_CRASH,
                None,
                "worker closed its result pipe without reporting",
                now,
            )
        if (
            run.hang_timeout_s is not None
            and run.last_beat is not None
            and now - run.last_beat > run.hang_timeout_s
        ):
            # The watchdog only fires on jobs that have proven they
            # beat; silence from a never-beating job means "does not
            # participate", not "hung".
            self._kill(run)
            return self._attempt(
                run,
                ATTEMPT_HUNG,
                None,
                f"no heartbeat for {now - run.last_beat:.3f}s "
                f"(hang timeout {run.hang_timeout_s}s, "
                f"last progress {run.progress!r}); worker killed",
                now,
            )
        if run.deadline is not None and now > run.deadline:
            self._kill(run)
            return self._attempt(
                run,
                ATTEMPT_TIMEOUT,
                None,
                f"exceeded timeout of {run.timeout_s}s; worker terminated",
                now,
            )
        return None

    def _retire(self, process: Any) -> None:
        """Non-blocking reap: join if already exited, else park as zombie."""
        process.join(0)
        if process.is_alive():
            self._zombies.append(process)

    def _sweep_zombies(self) -> None:
        still_alive = []
        for process in self._zombies:
            process.join(0)
            if process.is_alive():
                still_alive.append(process)
        self._zombies = still_alive

    def poll(self) -> List[Attempt]:
        self._sweep_zombies()
        done: List[Attempt] = []
        now = time.perf_counter()
        for job_id, run in list(self._running.items()):
            attempt = self._reap(run, now)
            if attempt is not None:
                run.conn.close()
                del self._running[job_id]
                self._retire(run.process)
                done.append(attempt)
        return done

    def shutdown(self) -> None:
        processes = [run.process for run in self._running.values()] + self._zombies
        for process in processes:
            if process.is_alive():
                process.terminate()
        for process in processes:
            process.join(1.0)
            if process.is_alive():  # pragma: no cover - stubborn child
                process.kill()
                process.join(1.0)
        for run in self._running.values():
            run.conn.close()
        self._running.clear()
        self._zombies.clear()
