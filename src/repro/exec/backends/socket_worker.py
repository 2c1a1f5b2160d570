"""Socket-worker backend: elastic pull-model workers over TCP loopback.

The coordinator (:class:`SocketWorkerBackend`) binds a loopback port and
accepts worker registrations at any time during a sweep — workers are
*elastic*: they join late, leave early, and die mid-job without taking
the sweep down.  Scheduling is a pull model, which is work stealing in
its simplest honest form: every submitted attempt lands in one shared
queue, and whichever worker goes idle first takes the next job — a fast
worker drains the queue while a slow one is still busy, with no static
partitioning to re-balance.

Each worker connection speaks the versioned tagged-frame protocol of
:mod:`repro.exec.backends.frames`, so the engine's watchdog,
progress-aware retry and telemetry merge see the same attempt stream
from every worker:

* ``hello``  worker -> coordinator: registration (name, pid, host).
* ``job``    coordinator -> worker: one attempt (fn, config, timeouts).
* ``hb``     worker -> coordinator: ``heartbeat(progress)`` relay.
* ``tel``    worker -> coordinator: telemetry payload before the result.
* ``res``    worker -> coordinator: ``(status, result, error)``.
* ``bye``    either direction: orderly leave.

Failure model (rides PR4's watchdog + checkpoint machinery):

* A worker that dies mid-job (connection lost) produces an
  ``ATTEMPT_CRASH`` attempt carrying the progress high-water mark from
  its heartbeats — the engine's lost-progress accounting then grants a
  *free* resume, and the replacement attempt (any other worker) picks
  up from the job's durable checkpoint.  Worker death mid-sweep is
  free, modulo the work since the last checkpoint.
* A worker whose heartbeats go silent past ``hang_timeout_s`` is
  *dropped* (socket closed; a locally spawned worker process is also
  killed) and the attempt classified ``hung``, long before the
  wall-clock deadline.
* Wall-clock timeouts are enforced coordinator-side the same way.

Workers attach either in-process-tree (``spawn=N`` forks N local worker
processes) or externally: ``python -m repro workers --connect
HOST:PORT`` from another shell, container, or an SSH tunnel (``ssh -L``)
on another machine sharing the result-cache/checkpoint filesystem.
:class:`PoolBackend` is the ``pool`` backend: N spawned workers, no
external ones, replaced when lost.

Trust & tail tolerance (PR 9):

* **Job-id-tagged attempt frames** — ``hb``/``tel``/``res`` bodies
  carry the job id they belong to; the coordinator discards any frame
  whose id does not match the worker's current assignment (counted
  ``exec.socket.mismatched_frame``).  A duplicated or replayed frame
  can therefore never complete the *wrong* job.
* **Duplicate-job dedup** — a worker that receives the same job id
  twice (a duplicated ``job`` frame) replays its stored result instead
  of executing twice.
* **Transport chaos** — both sides accept a
  :class:`~repro.exec.backends.chaos.ChaosConfig` (workers also inherit
  one via ``REPRO_CHAOS_NET``) and wrap their socket in the seeded
  fault injector; every injected fault must resolve to a retried
  attempt, never a wrong answer.
* **Per-worker circuit breaker** — a worker *name* that repeatedly
  fails mid-job trips a breaker: its re-registrations are refused for a
  cooldown, so one flapping host cannot keep eating jobs.
* **Respawn** — with ``respawn=True`` the coordinator replaces a
  locally-spawned worker lost with a job in hand (crash, timeout, hang,
  cancel) every time: the engine's retry budget already bounds how
  many such attempts there are.  One lost while idle is replaced while
  ``max_respawns`` lasts, which keeps a chaos campaign from bleeding
  out its whole roster.  With respawn on, cancelling a job that runs on
  a spawned worker kills that worker; external workers (and spawned
  ones without respawn) abandon it cooperatively.
* **Fail-fast stranding** — when every locally-spawned worker process
  is dead (so none will return) and no external worker is attached,
  queued jobs fail *immediately* with a clear error instead of waiting
  out ``no_worker_timeout_s``.
"""

from __future__ import annotations

import itertools
import multiprocessing as mp
import os
import pickle
import socket
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Mapping, Optional

from ..job import Job, invoke
from ..runners import (
    ATTEMPT_CRASH,
    ATTEMPT_ERROR,
    ATTEMPT_HUNG,
    ATTEMPT_OK,
    ATTEMPT_TIMEOUT,
    Attempt,
)
from . import frames as _frames
from .base import BackendCapabilities
from .chaos import ChaosConfig, chaos_from_env, wrap_socket

__all__ = [
    "PoolBackend",
    "SocketWorkerBackend",
    "spawn_local_worker",
    "worker_main",
]


# --------------------------------------------------------------------------
# Worker side
# --------------------------------------------------------------------------

#: Recently finished ((job id, attempt) -> pre-pickled res body) pairs
#: kept per worker so a duplicated ``job`` frame replays the stored
#: result instead of executing twice.  A retry of the same job is a new
#: attempt and runs again.
_DEDUP_KEEP = 8


def worker_main(
    address: tuple[str, int],
    name: Optional[str] = None,
    connect_timeout_s: float = 10.0,
    chaos: Optional[ChaosConfig] = None,
) -> int:
    """One worker process: register, pull jobs, stream frames, repeat.

    Returns 0 on an orderly ``bye``; raises on protocol violations (a
    version-mismatched coordinator fails loud on the first frame).
    Jobs run in this process one at a time; a job that raises reports
    ``error`` and the worker lives on, while a job that kills the
    process entirely is observed by the coordinator as a lost
    connection and classified ``crash`` there.

    ``chaos`` (or the ``REPRO_CHAOS_NET`` env spec) wraps this side's
    sends in the seeded fault injector — the worker then *misdelivers*
    its own frames, which is the campaign's worker-to-coordinator
    direction.
    """
    sock = socket.create_connection(address, timeout=connect_timeout_s)
    sock.settimeout(None)
    if chaos is None:
        chaos = chaos_from_env()
    sock = wrap_socket(sock, chaos, salt=os.getpid())
    me = name or f"worker-{socket.gethostname()}-{os.getpid()}"
    _frames.send_frame(
        sock,
        _frames.TAG_HELLO,
        {"name": me, "pid": os.getpid(), "host": socket.gethostname()},
    )
    done: "dict[tuple, bytes]" = {}  # (job id, attempt) -> res body
    try:
        while True:
            frame = _frames.recv_frame(sock)
            if frame is None:
                return 0
            tag, payload = frame
            if tag == _frames.TAG_BYE:
                return 0
            if tag != _frames.TAG_JOB:
                continue  # graceful unknown-tag skip
            key = (str(payload.get("job_id", "")), payload.get("attempt"))
            if key in done:
                # Duplicated job frame (chaos or a confused retransmit):
                # replay the stored result, never execute twice.
                _frames.send_frame_bytes(sock, _frames.TAG_RESULT, done[key])
                continue
            body = _execute_one(sock, payload)
            done[key] = body
            while len(done) > _DEDUP_KEEP:
                done.pop(next(iter(done)))
    finally:
        try:
            sock.close()
        except OSError:
            pass


def _execute_one(sock: socket.socket, spec: Mapping[str, Any]) -> bytes:
    """Run one job spec, streaming hb/tel frames, ending with res.

    Returns the pickled res body so the caller can replay it if the
    coordinator (or the chaos layer) ever re-delivers the same job.
    """
    # Import from the module, not the package: ``repro.exec`` re-exports
    # ``heartbeat`` the *function*, shadowing the submodule attribute.
    from ..heartbeat import clear_emitter, install_emitter

    job_id = spec.get("job_id")
    install_emitter(
        lambda progress: _frames.send_frame(
            sock, _frames.TAG_HEARTBEAT, (job_id, progress)
        )
    )
    tel_scope = None
    if spec.get("telemetry") is not None:
        from ...obs import telemetry as _obs_telemetry

        tel_scope = _obs_telemetry.begin_worker(spec["telemetry"])
    try:
        result = invoke(spec["fn"], spec.get("config"))
        payload = (job_id, ATTEMPT_OK, result, None)
    except BaseException as exc:  # noqa: BLE001 - a job error is data
        payload = (job_id, ATTEMPT_ERROR, None, f"{type(exc).__name__}: {exc}")
    finally:
        clear_emitter()
        if tel_scope is not None:
            try:
                _frames.send_frame(
                    sock, _frames.TAG_TELEMETRY, (job_id, tel_scope.finish())
                )
            except Exception:  # telemetry must never sink the result
                pass
    try:
        body = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    except (pickle.PicklingError, TypeError, AttributeError) as exc:
        body = pickle.dumps(
            (
                job_id,
                ATTEMPT_ERROR,
                None,
                f"result not transferable: {type(exc).__name__}: {exc}",
            ),
            protocol=pickle.HIGHEST_PROTOCOL,
        )
    _frames.send_frame_bytes(sock, _frames.TAG_RESULT, body)
    return body


def spawn_local_worker(
    address: tuple[str, int],
    name: Optional[str] = None,
    chaos: Optional[ChaosConfig] = None,
) -> mp.Process:
    """Fork one loopback worker process attached to ``address``."""
    process = mp.get_context().Process(
        target=worker_main,
        args=(address, name, 10.0, chaos),
        name=name or "repro-socket-worker",
        daemon=True,
    )
    process.start()
    return process


# --------------------------------------------------------------------------
# Coordinator side
# --------------------------------------------------------------------------

#: Frames whose bodies are job-id-tagged and must match the worker's
#: current assignment to be believed.
_ATTEMPT_TAGS = frozenset(
    {_frames.TAG_HEARTBEAT, _frames.TAG_TELEMETRY, _frames.TAG_RESULT}
)

#: How long a reader thread waits for a spawned worker whose connection
#: closed to exit, so the crash attempt can name its exit code.
_EXIT_WAIT_S = 0.5


@dataclass
class _Pending:
    """One submitted attempt waiting for (or assigned to) a worker."""

    job: Job
    payload: bytes  # pre-pickled job frame body (pickle errors surface at submit)
    timeout_s: Optional[float]
    hang_timeout_s: Optional[float]
    started: float = 0.0
    deadline: Optional[float] = None
    last_beat: Optional[float] = None
    beats: int = 0
    progress: Optional[float] = None
    telemetry: Optional[dict] = None
    #: Cancelled by the router (a hedge lost the race): the eventual
    #: result is discarded instead of reported.
    abandoned: bool = False


@dataclass
class _WorkerConn:
    """Coordinator-side state for one registered worker."""

    wid: int
    sock: socket.socket
    name: str = "?"
    pid: Optional[int] = None
    host: str = "?"
    current: Optional[_Pending] = None
    dropped: bool = False
    jobs_done: int = 0
    #: The local process behind this worker when this backend spawned it.
    process: Optional[mp.Process] = field(default=None, repr=False)


class SocketWorkerBackend:
    """Coordinator for elastic socket workers (the ``socket`` backend).

    ``spawn=N`` forks N loopback workers immediately; external workers
    may additionally register at any time via ``python -m repro workers
    --connect host:port``.  ``capacity()`` is queue-based: the engine
    may submit every ready job at once and idle workers pull from the
    shared queue (work stealing by construction).  If *no* worker is
    attached for ``no_worker_timeout_s`` while jobs are queued, the
    queued attempts fail as crashes rather than stranding the engine.
    """

    def __init__(
        self,
        spawn: int = 0,
        host: str = "127.0.0.1",
        port: int = 0,
        max_queue: int = 100_000,
        no_worker_timeout_s: float = 30.0,
        metrics: Optional[Any] = None,
        chaos: Optional[ChaosConfig] = None,
        worker_chaos: Optional[ChaosConfig] = None,
        respawn: bool = False,
        max_respawns: int = 64,
        breaker_threshold: int = 3,
        breaker_cooldown_s: float = 30.0,
    ) -> None:
        if spawn < 0:
            raise ValueError(f"spawn must be non-negative, got {spawn}")
        if breaker_threshold < 1:
            raise ValueError("breaker_threshold must be >= 1")
        self.no_worker_timeout_s = no_worker_timeout_s
        self.max_queue = max_queue
        self._metrics = metrics
        #: Coordinator-side send chaos (job/bye frames toward workers).
        self.chaos = chaos
        #: Chaos config handed to locally spawned workers (their sends).
        self.worker_chaos = worker_chaos
        #: Replace dead locally-spawned workers (bounded) so a chaotic
        #: transport cannot bleed the roster to zero.
        self.respawn = respawn
        self.max_respawns = max_respawns
        self.respawns = 0
        #: Circuit breaker: a worker name with ``breaker_threshold``
        #: mid-job failures trips open for ``breaker_cooldown_s`` —
        #: its re-registrations are refused while open.
        self.breaker_threshold = breaker_threshold
        self.breaker_cooldown_s = breaker_cooldown_s
        self._breaker_failures: Dict[str, int] = {}
        self._breaker_open_until: Dict[str, float] = {}
        self.breaker_rejections = 0
        #: Worker names quarantined by the verification layer — their
        #: registrations are refused permanently for this backend's life.
        self._quarantined: set[str] = set()
        self._lock = threading.RLock()
        self._queue: Deque[_Pending] = deque()
        self._queued_ids: set[str] = set()
        self._assigned: Dict[str, _WorkerConn] = {}  # job id -> worker
        self._done: List[Attempt] = []
        self._workers: Dict[int, _WorkerConn] = {}
        self._spawned: List[mp.Process] = []
        self._next_wid = 0
        #: Numbers each submitted attempt, so a worker tells a retry
        #: from a duplicated job frame.
        self._attempts = itertools.count()
        self._closing = False
        self.unknown_skipped = 0
        self.mismatched_frames = 0
        self.workers_joined = 0
        self.workers_lost = 0
        self._spawn_requested = spawn
        self._no_worker_since: Optional[float] = time.perf_counter()

        self._listener = socket.create_server((host, port), backlog=16)
        self.address: tuple[str, int] = self._listener.getsockname()[:2]
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-socket-accept", daemon=True
        )
        self._accept_thread.start()
        # Under the lock: a forked worker may say hello before its
        # Process is on the list, and _register matches it by pid.
        with self._lock:
            for i in range(spawn):
                self._spawned.append(
                    spawn_local_worker(
                        self.address, name=f"loopback-{i}", chaos=worker_chaos
                    )
                )

    # -- Backend protocol --------------------------------------------------

    def capabilities(self) -> BackendCapabilities:
        with self._lock:
            attached = len(self._workers)
        return BackendCapabilities(
            name="socket",
            max_parallelism=0,  # elastic: whoever is registered right now
            supports_heartbeat=True,
            supports_preemption=True,  # a hung/overdue worker is dropped
            locality=("local", "socket"),
            description=(
                f"elastic socket workers on {self.address[0]}:"
                f"{self.address[1]} ({attached} attached)"
            ),
        )

    def capacity(self) -> int:
        with self._lock:
            return max(0, self.max_queue - len(self._queue) - len(self._assigned))

    def active(self) -> int:
        with self._lock:
            return len(self._queue) + len(self._assigned)

    def submit(
        self,
        job: Job,
        config: Optional[Mapping[str, Any]],
        timeout_s: Optional[float],
        hang_timeout_s: Optional[float] = None,
        telemetry: Optional[Any] = None,
    ) -> None:
        # Pickle here, in the engine's thread, so an unpicklable job
        # fails the submission (engine -> FAILED row) — never inside a
        # reader thread where the error has nowhere to go.
        payload = pickle.dumps(
            {
                "job_id": job.id,
                "attempt": next(self._attempts),
                "fn": job.fn,
                "config": dict(config) if config is not None else None,
                "timeout_s": timeout_s,
                "telemetry": telemetry,
            },
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        pending = _Pending(
            job=job,
            payload=payload,
            timeout_s=timeout_s,
            hang_timeout_s=hang_timeout_s,
        )
        with self._lock:
            if job.id in self._assigned or job.id in self._queued_ids:
                raise RuntimeError(f"job {job.id!r} is already running")
            if len(self._queue) + len(self._assigned) >= self.max_queue:
                raise RuntimeError("socket backend queue is full; poll() first")
            self._queue.append(pending)
            self._queued_ids.add(job.id)
            self._pump()

    def cancel(self, job_id: str) -> bool:
        """Cancel an attempt (a hedge lost its race): stop wasting work.

        A still-queued job is removed outright (True).  A job running on
        a spawned worker that this backend replaces (``respawn``) is
        killed with its worker, which frees its slot at once (True).  On
        any other worker it is *abandoned* cooperatively: the worker
        finishes it, but the result is discarded on arrival and never
        reported (True).  Either way the attempt never appears in
        ``poll()``.  Unknown ids return False.
        """
        with self._lock:
            if job_id in self._queued_ids:
                for pending in list(self._queue):
                    if pending.job.id == job_id:
                        self._queue.remove(pending)
                        break
                self._queued_ids.discard(job_id)
                self._count("cancelled")
                return True
            worker = self._assigned.get(job_id)
            if worker is None or worker.current is None:
                return False
            worker.current.abandoned = True
            if self.respawn and worker.process is not None:
                self._assigned.pop(job_id)
                worker.current = None
                self._bury(worker, lost_job=True)
                self._count("cancel_killed")
            else:
                self._count("abandoned")
            return True

    def quarantine_worker(self, name: str) -> bool:
        """Ban a suspect worker (verification vote-loser) by name.

        Its current registration is dropped (any in-flight job comes
        back as a crash attempt, so the engine re-runs it elsewhere) and
        future registrations under that name are refused.
        """
        with self._lock:
            self._quarantined.add(name)
            victim = next(
                (w for w in self._workers.values() if w.name == name), None
            )
        if victim is not None:
            self._drop(victim, "worker quarantined by result verification")
            self._count("quarantined")
            return True
        return False

    def quarantined_workers(self) -> list[str]:
        with self._lock:
            return sorted(self._quarantined)

    def poll(self) -> List[Attempt]:
        now = time.perf_counter()
        with self._lock:
            for worker in list(self._workers.values()):
                pending = worker.current
                if pending is None:
                    continue
                if pending.deadline is not None and now > pending.deadline:
                    self._evict(
                        worker,
                        ATTEMPT_TIMEOUT,
                        f"exceeded timeout of {pending.timeout_s}s; "
                        f"worker {worker.name} dropped",
                        now,
                    )
                elif (
                    pending.hang_timeout_s is not None
                    and pending.last_beat is not None
                    and now - pending.last_beat > pending.hang_timeout_s
                ):
                    self._evict(
                        worker,
                        ATTEMPT_HUNG,
                        f"no heartbeat for {now - pending.last_beat:.3f}s "
                        f"(hang timeout {pending.hang_timeout_s}s, last "
                        f"progress {pending.progress!r}); worker "
                        f"{worker.name} dropped",
                        now,
                    )
            self._fail_stranded(now)
            # is_alive() reaps an exited child without blocking.
            self._spawned = [p for p in self._spawned if p.is_alive()]
            done, self._done = self._done, []
            return done

    def shutdown(self) -> None:
        with self._lock:
            self._closing = True
            workers = list(self._workers.values())
            self._workers.clear()
            self._assigned.clear()
            self._queue.clear()
            self._queued_ids.clear()
        try:
            self._listener.close()
        except OSError:
            pass
        for worker in workers:
            try:
                _frames.send_frame(worker.sock, _frames.TAG_BYE)
            except OSError:
                pass
            try:
                worker.sock.close()
            except OSError:
                pass
        for process in self._spawned:
            if process.is_alive():
                process.terminate()
        for process in self._spawned:
            process.join(1.0)
            if process.is_alive():  # pragma: no cover - stubborn child
                process.kill()
                process.join(1.0)
        self._spawned.clear()

    # -- introspection (CLI/benchmarks/tests) ------------------------------

    def describe(self) -> dict:
        """Live snapshot: workers, queue depth, counters."""
        with self._lock:
            return {
                "address": list(self.address),
                "workers": [
                    {
                        "name": w.name,
                        "pid": w.pid,
                        "host": w.host,
                        "busy_with": w.current.job.id if w.current else None,
                        "jobs_done": w.jobs_done,
                    }
                    for w in self._workers.values()
                ],
                "queued": len(self._queue),
                "assigned": len(self._assigned),
                "workers_joined": self.workers_joined,
                "workers_lost": self.workers_lost,
                "unknown_skipped": self.unknown_skipped,
                "mismatched_frames": self.mismatched_frames,
                "respawns": self.respawns,
                "breaker_rejections": self.breaker_rejections,
                "breaker_open": sorted(
                    name
                    for name, until in self._breaker_open_until.items()
                    if time.perf_counter() < until
                ),
                "quarantined": sorted(self._quarantined),
            }

    def spawned_processes(self) -> List[mp.Process]:
        """The loopback worker processes this backend forked (chaos hooks)."""
        return list(self._spawned)

    def wait_for_workers(self, n: int, timeout_s: float = 10.0) -> int:
        """Block until ``n`` workers are attached (or timeout); returns count."""
        deadline = time.perf_counter() + timeout_s
        while time.perf_counter() < deadline:
            with self._lock:
                if len(self._workers) >= n:
                    return len(self._workers)
            time.sleep(0.01)
        with self._lock:
            return len(self._workers)

    # -- internals ---------------------------------------------------------

    def _count(self, name: str) -> None:
        from ...core.instrument import default_registry

        registry = self._metrics if self._metrics is not None else default_registry()
        registry.counter(f"exec.socket.{name}").inc()

    def _admit(self, name: str) -> bool:
        """May a worker with this name (re-)register? (lock held)"""
        if name in self._quarantined:
            return False
        open_until = self._breaker_open_until.get(name)
        if open_until is not None:
            if time.perf_counter() < open_until:
                return False
            # Cooldown elapsed: half-open — admit, but one more failure
            # re-trips immediately (failure count stays at threshold-1).
            del self._breaker_open_until[name]
            self._breaker_failures[name] = self.breaker_threshold - 1
        return True

    def _record_failure(self, name: str) -> None:
        """One mid-job failure against the breaker (lock held)."""
        count = self._breaker_failures.get(name, 0) + 1
        self._breaker_failures[name] = count
        if count >= self.breaker_threshold:
            self._breaker_open_until[name] = (
                time.perf_counter() + self.breaker_cooldown_s
            )
            self._count("breaker_tripped")

    def _accept_loop(self) -> None:
        while True:
            try:
                conn, _addr = self._listener.accept()
            except OSError:
                return  # listener closed: shutdown
            threading.Thread(
                target=self._register, args=(conn,),
                name="repro-socket-hello", daemon=True,
            ).start()

    def _register(self, conn: socket.socket) -> None:
        """Handshake one new connection, then become its reader thread."""
        try:
            conn.settimeout(10.0)
            frame = _frames.recv_frame(conn)
            conn.settimeout(None)
        except (_frames.FrameError, OSError):
            conn.close()
            return
        if frame is None or frame[0] != _frames.TAG_HELLO:
            conn.close()
            return
        hello = frame[1] if isinstance(frame[1], dict) else {}
        name = str(hello.get("name", ""))
        with self._lock:
            if self._closing:
                conn.close()
                return
            if name and not self._admit(name):
                # Quarantined or breaker-open: refuse the registration.
                self.breaker_rejections += 1
                self._count("breaker_rejected")
                try:
                    _frames.send_frame(conn, _frames.TAG_BYE)
                except OSError:
                    pass
                conn.close()
                return
            self._next_wid += 1
            worker = _WorkerConn(
                wid=self._next_wid,
                # Coordinator-side sends toward this worker go through
                # the fault injector too (salted per connection, so two
                # workers see different schedules from the same seed).
                sock=wrap_socket(conn, self.chaos, salt=self._next_wid),
                name=name or f"worker-{self._next_wid}",
                pid=hello.get("pid"),
                host=str(hello.get("host", "?")),
                process=next(
                    (p for p in self._spawned if p.pid == hello.get("pid")),
                    None,
                ),
            )
            self._workers[worker.wid] = worker
            self.workers_joined += 1
            self._no_worker_since = None
            self._count("worker_joined")
            self._pump()
        self._reader(worker)

    def _reader(self, worker: _WorkerConn) -> None:
        """Drain one worker's frames until it leaves, dies, or misbehaves."""
        error = "worker connection lost"
        closed = False
        try:
            while True:
                frame = _frames.recv_frame(worker.sock)
                if frame is None:
                    closed = True
                    break
                tag, payload = frame
                now = time.perf_counter()
                with self._lock:
                    if worker.dropped:
                        return
                    pending = worker.current
                    # Attempt-stream bodies are job-id-tagged (v2): a
                    # frame whose id does not match this worker's
                    # current assignment is a duplicate/replay and is
                    # discarded — it can never complete the wrong job.
                    if tag in _ATTEMPT_TAGS:
                        job_id, payload = self._untag(payload)
                        if pending is None or job_id != pending.job.id:
                            self.mismatched_frames += 1
                            self._count("mismatched_frame")
                            continue
                    if tag == _frames.TAG_HEARTBEAT and pending is not None:
                        pending.beats += 1
                        pending.progress = payload
                        pending.last_beat = now
                    elif tag == _frames.TAG_TELEMETRY and pending is not None:
                        pending.telemetry = payload
                    elif tag == _frames.TAG_RESULT and pending is not None:
                        status, result, err = payload
                        if not pending.abandoned:
                            self._done.append(
                                self._attempt(
                                    pending, status, result, err, now,
                                    worker.name,
                                )
                            )
                        self._assigned.pop(pending.job.id, None)
                        worker.current = None
                        worker.jobs_done += 1
                        self._pump()
                    elif tag == _frames.TAG_BYE:
                        error = "worker said bye mid-job"
                        break
                    elif tag not in _frames.FRAME_TAGS:
                        self.unknown_skipped += 1
                        self._count("unknown_skipped")
        except _frames.FrameVersionError as exc:
            error = str(exc)
            self._count("version_mismatch")
        except _frames.FrameCorruptError as exc:
            error = f"{type(exc).__name__}: {exc}"
            self._count("corrupt_frame")
        except (_frames.FrameError, OSError) as exc:
            error = f"{type(exc).__name__}: {exc}"
            closed = isinstance(exc, OSError)
        finally:
            process = worker.process
            if closed and process is not None and not worker.dropped:
                # A spawned worker's connection closes as it dies: wait
                # briefly (in this thread, never in poll) to name its
                # exit code.
                process.join(_EXIT_WAIT_S)
                if process.exitcode is not None:
                    error = f"worker exited with code {process.exitcode}"
            self._drop(worker, error)

    @staticmethod
    def _untag(payload: Any) -> tuple[Optional[str], Any]:
        """Split a job-id-tagged body into ``(job_id, rest)``.

        ``hb``/``tel`` bodies are ``(job_id, value)`` pairs; ``res``
        bodies are ``(job_id, status, result, error)``.  A malformed
        body yields ``(None, ...)`` and is counted as mismatched.
        """
        if not isinstance(payload, tuple) or len(payload) < 2:
            return None, payload
        job_id = payload[0]
        rest = payload[1] if len(payload) == 2 else tuple(payload[1:])
        return (job_id if isinstance(job_id, str) else None), rest

    def _attempt(
        self,
        pending: _Pending,
        status: str,
        result: Any,
        error: Optional[str],
        now: float,
        worker: Optional[str] = None,
    ) -> Attempt:
        return Attempt(
            pending.job.id,
            status,
            result,
            error,
            now - pending.started,
            progress=pending.progress,
            heartbeats=pending.beats,
            telemetry=pending.telemetry,
            worker=worker,
        )

    def _pump(self) -> None:
        """Assign queued jobs to idle workers (callers hold the lock)."""
        if not self._queue:
            return
        for worker in self._workers.values():
            if not self._queue:
                return
            if worker.current is not None or worker.dropped:
                continue
            pending = self._queue.popleft()
            now = time.perf_counter()
            pending.started = now
            pending.deadline = (
                now + pending.timeout_s if pending.timeout_s is not None else None
            )
            try:
                _frames.send_frame_bytes(
                    worker.sock, _frames.TAG_JOB, pending.payload
                )
            except OSError:
                # Dead socket discovered on send: put the job back (it
                # never started) and let the reader thread bury the
                # worker.
                pending.started = 0.0
                pending.deadline = None
                self._queue.appendleft(pending)
                continue
            worker.current = pending
            self._queued_ids.discard(pending.job.id)
            self._assigned[pending.job.id] = worker

    def _evict(
        self, worker: _WorkerConn, status: str, error: str, now: float
    ) -> None:
        """Kill an overdue/hung worker and record its attempt (lock held)."""
        pending = worker.current
        if pending is not None:
            if not pending.abandoned:
                self._done.append(
                    self._attempt(pending, status, None, error, now, worker.name)
                )
            self._assigned.pop(pending.job.id, None)
            worker.current = None
            self._record_failure(worker.name)
        self._bury(worker, lost_job=pending is not None)
        self._count("worker_evicted")

    def _drop(self, worker: _WorkerConn, error: str) -> None:
        """Reader-thread exit path: a worker left or died."""
        with self._lock:
            if worker.dropped:
                return
            pending = worker.current
            if pending is not None:
                # Crashed mid-job: ship the attempt with its heartbeat
                # high-water mark so the engine can grant a free,
                # checkpoint-backed resume.
                if not pending.abandoned:
                    self._done.append(
                        self._attempt(
                            pending,
                            ATTEMPT_CRASH,
                            None,
                            f"worker {worker.name} lost mid-job: {error}",
                            time.perf_counter(),
                            worker.name,
                        )
                    )
                self._assigned.pop(pending.job.id, None)
                worker.current = None
                self._record_failure(worker.name)
            self._bury(worker, lost_job=pending is not None)

    def _bury(self, worker: _WorkerConn, lost_job: bool) -> None:
        """Remove a worker from the roster and close its socket (lock held).

        ``lost_job``: the worker went down holding an attempt.
        """
        if worker.dropped:
            return
        worker.dropped = True
        if self._workers.pop(worker.wid, None) is not None and not self._closing:
            self.workers_lost += 1
            self._count("worker_lost")
        try:
            worker.sock.close()
        except OSError:
            pass
        if worker.process is not None and worker.process.is_alive():
            worker.process.terminate()
        if (
            self.respawn
            and not self._closing
            and worker.process is not None
            and (lost_job or self.respawns < self.max_respawns)
        ):
            # A locally-spawned worker died under us: replace it.  Job
            # losses are bounded by the engine's retries; idle losses
            # (a chaotic transport) by max_respawns.
            self.respawns += 1
            self._count("worker_respawned")
            self._spawned.append(
                spawn_local_worker(
                    self.address,
                    name=f"respawn-{self.respawns}",
                    chaos=self.worker_chaos,
                )
            )
        if not self._workers and self._no_worker_since is None:
            self._no_worker_since = time.perf_counter()

    def _all_spawned_dead(self) -> bool:
        """Every locally-forked worker process has exited (lock held).

        A replacement is started inside :meth:`_bury`, so while one is
        due a live process is on the list."""
        return self._spawn_requested > 0 and not any(
            p.is_alive() for p in self._spawned
        )

    def _fail_stranded(self, now: float) -> None:
        """Queued jobs with no workers become crash attempts (lock held)
        — the engine retries or records FAILED; it never spins forever
        against an empty roster.

        Two triggers: the slow one (no worker of any kind attached for
        ``no_worker_timeout_s``) and the fast one — every spawned
        worker process is *dead* and no external worker is attached,
        so nothing will ever pull these jobs.  The fast path is what
        turns "the last socket worker died mid-sweep" from a silent
        half-minute hang into an immediate, clearly-attributed
        failure."""
        if not self._queue or self._workers:
            return
        if self._all_spawned_dead():
            reason = (
                "last socket worker died mid-sweep: every spawned worker "
                "process has exited and no external workers are attached"
            )
            self._count("stranded_fail_fast")
        else:
            since = self._no_worker_since
            if since is None or now - since < self.no_worker_timeout_s:
                return
            reason = (
                f"no socket workers attached for "
                f"{self.no_worker_timeout_s:.0f}s"
            )
        while self._queue:
            pending = self._queue.popleft()
            self._queued_ids.discard(pending.job.id)
            self._done.append(
                Attempt(pending.job.id, ATTEMPT_CRASH, None, reason, 0.0)
            )


class PoolBackend(SocketWorkerBackend):
    """The ``pool`` backend: ``workers`` spawned socket workers, replaced when lost.

    A fixed local roster on the socket transport.  ``capacity()`` is
    ``workers - active()``, so the engine never queues more attempts
    than there are workers and a router ranks it by free slots.  A
    worker lost to its job's crash, timeout, hang or cancel is killed
    and respawned; a crash names the dead worker's exit code.
    """

    def __init__(self, workers: int, metrics: Optional[Any] = None) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        super().__init__(
            spawn=workers, max_queue=workers, metrics=metrics, respawn=True
        )
        self.workers = workers

    def capabilities(self) -> BackendCapabilities:
        return BackendCapabilities(
            name="pool",
            max_parallelism=self.workers,
            supports_heartbeat=True,
            supports_preemption=True,
            locality=("local", "pool"),
            description=(
                f"{self.workers} spawned socket workers, replaced when "
                "lost; crash containment + live watchdog"
            ),
        )
