"""Request coalescing: identical design points become one backend job.

Identity is the exec cache key.  Every submission is keyed through
:meth:`repro.exec.cache.ResultCache.try_key_for` — the *same* canonical
derivation the execution engine uses — so "identical design point"
means exactly "would hit the same cache artifact".  Three outcomes,
checked in order under one lock:

1. **Cache fast path** — the artifact already exists: the run record
   completes immediately, no queueing, no backend.
2. **Coalesce** — the design point is already queued or in flight
   (its entry is live in this coalescer): the new run record
   *attaches* to the live entry; when the one backend job finishes,
   the result fans out to every attached waiter.  Counted ``serve.coalesced`` here and
   ``exec.cache.coalesced`` on the cache.
3. **New entry** — the point becomes a live entry and goes to
   admission control; only this case can ever be shed or cost backend
   work.

Nothing holds a new entry back for duplicates to catch up: attachment
stays open the whole time the entry is queued *or* running.

Answer before write: on success :meth:`Coalescer.complete` builds the
canonical artifact, finishes every attached record and wakes its
waiters, and only then writes the cache file and retires the entry.
A duplicate arriving between the answer and the retirement finds the
finished entry and is answered from its stored result; that counts as
a cache fast-path hit, exactly as it would a moment later when the
file is there.  A write that fails with an ``OSError`` (full disk,
unwritable cache directory) is counted ``exec.cache.write_failed`` by
the cache; the run stays succeeded and the entry retires all the same.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional

from ..core.instrument import MetricsRegistry, default_registry
from ..exec.cache import ResultCache
from ..exec.job import callable_name
from .workloads import DesignPoint

__all__ = ["Coalescer", "Entry", "RunRecord"]

#: Run record lifecycle states.
QUEUED = "queued"
RUNNING = "running"
SUCCEEDED = "succeeded"
FAILED = "failed"

_TERMINAL = frozenset({SUCCEEDED, FAILED})


class RunRecord:
    """One client submission's view of a design point's fate."""

    __slots__ = (
        "run_id", "design_id", "workload", "key", "status", "result",
        "error", "submitted_at", "finished_at", "coalesced", "cached",
        "_callbacks", "_lock",
    )

    def __init__(
        self, run_id: str, design_id: str, workload: str,
        key: Optional[str], submitted_at: float,
    ) -> None:
        self.run_id = run_id
        self.design_id = design_id
        self.workload = workload
        self.key = key
        self.status = QUEUED
        self.result: Any = None
        self.error: Optional[str] = None
        self.submitted_at = submitted_at
        self.finished_at: Optional[float] = None
        self.coalesced = False
        self.cached = False
        self._callbacks: List[Callable[[], None]] = []
        self._lock = threading.Lock()

    @property
    def terminal(self) -> bool:
        return self.status in _TERMINAL

    def add_done_callback(self, callback: Callable[[], None]) -> None:
        """Run ``callback`` once the record is terminal.

        Fires immediately when already terminal — the registering side
        (the HTTP wait path) never races completion.
        """
        with self._lock:
            if not self.terminal:
                self._callbacks.append(callback)
                return
        callback()

    def _finish(
        self, status: str, result: Any, error: Optional[str], now: float
    ) -> List[Callable[[], None]]:
        with self._lock:
            self.status = status
            self.result = result
            self.error = error
            self.finished_at = now
            callbacks, self._callbacks = self._callbacks, []
        return callbacks

    def latency_s(self) -> Optional[float]:
        if self.finished_at is None:
            return None
        return self.finished_at - self.submitted_at

    def to_json(self) -> dict:
        out = {
            "run_id": self.run_id,
            "design_id": self.design_id,
            "workload": self.workload,
            "status": self.status,
            "coalesced": self.coalesced,
            "cached": self.cached,
        }
        if self.key is not None:
            out["cache_key"] = self.key
        if self.terminal:
            out["result"] = self.result
            out["error"] = self.error
            latency = self.latency_s()
            out["latency_ms"] = None if latency is None else latency * 1e3
        return out


class Entry:
    """One live design point: the single job many records may ride."""

    __slots__ = ("design_id", "point", "key", "records", "status", "result")

    def __init__(
        self, point: DesignPoint, key: Optional[str], first: RunRecord
    ) -> None:
        self.design_id = point.design_id
        self.point = point
        self.key = key
        self.records: List[RunRecord] = [first]
        self.status = QUEUED
        #: The canonical result, once succeeded and not yet retired.
        self.result: Any = None


class Coalescer:
    """Submission demultiplexer over the shared result cache."""

    def __init__(
        self,
        cache: ResultCache,
        metrics: Optional[MetricsRegistry] = None,
        max_runs: int = 50_000,
    ) -> None:
        if max_runs < 1:
            raise ValueError("max_runs must be >= 1")
        self.cache = cache
        self._metrics = metrics
        self.max_runs = max_runs
        self._lock = threading.Lock()
        self._entries: Dict[str, Entry] = {}
        self.runs: Dict[str, RunRecord] = {}
        self._finished: Deque[str] = deque()
        self._seq = 0

    def _registry(self) -> MetricsRegistry:
        return self._metrics if self._metrics is not None else default_registry()

    # -- submission (event-loop thread) ------------------------------------

    def submit(
        self, point: DesignPoint, now: Optional[float] = None
    ) -> tuple[RunRecord, Optional[Entry]]:
        """Route one submission; returns ``(record, entry_to_admit)``.

        ``entry_to_admit`` is non-``None`` only for a genuinely new
        design point — the caller hands it to admission control (and,
        if admission sheds it, must call :meth:`abandon`).  Coalesced
        and cache-served submissions return ``None``: they are already
        fully accounted for.
        """
        registry = self._registry()
        stamp = time.monotonic() if now is None else now
        with self._lock:
            self._seq += 1
            run_id = f"run-{self._seq:06d}"
            key = self.cache.try_key_for(
                callable_name(point.fn), point.config, job_id=point.design_id
            )
            record = RunRecord(run_id, point.design_id, point.workload, key, stamp)
            self.runs[run_id] = record
            registry.counter("serve.requests").inc()

            entry = self._entries.get(point.design_id)
            if entry is not None and entry.status == SUCCEEDED:
                # Answered but not yet written and retired: the entry's
                # result is the artifact's, so this is a cache hit.
                self._serve_cached(record, entry.result, stamp, registry)
                return record, None
            if entry is not None:
                record.coalesced = True
                record.status = entry.status
                entry.records.append(record)
                self.cache.note_coalesced()
                registry.counter("serve.coalesced").inc()
                return record, None

            if key is not None:
                artifact = self.cache.get(key)
                if artifact is not None:
                    self._serve_cached(record, artifact["result"], stamp,
                                       registry)
                    return record, None

            entry = Entry(point, key, record)
            self._entries[point.design_id] = entry
            return record, entry

    def _serve_cached(self, record: RunRecord, result: Any, stamp: float,
                      registry: MetricsRegistry) -> None:
        """Finish ``record`` from the cache; caller holds the lock."""
        record.cached = True
        record._finish(SUCCEEDED, result, None, stamp)
        self._note_done(record, registry)
        registry.counter("serve.cache_fast_path").inc()

    # -- completion (dispatcher thread) ------------------------------------

    def mark_running(self, entry: Entry) -> None:
        with self._lock:
            entry.status = RUNNING
            for record in entry.records:
                if not record.terminal:
                    record.status = RUNNING

    def complete(
        self,
        entry: Entry,
        ok: bool,
        result: Any = None,
        error: Optional[str] = None,
        duration_s: float = 0.0,
        now: Optional[float] = None,
    ) -> None:
        """Publish one backend outcome to every attached waiter.

        On success the result is built into its cache artifact first
        and the *canonical JSON form* fans out, so a waiter served live
        and a later client served from cache see identically-typed
        results.  The artifact's file is written after the waiters are
        woken; the entry stays live until then (see the module
        docstring).  A write that raises ``OSError`` is counted
        ``exec.cache.write_failed`` by the cache and not raised.
        """
        registry = self._registry()
        stamp = time.monotonic() if now is None else now
        artifact = None
        if ok and entry.key is not None:
            artifact = self.cache.build(
                entry.key,
                callable_name(entry.point.fn),
                entry.point.config,
                result,
                duration_s,
            )
            if artifact is not None:
                result = artifact["result"]
        callbacks: List[Callable[[], None]] = []
        with self._lock:
            entry.status = SUCCEEDED if ok else FAILED
            entry.result = result if ok else None
            for record in entry.records:
                callbacks.extend(
                    record._finish(entry.status, entry.result, error, stamp)
                )
                self._note_done(record, registry)
            if artifact is None:
                self._retire(entry)
        # Waiter wake-ups happen outside the lock: a callback may do
        # arbitrary work (call_soon_threadsafe into the event loop).
        for callback in callbacks:
            callback()
        if artifact is not None:
            try:
                self.cache.publish(artifact)
            except OSError:
                # The waiters already have the result, and ``publish``
                # counted the failure; losing the file must not take the
                # dispatcher thread down with it.
                pass
            finally:
                with self._lock:
                    self._retire(entry)

    def _retire(self, entry: Entry) -> None:
        """Drop a finished entry; caller holds the lock."""
        self._entries.pop(entry.design_id, None)

    def abandon(self, entry: Entry) -> None:
        """Admission shed a just-created entry: roll it back."""
        with self._lock:
            self._retire(entry)
            for record in entry.records:
                self.runs.pop(record.run_id, None)

    # -- bookkeeping -------------------------------------------------------

    def _note_done(self, record: RunRecord, registry: MetricsRegistry) -> None:
        """Terminal-record accounting; caller holds (or is) the lock."""
        registry.counter(
            "serve.completed" if record.status == SUCCEEDED else "serve.failed"
        ).inc()
        latency = record.latency_s()
        if latency is not None:
            registry.histogram("serve.latency_ms").observe(latency * 1e3)
        self._finished.append(record.run_id)
        while len(self.runs) > self.max_runs and self._finished:
            self.runs.pop(self._finished.popleft(), None)

    def get(self, run_id: str) -> Optional[RunRecord]:
        with self._lock:
            return self.runs.get(run_id)

    def live_entries(self) -> int:
        with self._lock:
            return len(self._entries)
