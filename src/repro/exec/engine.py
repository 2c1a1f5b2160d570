"""The execution engine: cached, fault-tolerant sweeps.

:class:`ExecutionEngine` drives a :class:`~repro.exec.job.JobGraph`
through a :class:`~repro.exec.runners.Runner`:

1. Jobs are dispatched in insertion order; the cache (if configured)
   is consulted first, and a hit completes the job without
   dispatching it.  Cache keys are salted with the job id, so
   two jobs sharing a callable and config never share an artifact; a
   job whose config cannot be canonicalized simply runs uncached.
   JSON fidelity contract: whenever a job's result goes through the
   cache, the engine reports the *canonical JSON form* (tuples become
   lists, dict keys become strings) on the cold write path as well as
   on warm hits, so reruns never see differently-typed results.
2. A failed attempt is retried up to the job's (or engine's) retry
   budget with exponential backoff; a job that exhausts its budget is
   recorded FAILED (error/crash) or TIMEOUT — the sweep always
   finishes.  The budget meters *lost progress*, not attempts: a
   failed/hung/crashed attempt that advanced the job's heartbeat
   progress high-water mark (because the job checkpoints and resumes,
   see ``repro.resilience``) is resumed for free, up to ``max_resumes``;
   only attempts that replayed without gaining ground are charged.
   With ``hang_timeout_s`` set, a worker that stops heartbeating is
   killed and resumed long before its wall-clock deadline.
3. The outcome is a :class:`RunReport`: per-job status, attempts, wall
   time, and cache provenance, plus whole-run counters mirrored into
   the instrumentation registry (``exec.jobs.*``).

The engine is backend-agnostic: the same loop runs a serial in-process
sweep and a multiprocess one, which is what keeps failure semantics
identical across ``--jobs 1`` and ``--jobs N``.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, Optional

from ..core.instrument import MetricsRegistry, default_registry
from ..core.rng import DEFAULT_SEED
from .cache import ResultCache
from .job import Job, JobGraph, callable_name, derive_seed
from .runners import ATTEMPT_OK, ATTEMPT_TIMEOUT, Attempt, Runner, SerialRunner

__all__ = ["ExecutionEngine", "JobRecord", "JobStatus", "RunReport", "run_jobs"]


class JobStatus(Enum):
    """Terminal state of one job in a run."""

    SUCCEEDED = "succeeded"
    FAILED = "failed"
    TIMEOUT = "timeout"


@dataclass
class JobRecord:
    """Everything the report knows about one finished job."""

    job_id: str
    status: JobStatus
    result: Any = None
    error: Optional[str] = None
    attempts: int = 0
    wall_time_s: float = 0.0
    cached: bool = False
    cache_key: Optional[str] = None
    #: Free retries granted because the failed attempt had advanced the
    #: job's progress high-water mark (watchdog resume).
    resumes: int = 0

    @property
    def ok(self) -> bool:
        return self.status is JobStatus.SUCCEEDED


@dataclass
class RunReport:
    """Structured outcome of one engine run."""

    records: Dict[str, JobRecord] = field(default_factory=dict)
    wall_time_s: float = 0.0
    cache_stats: Dict[str, int] = field(default_factory=dict)
    #: Merged cross-process telemetry (metrics state, per-job span
    #: streams, profile) when the engine ran with ``telemetry=``;
    #: see :func:`repro.obs.telemetry.merge_job_telemetry`.
    telemetry: Optional[dict] = None
    #: Name of the backend that executed the run (the runner's
    #: ``name``, e.g. ``serial``/``pool``/``socket``/``array``).
    backend: Optional[str] = None

    def __getitem__(self, job_id: str) -> JobRecord:
        return self.records[job_id]

    def __len__(self) -> int:
        return len(self.records)

    def counts(self) -> Dict[str, int]:
        out = {status.value: 0 for status in JobStatus}
        for record in self.records.values():
            out[record.status.value] += 1
        return out

    def succeeded(self) -> list[JobRecord]:
        return [r for r in self.records.values() if r.ok]

    def failed(self) -> list[JobRecord]:
        return [r for r in self.records.values() if not r.ok]

    def cache_hits(self) -> int:
        return sum(1 for r in self.records.values() if r.cached)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.records.values())

    def result(self, job_id: str) -> Any:
        record = self.records[job_id]
        if not record.ok:
            raise RuntimeError(
                f"job {job_id!r} did not succeed "
                f"({record.status.value}: {record.error})"
            )
        return record.result

    def one_line(self) -> str:
        counts = self.counts()
        parts = [f"{len(self.records)} jobs"]
        for status in JobStatus:
            if counts[status.value]:
                parts.append(f"{counts[status.value]} {status.value}")
        if self.cache_stats:
            parts.append(
                f"cache {self.cache_stats.get('hits', 0)} hit"
                f" / {self.cache_stats.get('misses', 0) } miss"
            )
            if self.cache_stats.get("corrupt", 0):
                # Corruption healed as a miss, but never silently:
                # quarantined artifacts deserve a human's attention.
                parts.append(
                    f"{self.cache_stats['corrupt']} corrupt quarantined"
                )
        parts.append(f"{self.wall_time_s:.2f}s")
        return ", ".join(parts)

    def digest(self) -> str:
        """Backend-independent sha256 over everything deterministic.

        Hashes each record's (status, canonical result) plus — when
        telemetry was captured — the merged metrics state, per-job
        wall-clock-free span-stream digests, and the merged profile.
        Wall times, error strings (they embed durations and worker
        names), attempt counts (retries are a property of the *run's
        luck* — an injected transport fault costs a retry, never a
        different answer), the backend name, and cache provenance are
        all excluded, so the same seeded sweep must produce the same
        digest on the serial, process-pool, and socket backends — with
        or without transport chaos; the backend-equivalence suite and
        the chaos campaign pin exactly that.
        """
        import hashlib
        import json

        from .cache import canonicalize

        body: Dict[str, Any] = {"records": {}}
        for job_id in sorted(self.records):
            record = self.records[job_id]
            try:
                result = canonicalize(record.result)
            except TypeError:
                result = f"<unhashable {type(record.result).__name__}>"
            body["records"][job_id] = {
                "status": record.status.value,
                "result": result,
            }
        if self.telemetry is not None:
            from ..obs.spans import span_stream_digest
            from ..obs.telemetry import payload_spans

            body["metrics"] = self.telemetry.get("metrics", {})
            body["span_digests"] = {
                job_id: span_stream_digest(
                    payload_spans({"spans": spans})
                )
                for job_id, spans in sorted(
                    self.telemetry.get("spans", {}).items()
                )
            }
            body["profile"] = self.telemetry.get("profile", {})
        payload = json.dumps(body, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()

    def summary(self) -> str:
        """Fixed-width per-job table (CLI ``--verbose`` output)."""
        lines = [
            f"{'job':<12}{'status':<11}{'attempts':<9}{'cache':<7}"
            f"{'wall_s':<9}error"
        ]
        for job_id in self.records:
            r = self.records[job_id]
            lines.append(
                f"{job_id:<12}{r.status.value:<11}{r.attempts:<9}"
                f"{'hit' if r.cached else '-':<7}{r.wall_time_s:<9.3f}"
                f"{r.error or ''}"
            )
        lines.append("-- " + self.one_line())
        return "\n".join(lines)


class ExecutionEngine:
    """Schedules a job graph over a runner, with cache and retries."""

    def __init__(
        self,
        runner: Optional[Runner] = None,
        cache: Optional[ResultCache] = None,
        base_seed: int = DEFAULT_SEED,
        default_timeout_s: Optional[float] = None,
        default_retries: int = 0,
        backoff_s: float = 0.05,
        backoff_cap_s: float = 2.0,
        poll_interval_s: float = 0.005,
        metrics: Optional[MetricsRegistry] = None,
        hang_timeout_s: Optional[float] = None,
        checkpoint_root: Optional[str] = None,
        max_resumes: int = 8,
        telemetry: Optional[Any] = None,
    ) -> None:
        if default_retries < 0:
            raise ValueError("default_retries must be non-negative")
        if backoff_s < 0 or backoff_cap_s < 0:
            raise ValueError("backoff must be non-negative")
        if hang_timeout_s is not None and hang_timeout_s <= 0:
            raise ValueError("hang_timeout_s must be positive")
        if max_resumes < 0:
            raise ValueError("max_resumes must be non-negative")
        self.runner: Runner = runner if runner is not None else SerialRunner()
        self.cache = cache
        self.base_seed = base_seed
        self.default_timeout_s = default_timeout_s
        self.default_retries = default_retries
        self.backoff_s = backoff_s
        self.backoff_cap_s = backoff_cap_s
        self.poll_interval_s = poll_interval_s
        self._metrics = metrics
        #: Watchdog: kill a worker whose heartbeats go silent this long.
        self.hang_timeout_s = hang_timeout_s
        #: Directory handed to jobs that declare a ``checkpoint_key``;
        #: the per-job path is injected into the submitted config *after*
        #: cache-key computation, so where a job checkpoints never
        #: changes what result it is keyed under.
        self.checkpoint_root = checkpoint_root
        #: Safety cap on free (progress-backed) resumes per job, so a
        #: job that inches forward forever cannot pin the sweep.
        self.max_resumes = max_resumes
        #: :class:`repro.obs.telemetry.TelemetryOptions` (or None).
        #: When set, every attempt captures metrics/spans/profile in its
        #: worker and the report carries the deterministic merge.
        self.telemetry = telemetry

    # -- policy resolution -------------------------------------------------

    def _effective_config(self, job: Job) -> Optional[dict]:
        config = dict(job.config) if job.config is not None else None
        if job.seed_key is not None:
            config = dict(config or {})
            config[job.seed_key] = derive_seed(self.base_seed, job.id)
        return config

    def _effective_timeout(self, job: Job) -> Optional[float]:
        return job.timeout_s if job.timeout_s is not None else self.default_timeout_s

    def _effective_retries(self, job: Job) -> int:
        return job.retries if job.retries is not None else self.default_retries

    def _backoff(self, failed_attempts: int) -> float:
        return min(self.backoff_cap_s, self.backoff_s * (2 ** (failed_attempts - 1)))

    # -- main loop ---------------------------------------------------------

    def run(self, graph: JobGraph) -> RunReport:
        registry = self._metrics if self._metrics is not None else default_registry()
        tracer = getattr(registry, "tracer", None)
        order = graph.ids()
        #: Latest telemetry payload per job (worker "tel" frames).
        job_telemetry: Dict[str, Optional[dict]] = {}
        configs: Dict[str, Optional[dict]] = {}
        keys: Dict[str, Optional[str]] = {}
        attempts: Dict[str, int] = {jid: 0 for jid in order}
        #: Failed attempts charged against the retry budget (attempts
        #: that lost no progress).
        charged: Dict[str, int] = {jid: 0 for jid in order}
        #: Free progress-backed retries granted so far.
        resumes: Dict[str, int] = {jid: 0 for jid in order}
        #: Highest heartbeat progress any attempt of the job reported.
        progress_hwm: Dict[str, float] = {}
        records: Dict[str, JobRecord] = {}
        ready: list[str] = list(order)
        retry_at: Dict[str, float] = {}
        running: set[str] = set()
        start = time.perf_counter()

        def config_for(jid: str) -> Optional[dict]:
            if jid not in configs:
                configs[jid] = self._effective_config(graph.get(jid))
            return configs[jid]

        def submit_config_for(jid: str) -> Optional[dict]:
            # The checkpoint path is injected only into what the worker
            # receives — never into config_for(), which cache keys and
            # cache artifacts are computed from.
            config = config_for(jid)
            job = graph.get(jid)
            if job.checkpoint_key is None or self.checkpoint_root is None:
                return config
            safe = "".join(
                c if c.isalnum() or c in "-_." else "_" for c in jid
            )
            config = dict(config or {})
            config[job.checkpoint_key] = os.path.join(
                self.checkpoint_root, safe
            )
            return config

        def key_for(jid: str) -> Optional[str]:
            if self.cache is None:
                return None
            if jid not in keys:
                keys[jid] = self.cache.try_key_for(
                    callable_name(graph.get(jid).fn), config_for(jid), job_id=jid
                )
            return keys[jid]

        def finish(jid: str, record: JobRecord) -> None:
            records[jid] = record
            registry.counter(f"exec.jobs.{record.status.value}").inc()
            if tracer is not None:
                tracer.emit(
                    "exec.job", None, None, category="exec",
                    status="ok" if record.status is JobStatus.SUCCEEDED
                    else "error",
                    job=jid, job_status=record.status.value,
                    attempts=record.attempts, cached=record.cached,
                )
            if record.status is JobStatus.SUCCEEDED:
                registry.histogram("exec.job.wall_s").observe(record.wall_time_s)

        def dispatch(jid: str) -> None:
            job = graph.get(jid)
            if attempts[jid] == 0:
                key = key_for(jid)
                if key is not None:
                    artifact = self.cache.get(key)  # type: ignore[union-attr]
                    if artifact is not None:
                        finish(
                            jid,
                            JobRecord(
                                job_id=jid,
                                status=JobStatus.SUCCEEDED,
                                result=artifact["result"],
                                attempts=0,
                                wall_time_s=float(artifact.get("wall_time_s", 0.0)),
                                cached=True,
                                cache_key=key,
                            ),
                        )
                        return
            attempts[jid] += 1
            extras: Dict[str, Any] = {}
            if self.hang_timeout_s is not None:
                extras["hang_timeout_s"] = self.hang_timeout_s
            if self.telemetry is not None:
                extras["telemetry"] = self.telemetry
            try:
                # Bare three-argument form keeps pre-watchdog/-telemetry
                # Runner implementations working when neither is asked.
                self.runner.submit(
                    job, submit_config_for(jid), self._effective_timeout(job),
                    **extras,
                )
            except Exception as exc:  # submission itself failed (e.g. pickling)
                finish(
                    jid,
                    JobRecord(
                        job_id=jid,
                        status=JobStatus.FAILED,
                        error=f"submit failed: {type(exc).__name__}: {exc}",
                        attempts=attempts[jid],
                    ),
                )
                return
            running.add(jid)

        def absorb(attempt: Attempt) -> None:
            jid = attempt.job_id
            running.discard(jid)
            job = graph.get(jid)
            if attempt.telemetry is not None:
                job_telemetry[jid] = attempt.telemetry
            made_progress = attempt.progress is not None and (
                jid not in progress_hwm or attempt.progress > progress_hwm[jid]
            )
            if made_progress:
                progress_hwm[jid] = attempt.progress  # type: ignore[assignment]
            if attempt.status == ATTEMPT_OK:
                result = attempt.result
                key = key_for(jid)
                if key is not None:
                    artifact = self.cache.put(  # type: ignore[union-attr]
                        key,
                        callable_name(job.fn),
                        config_for(jid),
                        attempt.result,
                        attempt.duration_s,
                    )
                    if artifact is not None:
                        # Hand back what a warm hit would hand back (the
                        # JSON-canonical form) so cold and warm runs of a
                        # cached job agree on result types.
                        result = artifact["result"]
                finish(
                    jid,
                    JobRecord(
                        job_id=jid,
                        status=JobStatus.SUCCEEDED,
                        result=result,
                        attempts=attempts[jid],
                        wall_time_s=attempt.duration_s,
                        cache_key=key,
                        resumes=resumes[jid],
                    ),
                )
                return
            if made_progress and resumes[jid] < self.max_resumes:
                # The attempt died/hung/timed out but moved the job's
                # progress high-water mark: the job checkpointed ground
                # we will not lose, so resuming it is free — the retry
                # budget meters lost progress, not attempts.
                resumes[jid] += 1
                registry.counter("exec.jobs.resumed").inc()
                retry_at[jid] = time.perf_counter() + self.backoff_s
                return
            if charged[jid] < self._effective_retries(job):
                charged[jid] += 1
                registry.counter("exec.jobs.retried").inc()
                retry_at[jid] = time.perf_counter() + self._backoff(charged[jid])
                return
            status = (
                JobStatus.TIMEOUT
                if attempt.status == ATTEMPT_TIMEOUT
                else JobStatus.FAILED
            )
            finish(
                jid,
                JobRecord(
                    job_id=jid,
                    status=status,
                    error=attempt.error,
                    attempts=attempts[jid],
                    wall_time_s=attempt.duration_s,
                    cache_key=key_for(jid),
                    resumes=resumes[jid],
                ),
            )

        try:
            while len(records) < len(order):
                progressed = False
                now = time.perf_counter()
                for jid in [j for j, t in retry_at.items() if now >= t]:
                    del retry_at[jid]
                    ready.append(jid)
                while ready and self.runner.capacity() > 0:
                    dispatch(ready.pop(0))
                    progressed = True
                for attempt in self.runner.poll():
                    if attempt.job_id in attempts and attempt.job_id not in records:
                        absorb(attempt)
                        progressed = True
                if progressed:
                    continue
                if running:
                    time.sleep(self.poll_interval_s)
                elif retry_at:
                    wait = min(retry_at.values()) - time.perf_counter()
                    time.sleep(max(0.0, min(wait, 0.1)))
                elif ready:
                    # capacity() == 0 with nothing running: runner bug.
                    raise RuntimeError("runner reports no capacity while idle")
                else:  # pragma: no cover - defensive
                    raise RuntimeError(
                        "engine stalled with unfinished jobs: "
                        f"{sorted(set(order) - set(records))}"
                    )
        finally:
            self.runner.shutdown()

        report = RunReport(
            records={jid: records[jid] for jid in order},
            wall_time_s=time.perf_counter() - start,
            cache_stats=self.cache.stats() if self.cache is not None else {},
            backend=getattr(self.runner, "name", type(self.runner).__name__),
        )
        if self.telemetry is not None:
            # Merge once, after the run, in sorted job order — never at
            # absorb time, which follows nondeterministic pool timing.
            from ..obs.telemetry import merge_job_telemetry

            report.telemetry = merge_job_telemetry(
                {jid: job_telemetry.get(jid) for jid in order}
            )
            if registry.enabled:
                registry.merge_state(report.telemetry["metrics"])
        return report


def run_jobs(
    graph: JobGraph,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    retries: int = 0,
    timeout_s: Optional[float] = None,
    base_seed: int = DEFAULT_SEED,
    metrics: Optional[MetricsRegistry] = None,
    hang_timeout_s: Optional[float] = None,
    checkpoint_root: Optional[str] = None,
    telemetry: Optional[Any] = None,
    backend: Optional[str] = None,
) -> RunReport:
    """One-call convenience: build runner + cache, run the graph.

    ``jobs > 1`` selects the ``pool`` backend; ``cache_dir``
    enables the on-disk result cache; ``hang_timeout_s`` arms the
    heartbeat watchdog and ``checkpoint_root`` gives checkpointing jobs
    a durable home; ``telemetry`` captures per-worker metrics/spans and
    merges them into ``report.telemetry``.  ``backend`` overrides the
    default runner choice by name (``serial``/``pool``/``socket``/
    ``array`` via :func:`repro.exec.backends.make_backend`, with
    ``jobs`` as its parallelism); left unset, ``make_backend`` picks
    ``pool`` when ``jobs > 1`` and ``serial`` otherwise.  This is the
    entry point the CLI and the experiment registry share.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    from .backends import make_backend

    runner = make_backend(backend, jobs=jobs, cache_dir=cache_dir, metrics=metrics)
    cache = ResultCache(cache_dir, metrics=metrics) if cache_dir is not None else None
    engine = ExecutionEngine(
        runner=runner,
        cache=cache,
        base_seed=base_seed,
        default_timeout_s=timeout_s,
        default_retries=retries,
        metrics=metrics,
        hang_timeout_s=hang_timeout_s,
        checkpoint_root=checkpoint_root,
        telemetry=telemetry,
    )
    return engine.run(graph)
