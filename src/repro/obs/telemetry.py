"""Cross-process telemetry: capture in the worker, merge in the engine.

The exec engine's workers (socket-worker processes of the ``pool`` and
``socket`` backends, or the in-process :class:`SerialRunner`) run model
code that reports into whatever session registry the process has.
This module scopes a **fresh** private registry + tracer (+ optional
profiler) around one job attempt, then packages everything into a
picklable payload the worker ships back as a ``tel`` frame just before
the result frame.

Scoping a fresh session per attempt — and saving/restoring whatever
session surrounded it — is what makes the serial and worker-process
executions of the same job produce byte-identical span streams: in
every case the job sees exactly one pristine registry whose only spans
are its own, however many jobs its worker ran before.

The engine merges payloads **only after the run completes, in sorted
job-id order** (never at absorb time, which is pool-scheduling-order
and hence nondeterministic).  Metric merge semantics are the
conflict-free rules of :meth:`repro.core.instrument.MetricsRegistry.
merge_state`; profiles add; span streams stay per-job.

The transport is irrelevant to the merge: because merging keys on job
id — not on arrival order, worker identity, or wire format — a sweep
run over TCP workers merges byte-identically to the same sweep run
serial (``RunReport.digest()`` pins this).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional

from repro.core import events as _events
from repro.core import instrument as _instrument
from repro.core.instrument import MetricsRegistry

from .profile import SimProfiler
from .spans import DEFAULT_SPAN_CAPACITY, SpanRecord, Tracer

__all__ = [
    "TelemetryOptions",
    "WorkerTelemetry",
    "begin_worker",
    "merge_job_telemetry",
    "payload_spans",
]


@dataclass(frozen=True)
class TelemetryOptions:
    """What to capture in each worker; must stay picklable (it crosses
    the fork/spawn boundary inside the job submission)."""

    trace_capacity: int = DEFAULT_SPAN_CAPACITY
    profile_period: int = 0  #: 0 disables the profiler
    trace: bool = True


class WorkerTelemetry:
    """One attempt's capture scope; create via :func:`begin_worker`.

    Usage (what the runners do)::

        tel = begin_worker(options)
        try:
            result = invoke(fn, config)
        finally:
            payload = tel.finish()   # always restores prior session
    """

    __slots__ = ("registry", "tracer", "profiler", "_prev_session", "_hook",
                 "_finished")

    def __init__(self, options: TelemetryOptions) -> None:
        self.registry = MetricsRegistry(enabled=True)
        self.tracer: Optional[Tracer] = None
        self.profiler: Optional[SimProfiler] = None
        if options.trace:
            self.tracer = Tracer(capacity=options.trace_capacity)
            self.registry.tracer = self.tracer
        if options.profile_period:
            self.profiler = SimProfiler(period=options.profile_period)
        self._prev_session = _instrument.install_session(self.registry)
        self._finished = False

        registry = self.registry
        tracer = self.tracer
        profiler = self.profiler

        def hook(sim: Any) -> None:
            # Only simulators born onto *this* attempt's registry: a job
            # that passes its own metrics= stays out of the capture.
            if sim.metrics is not registry:
                return
            if tracer is not None:
                sim.register_checkpointable(tracer.sink)
            if profiler is not None:
                profiler.attach(sim)

        self._hook = hook
        _events.add_init_hook(hook)

    def finish(self) -> dict:
        """Tear down the scope and return the telemetry payload (idempotent)."""
        if self._finished:
            raise RuntimeError("telemetry scope already finished")
        self._finished = True
        _events.remove_init_hook(self._hook)
        _instrument.install_session(self._prev_session)
        payload: dict = {"metrics": self.registry.to_state()}
        if self.tracer is not None:
            payload["spans"] = [s.to_dict() for s in self.tracer.sink.records()]
            payload["spans_dropped"] = self.tracer.sink.dropped
        else:
            payload["spans"] = []
            payload["spans_dropped"] = 0
        payload["profile"] = self.profiler.stacks() if self.profiler else {}
        return payload


def begin_worker(options: TelemetryOptions) -> WorkerTelemetry:
    """Open a fresh capture scope around one job attempt."""
    return WorkerTelemetry(options)


def payload_spans(payload: Mapping) -> list:
    """Rehydrate a payload's span dicts into :class:`SpanRecord`\\ s."""
    return [SpanRecord.from_dict(d) for d in payload.get("spans", ())]


def merge_job_telemetry(payloads: Mapping[str, Optional[dict]]) -> dict:
    """Deterministically merge per-job payloads into one report blob.

    ``payloads`` maps job id -> telemetry payload (None entries — jobs whose
    worker died before the telemetry frame — are skipped but listed in
    ``missing``).  Jobs are visited in sorted id order, so the merged
    registry and profile are independent of pool scheduling.
    """
    merged = MetricsRegistry(enabled=True)
    profile: Dict[str, int] = {}
    spans: Dict[str, list] = {}
    dropped = 0
    missing = []
    for job_id in sorted(payloads):
        payload = payloads[job_id]
        if payload is None:
            missing.append(job_id)
            continue
        merged.merge_state(payload.get("metrics", {}))
        for stack, count in payload.get("profile", {}).items():
            profile[stack] = profile.get(stack, 0) + count
        spans[job_id] = list(payload.get("spans", ()))
        dropped += payload.get("spans_dropped", 0)
    return {
        "metrics": merged.to_state(),
        "spans": spans,
        "spans_dropped": dropped,
        "profile": dict(sorted(profile.items())),
        "missing": missing,
    }
