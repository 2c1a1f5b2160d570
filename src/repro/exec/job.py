"""Job and job-graph model for the experiment execution engine.

A :class:`Job` is one unit of work — a picklable callable plus an
optional configuration mapping — identified by a stable string id.
A :class:`JobGraph` is a sweep: an insertion-ordered set of
independent jobs, scheduled in the order they were added.

Determinism is a first-class concern.  The paper's claims are checked
by reproducing numbers, so a job's random stream must not depend on
which worker ran it, in what order, or after how many retries.
:func:`derive_seed` maps ``(base_seed, job_id)`` to a stable 63-bit
seed via SHA-256 — never Python's salted ``hash`` — and the engine
injects it into the job's config when ``seed_key`` is set.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Mapping, Optional

__all__ = ["Job", "JobGraph", "callable_name", "derive_seed", "invoke"]


def callable_name(fn: Callable[..., Any]) -> str:
    """Stable dotted name for a callable (cache-key ingredient).

    ``functools.partial`` wrappers are unwrapped to the underlying
    function; bound arguments belong in the job config, which is hashed
    separately.
    """
    if isinstance(fn, functools.partial):
        return callable_name(fn.func)
    module = getattr(fn, "__module__", None) or "<unknown>"
    qualname = (
        getattr(fn, "__qualname__", None)
        or getattr(fn, "__name__", None)
        or type(fn).__name__
    )
    return f"{module}.{qualname}"


def derive_seed(base_seed: int, job_id: str) -> int:
    """Deterministic per-job seed: stable across processes and runs.

    Uses SHA-256 over ``"{base_seed}:{job_id}"`` rather than ``hash()``
    (which is salted per interpreter) so the same sweep always hands the
    same stream to the same job, no matter which worker executes it.
    """
    digest = hashlib.sha256(f"{int(base_seed)}:{job_id}".encode()).digest()
    return int.from_bytes(digest[:8], "big") % (2**63)


def invoke(fn: Callable[..., Any], config: Optional[Mapping[str, Any]]) -> Any:
    """The single calling convention shared by every runner.

    ``config is None`` means a zero-argument job (the experiment
    registry's ``run`` callables); otherwise the config dict is passed
    as the sole positional argument (the DSE evaluator convention).
    """
    return fn() if config is None else fn(dict(config))


@dataclass(frozen=True)
class Job:
    """One schedulable unit of work.

    ``timeout_s``/``retries`` of ``None`` defer to the engine defaults.
    ``seed_key``, when set, asks the engine to inject the job's derived
    seed into the config under that key before execution (and before
    cache-key computation, so different seeds are distinct artifacts).
    ``checkpoint_key``, when set, asks the engine to inject a per-job
    durable checkpoint path (under the engine's ``checkpoint_root``)
    into the config under that key — *after* cache-key computation,
    since where a job checkpoints must not change its artifact identity.
    The job function is expected to save/resume its own progress there
    (see :class:`repro.resilience.JobCheckpointStore`).
    """

    id: str
    fn: Callable[..., Any]
    config: Optional[Mapping[str, Any]] = None
    timeout_s: Optional[float] = None
    retries: Optional[int] = None
    seed_key: Optional[str] = None
    checkpoint_key: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.id or not isinstance(self.id, str):
            raise ValueError(f"job id must be a non-empty string, got {self.id!r}")
        if not callable(self.fn):
            raise TypeError(f"job {self.id}: fn must be callable")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError(f"job {self.id}: timeout_s must be positive")
        if self.retries is not None and self.retries < 0:
            raise ValueError(f"job {self.id}: retries must be non-negative")


class JobGraph:
    """Independent jobs keyed by id, in insertion order.

    Insertion order is the run order: the engine dispatches, and
    :func:`~repro.exec.backends.array.plan_array` shards, in the order
    jobs were added, which keeps serial runs reproducible and cache
    layouts stable.
    """

    def __init__(self, jobs: Iterable[Job] = ()) -> None:
        self._jobs: Dict[str, Job] = {}
        for job in jobs:
            self.add(job)

    def add(self, job: Job) -> Job:
        if job.id in self._jobs:
            raise ValueError(f"duplicate job id {job.id!r}")
        self._jobs[job.id] = job
        return job

    def add_call(self, job_id: str, fn: Callable[..., Any], **kwargs: Any) -> Job:
        """Convenience: build and add a :class:`Job` in one step."""
        return self.add(Job(id=job_id, fn=fn, **kwargs))

    def get(self, job_id: str) -> Job:
        try:
            return self._jobs[job_id]
        except KeyError:
            raise KeyError(f"unknown job {job_id!r}") from None

    def ids(self) -> list[str]:
        return list(self._jobs)

    def jobs(self) -> list[Job]:
        return list(self._jobs.values())

    def __len__(self) -> int:
        return len(self._jobs)

    def __contains__(self, job_id: object) -> bool:
        return job_id in self._jobs
