"""repro.exec — parallel, cached, fault-tolerant experiment execution.

The paper's agenda is checked by *sweeps* — 22 claim experiments, grid
and Latin-hypercube design-space explorations, ablation benchmarks —
and sweeps only stay usable at scale with a standardized runner.  This
subsystem is that runner, the layer every sweep-shaped workload in the
library sits on:

* :mod:`repro.exec.job` — :class:`Job`/:class:`JobGraph`: picklable
  callables in an insertion-ordered sweep, with deterministic per-job
  seeds.
* :mod:`repro.exec.runners` — the :class:`Runner` protocol and the
  in-process :class:`SerialRunner`.
* :mod:`repro.exec.backends` — the backends: the elastic TCP
  :class:`SocketWorkerBackend` (``python -m repro workers`` attaches
  external workers), the local
  :class:`PoolBackend` (N spawned socket workers, replaced when lost:
  per-job timeout and worker-crash containment), and the batch
  :class:`ArrayBackend` (array-task manifests).  :func:`make_backend`
  builds any of them by name — the CLI's ``--backend`` flag.
* :mod:`repro.exec.cache` — :class:`ResultCache`: content-addressed
  on-disk JSON artifacts keyed by callable + canonical config +
  library version; corruption is a miss, never a crash.
* :mod:`repro.exec.engine` — :class:`ExecutionEngine`: cache
  consultation, bounded retry with exponential backoff, and a
  structured :class:`RunReport`.
* :mod:`repro.exec.heartbeat` — :func:`heartbeat`: worker liveness +
  progress reporting over the worker's connection; powers the pool and
  socket backends' hang watchdog and the engine's lost-progress retry
  accounting.

Consumers: ``ExperimentRegistry.run_all`` (the CLI's ``--jobs/--cache/
--retries`` flags), ``Explorer.run`` for DSE sweeps, and
``benchmarks/bench_exec_engine.py``.

Importing the package loads none of these modules: each public name
loads its module on first access (:mod:`repro._lazy`), so a caller that
needs only :func:`canonicalize` or :func:`derive_seed` never starts
``multiprocessing``, the backends or the event kernel.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "backends": ("ArrayBackend", "PoolBackend", "SocketWorkerBackend",
                 "available_backends", "make_backend"),
    "cache": ("ResultCache", "cache_key", "canonicalize", "repro_version"),
    "engine": ("ExecutionEngine", "JobRecord", "JobStatus", "RunReport",
               "run_jobs"),
    "heartbeat": ("emit_sim_heartbeats", "heartbeat"),
    "job": ("Job", "JobGraph", "callable_name", "derive_seed"),
    "runners": ("Attempt", "Runner", "SerialRunner"),
}

__all__ = sorted(name for names in _EXPORTS.values() for name in names)

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
