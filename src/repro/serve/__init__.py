"""repro.serve — the long-running experiment service.

Turns the registry/engine into a service judged the way the paper says
21st-century systems are judged: sustained throughput and tail latency
under many concurrent clients, not single-run speed.

* :mod:`~repro.serve.server` — stdlib-asyncio HTTP/JSON API
  (``POST /v1/experiments``, ``GET /v1/runs/<id>``, ``GET /metrics``
  via the shared Prometheus exporter, ``GET /healthz``).
* :mod:`~repro.serve.admission` — bounded queue + in-flight limit;
  saturation sheds with 429 + ``Retry-After``.
* :mod:`~repro.serve.coalesce` — identical design points (same exec
  cache key) become one backend job; results fan out to all waiters;
  repeats serve straight from cache.
* :mod:`~repro.serve.dispatch` — the pump driving admission through
  any :func:`~repro.exec.backends.make_backend` backend.
* :mod:`~repro.serve.workloads` — the servable design-point catalog.
* :mod:`~repro.serve.boot` / :mod:`~repro.serve.client` — composition
  and embedding helpers (thread-hosted server, blocking/async clients).
* :mod:`~repro.serve.cli` — ``python -m repro serve`` (+ ``--selftest``).

Benchmarked by ``benchmarks/serve_load.py`` (open-loop arrival trains,
run-table artifact, BENCH_PR7.json gates).

Each public name loads its module on first access (:mod:`repro._lazy`),
so ``from repro.serve.client import ServeClient`` stays stdlib-only: it
loads neither the server nor numpy, ``repro.core`` or ``repro.exec``.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "admission": ("AdmissionController", "QueueFull"),
    "boot": ("ServerThread", "build_app"),
    "client": ("ServeClient", "arequest"),
    "coalesce": ("Coalescer", "RunRecord"),
    "dispatch": ("Dispatcher",),
    "server": ("ExperimentServer",),
    "workloads": ("WORKLOADS", "DesignPoint", "design_point"),
}

__all__ = sorted(name for names in _EXPORTS.values() for name in names)

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS, submodules=("cli",))
