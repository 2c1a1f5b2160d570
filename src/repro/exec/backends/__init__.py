"""repro.exec.backends — routed multi-backend execution.

The execution layer's backend seam, grown out of the hardwired
serial/process-pool pair when ``repro.exec`` went multi-host:

* :mod:`~repro.exec.backends.base` — the :class:`Backend` protocol:
  a :class:`~repro.exec.runners.Runner` that describes itself via
  :class:`BackendCapabilities` (parallelism, heartbeat, preemption,
  locality tags).
* :mod:`~repro.exec.backends.frames` — the versioned tagged-frame wire
  format socket workers speak (version byte fails loud on mismatch;
  unknown tags skip gracefully).
* :mod:`~repro.exec.backends.socket_worker` — elastic pull-model
  workers over TCP loopback/SSH; ``python -m repro workers`` attaches
  external ones.
* :mod:`~repro.exec.backends.array` — array/batch manifests
  (plan/submit-script/collect) plus an engine-driven batching backend.
* :mod:`~repro.exec.backends.router` — :class:`BackendRouter`, a
  Runner facade that places each job on one named backend per an
  explicit :class:`RoutingPolicy`.

:func:`make_backend` is the one-string factory the CLI and
``run_jobs`` share: ``"serial"``, ``"pool"``, ``"socket"``,
``"array"`` (workers/shard counts from the caller's ``jobs``).  Each
public name loads its module on first access (:mod:`repro._lazy`), and
:func:`make_backend` imports only the backend it builds.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

from ..._lazy import lazy_exports

if TYPE_CHECKING:
    from ..runners import Runner
    from .chaos import ChaosConfig

_EXPORTS = {
    "array": ("ArrayBackend", "collect", "emit_submit_script", "plan_array",
              "run_array_task"),
    "base": ("Backend", "BackendCapabilities", "capabilities_of"),
    "chaos": ("ChaosConfig", "ChaosSocket", "chaos_from_env", "wrap_socket"),
    "frames": ("FRAME_TAGS", "PROTOCOL_VERSION", "FrameCorruptError",
               "FrameError", "FrameProtocolError", "FrameVersionError",
               "recv_frame", "send_frame"),
    "router": ("BackendRouter", "HedgePolicy", "RoutingError",
               "RoutingPolicy", "VerifyPolicy"),
    "socket_worker": ("SocketWorkerBackend", "spawn_local_worker",
                      "worker_main"),
}

__all__ = sorted(
    [name for names in _EXPORTS.values() for name in names]
    + ["available_backends", "make_backend"]
)

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

#: Backend names ``make_backend`` understands (the CLI's ``--backend``).
BACKEND_NAMES = ("serial", "pool", "socket", "array")


def available_backends() -> dict[str, str]:
    """Name -> one-line description of every constructible backend."""
    return {
        "serial": "in-process, one job at a time (closure-safe fallback)",
        "pool": "one local process per attempt (crash containment + watchdog)",
        "socket": "elastic TCP loopback/SSH workers (pull model, frames)",
        "array": "batch array-task manifests run by local task processes",
    }


def make_backend(
    name: str,
    jobs: int = 1,
    *,
    port: int = 0,
    spawn: Optional[int] = None,
    array_root: Optional[str] = None,
    cache_dir: Optional[str] = None,
    metrics: Optional[Any] = None,
    chaos: Optional[ChaosConfig] = None,
    respawn: bool = False,
) -> Runner:
    """Build a backend by name; ``jobs`` sets its parallelism.

    ``socket`` spawns ``spawn`` loopback workers (default: ``jobs``;
    ``spawn=0`` with an explicit ``port`` waits for external workers
    attached via ``python -m repro workers``).  ``array`` shards into
    tasks of ``max(1, jobs)`` jobs run two shards at a time under
    ``array_root`` (a temp directory when unset) against the shared
    ``cache_dir``.  ``chaos`` arms the transport fault injector on both
    sides of the socket backend's links (see
    :mod:`repro.exec.backends.chaos`), and ``respawn`` keeps its
    loopback roster alive under that abuse.
    """
    name = (name or "").strip().lower()
    # Each branch imports only the backend it builds.
    if name == "serial":
        from ..runners import SerialRunner

        return SerialRunner()
    if name == "pool":
        from ..runners import ProcessPoolRunner

        return ProcessPoolRunner(max(1, jobs))
    if name == "socket":
        from .socket_worker import SocketWorkerBackend

        n = jobs if spawn is None else spawn
        return SocketWorkerBackend(
            spawn=max(0, n),
            port=port,
            metrics=metrics,
            chaos=chaos,
            worker_chaos=chaos,
            respawn=respawn,
        )
    if name == "array":
        import tempfile

        from .array import ArrayBackend

        root = array_root or tempfile.mkdtemp(prefix="repro-array-")
        return ArrayBackend(
            root,
            shard_size=max(1, jobs),
            max_parallel=2,
            cache_dir=cache_dir,
        )
    raise ValueError(
        f"unknown backend {name!r}; choose from {', '.join(BACKEND_NAMES)}"
    )
