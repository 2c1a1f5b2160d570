"""repro.exec.backends — the execution backends.

The execution layer's backend seam.  Each backend is a
:class:`~repro.exec.runners.Runner` whose ``name`` the run report
carries:

* :mod:`~repro.exec.backends.frames` — the versioned tagged-frame wire
  format socket workers speak (version byte fails loud on mismatch;
  unknown tags skip gracefully).
* :mod:`~repro.exec.backends.socket_worker` — elastic pull-model
  workers over TCP loopback/SSH (``python -m repro workers`` attaches
  external ones), and :class:`PoolBackend`, N spawned loopback workers
  replaced when lost.
* :mod:`~repro.exec.backends.array` — array/batch manifests
  (plan/submit-script/collect) plus an engine-driven batching backend.
* :mod:`~repro.exec.backends.hedge` — :class:`HedgedRunner`, which
  wraps one backend and duplicates any job still running after a fixed
  delay (``repro serve --hedge-ms``).

:func:`make_backend` is the one-string factory the CLI, ``run_jobs``,
the experiment registry and the resilience campaign share:
``"serial"``, ``"pool"``, ``"socket"``, ``"array"`` (workers/shard
counts from the caller's ``jobs``), and the default choice when no
name is given.  Each public name loads its module on first access
(:mod:`repro._lazy`), and :func:`make_backend` imports only the
backend it builds.
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
    "chaos": ("ChaosConfig", "ChaosSocket", "chaos_from_env", "wrap_socket"),
    "frames": ("FRAME_TAGS", "PROTOCOL_VERSION", "FrameCorruptError",
               "FrameError", "FrameProtocolError", "FrameVersionError",
               "recv_frame", "send_frame"),
    "hedge": ("HedgedRunner",),
    "socket_worker": ("PoolBackend", "SocketWorkerBackend",
                      "spawn_local_worker", "worker_main"),
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
        "pool": "N spawned socket workers, replaced when lost (crash "
        "containment + watchdog)",
        "socket": "elastic TCP loopback/SSH workers (pull model, frames)",
        "array": "batch array-task manifests run by local task processes",
    }


def make_backend(
    name: Optional[str],
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

    ``name=None`` picks the default: ``pool`` when ``jobs > 1``, else
    ``serial``.  ``pool`` spawns ``jobs`` loopback socket workers and
    replaces each one lost to a crash, timeout, hang or cancel.
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
    if name is None:
        name = "pool" if jobs > 1 else "serial"
    name = name.strip().lower()
    # Each branch imports only the backend it builds.
    if name == "serial":
        from ..runners import SerialRunner

        return SerialRunner()
    if name == "pool":
        from .socket_worker import PoolBackend

        return PoolBackend(max(1, jobs), metrics=metrics)
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
