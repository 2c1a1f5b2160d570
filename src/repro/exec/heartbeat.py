"""Worker heartbeats: liveness + progress over the worker's connection.

Job functions call :func:`heartbeat` as they make progress.  Inside a
worker process (the ``pool`` and ``socket`` backends, see
:mod:`repro.exec.backends.socket_worker`), the worker has installed an
emitter that forwards each beat — a monotonically nondecreasing
``progress`` float, typically simulated time or completed reps — to
the coordinator as an ``hb`` frame.  (The same connection carries the
attempt's telemetry as a single optional ``tel`` frame just before
the final ``res`` frame when the run has
:class:`~repro.obs.telemetry.TelemetryOptions` enabled.)
The coordinator uses beats two ways:

* **hang detection** — once a job has emitted at least one beat, silence
  longer than ``hang_timeout_s`` classifies the worker as ``hung`` and
  it is killed well before the wall-clock timeout;
* **progress-aware retry** — the engine tracks each job's progress
  high-water mark; a failed attempt that advanced it is resumed for
  free rather than charged against the retry budget (the budget meters
  *lost progress*, not attempts).

Outside a worker (serial runner, plain function call, unit test) the
emitter is a no-op unless one is installed, so instrumented job
functions run unchanged everywhere.  For kernel-based jobs,
:func:`emit_sim_heartbeats` hangs a beat on a simulator's periodic
sampler so simulated time itself is the liveness signal — a wedged
event loop stops beating even though the process is alive.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

if TYPE_CHECKING:
    from ..core.events import CancelToken, Simulator

_emitter: Optional[Callable[[float], None]] = None


def install_emitter(emitter: Callable[[float], None]) -> None:
    """Install the process-global beat sink (runner-internal)."""
    global _emitter
    _emitter = emitter


def clear_emitter() -> None:
    global _emitter
    _emitter = None


def heartbeat(progress: float) -> bool:
    """Report liveness + progress; returns True if a sink consumed it.

    Safe to call from any job function: without an installed emitter it
    is a no-op, and a broken connection (coordinator already gone) is
    swallowed — a dying worker must not mask the job's real outcome with
    an unrelated socket error.
    """
    emitter = _emitter
    if emitter is None:
        return False
    try:
        emitter(float(progress))
    except (BrokenPipeError, OSError):
        return False
    return True


def emit_sim_heartbeats(sim: Simulator, period: float) -> CancelToken:
    """Beat with ``sim.now`` every ``period`` of *simulated* time.

    Returns the sampler chain's cancel token.
    """
    return sim.sample_every(period, lambda s: heartbeat(s.now))
