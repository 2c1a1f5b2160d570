"""Checkpoint management: periodic kernel snapshots + durable job state.

Two layers, deliberately separate:

* :class:`CheckpointManager` — **in-process** periodic
  :class:`~repro.core.events.KernelSnapshot` capture.  Snapshots hold
  live callback/token references, so they restore only within the
  process that took them; this is the layer the golden crash-resume
  determinism tests exercise (run-straight-through == crash-and-resume,
  same executed-event-stream hash and SimStats).
* :class:`JobCheckpointStore` — **durable, cross-process** job progress.
  A worker process persists small JSON-serializable progress records
  (e.g. "reps 0..k done, partial aggregates") with atomic writes and a
  sha256 checksum; after the watchdog kills a hung worker, the *next*
  attempt of the same job — a fresh process — resumes from the record
  instead of restarting from scratch.  Corruption or version mismatch
  reads as "no checkpoint" (same corruption-as-miss stance as the
  result cache).

:class:`SimulatedCrash`/:func:`schedule_crash` are the test/benchmark
hooks for killing a simulation mid-run at a deterministic simulated
time.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from collections import deque
from typing import Any, Deque, Optional

from ..core.events import CancelToken, KernelSnapshot, Simulator

#: Version tag for persisted job-checkpoint records.
STORE_VERSION = 1


class SimulatedCrash(RuntimeError):
    """Raised by a scheduled crash event to kill a run mid-simulation.

    Escapes ``Simulator.run()`` (whose ``finally`` still synchronizes
    stats and lane state), leaving the simulator restorable via
    :meth:`~repro.core.events.Simulator.restore`.
    """


def _crash(sim: Simulator, message: Any) -> None:
    raise SimulatedCrash(message or f"simulated crash at t={sim.now:g}")


def schedule_crash(
    sim: Simulator, at: float, message: Optional[str] = None
) -> Optional[CancelToken]:
    """Schedule a :class:`SimulatedCrash` at absolute simulated time ``at``."""
    return sim.schedule_at(at, _crash, message)


class CheckpointManager:
    """Takes a kernel snapshot every ``period`` of simulated time.

    Arm on a simulator *before* starting the model run::

        mgr = CheckpointManager(period=5.0)
        mgr.arm(sim)
        try:
            model.run(..., sim=sim)
        except SomeCrash:
            sim.restore(mgr.latest)
            sim.run()   # resumes; replays the identical event stream

    Each tick's :class:`~repro.core.events.CancelToken` carries the
    tick's sequence number (``token.seq``, what a mid-run snapshot
    needs), and the manager re-arms the *next* tick **before**
    snapshotting, so the pending tick is inside every snapshot and the
    checkpoint chain survives a restore.  The manager itself is
    checkpointable — its tick token rolls back with the kernel — while
    the ``snapshots`` ring deliberately does not (you keep your
    checkpoints across a restore).

    ``keep`` bounds the snapshot ring; ``keep=1`` retains only the most
    recent (the common resume-from-latest case).
    """

    def __init__(self, period: float, keep: int = 1) -> None:
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        if keep < 1:
            raise ValueError(f"keep must be >= 1, got {keep}")
        self.period = float(period)
        self.snapshots: Deque[KernelSnapshot] = deque(maxlen=keep)
        self.taken = 0
        self._sim: Optional[Simulator] = None
        self._token: Optional[CancelToken] = None

    # -- Checkpointable (tick chain state rides in each snapshot) ---------

    def snapshot_state(self) -> Any:
        return (self._token, self.taken)

    def restore_state(self, state: Any) -> None:
        self._token, self.taken = state

    # -- lifecycle ---------------------------------------------------------

    @property
    def armed(self) -> bool:
        return self._sim is not None

    @property
    def latest(self) -> KernelSnapshot:
        """Most recent snapshot; raises if none has been taken yet."""
        if not self.snapshots:
            raise RuntimeError("no checkpoint taken yet")
        return self.snapshots[-1]

    def arm(
        self, sim: Simulator, initial_delay: Optional[float] = None
    ) -> "CheckpointManager":
        """Start the periodic checkpoint chain on ``sim``.

        Raises on double-arm (one manager drives one simulator); use
        :meth:`disarm` first to move it.
        """
        if self._sim is not None:
            raise RuntimeError(
                "CheckpointManager is already armed; disarm() first"
            )
        self._sim = sim
        sim.register_checkpointable(self)
        delay = self.period if initial_delay is None else initial_delay
        self._token = sim.schedule(delay, self._tick)
        return self

    def disarm(self) -> None:
        """Stop the chain; idempotent.  Taken snapshots are kept."""
        if self._token is not None:
            self._token.cancel()
        self._token = None
        self._sim = None

    def _tick(self, sim: Simulator, _payload: Any) -> None:
        my_seq = self._token.seq
        # Re-arm first: the next tick must be pending *inside* the
        # snapshot, so the chain keeps firing after a restore.
        self._token = sim.schedule(self.period, self._tick)
        # Count *before* snapshotting: the manager's snapshot_state then
        # carries the post-tick count, so a restore rolls ``taken`` back
        # to exactly the number of checkpoint marks in the (also
        # checkpointable) span sink — resumed runs continue the mark
        # sequence instead of re-issuing the last number.
        self.taken += 1
        tracer = getattr(sim.metrics, "tracer", None)
        if tracer is not None:
            # Spans ride checkpoints: emitted *before* the snapshot so
            # the mark is captured inside it.  A restore truncates the
            # span sink back to exactly this point, and since the
            # consumed tick never replays, emitting after the snapshot
            # would lose the mark on every resumed run.
            tracer.emit("resilience.checkpoint", sim.now, sim.now,
                        taken=self.taken)
        snap = sim.snapshot(label=f"t={sim.now:g}", current_seq=my_seq)
        self.snapshots.append(snap)
        scope = sim.metrics.scoped("resilience")
        scope.counter("checkpoints_taken").inc()
        scope.gauge("checkpoint_pending_events").set(snap.pending)
        # Stop the chain once our own tick is the only live pending
        # event: an armed manager must not keep a drained kernel
        # running forever.  The snapshot gives the exact live count
        # (the kernel's lane cursor is stale inside a callback).  The
        # decision replays identically after a restore, so straight and
        # crash-resume runs stay in lockstep.
        live_others = snap.pending - len(snap.cancelled_seqs) - 1
        if live_others <= 0:
            self._token.cancel()
            self._token = None


class JobCheckpointStore:
    """Durable JSON progress records, one file per key, corruption-safe.

    Records are written atomically (temp file + ``os.replace``) with an
    embedded sha256 over the canonical payload; a torn, corrupted, or
    version-mismatched file loads as ``None`` ("no checkpoint"), so the
    worst a bad record can do is cost recomputation — never wrong
    results.  This is the persistence layer behind watchdog resume:
    worker processes save progress as they go, and a replacement attempt
    of the same job (fresh process, after a hang or crash) starts from
    the last record.
    """

    def __init__(self, root: str) -> None:
        self.root = str(root)

    def _path(self, key: str) -> str:
        safe = "".join(
            c if c.isalnum() or c in "-_." else "_" for c in str(key)
        )
        return os.path.join(self.root, f"{safe}.ckpt.json")

    def save(self, key: str, state: Any) -> str:
        """Atomically persist ``state`` (JSON-serializable) under ``key``."""
        payload = json.dumps(state, sort_keys=True, separators=(",", ":"))
        record = {
            "version": STORE_VERSION,
            "key": str(key),
            "sha256": hashlib.sha256(payload.encode()).hexdigest(),
            "state": state,
        }
        path = self._path(key)
        os.makedirs(self.root, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=self.root, prefix=".tmp-", suffix=".ckpt"
        )
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(record, fh, sort_keys=True)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return path

    def load(self, key: str) -> Optional[Any]:
        """Return the state saved under ``key``, or ``None`` if absent,
        corrupt, or from an incompatible store version."""
        path = self._path(key)
        try:
            with open(path) as fh:
                record = json.load(fh)
        except (OSError, ValueError):
            return None
        if not isinstance(record, dict):
            return None
        if record.get("version") != STORE_VERSION:
            return None
        state = record.get("state")
        payload = json.dumps(state, sort_keys=True, separators=(",", ":"))
        if hashlib.sha256(payload.encode()).hexdigest() != record.get(
            "sha256"
        ):
            return None
        return state

    def discard(self, key: str) -> None:
        """Remove the record for ``key`` (no-op if absent)."""
        try:
            os.unlink(self._path(key))
        except OSError:
            pass
