"""Unit tests for kernel snapshot/restore and the checkpoint layer."""

import json
import os

import pytest

from repro.core.events import (
    Checkpointable,
    FunctionCheckpoint,
    KernelSnapshot,
    SNAPSHOT_VERSION,
    Simulator,
)
from repro.resilience import (
    CheckpointManager,
    JobCheckpointStore,
    SimulatedCrash,
    schedule_crash,
)


class Recorder:
    """Checkpointable model accumulating executed payloads."""

    def __init__(self):
        self.seen = []

    def on_event(self, sim, payload):
        self.seen.append(payload)

    def snapshot_state(self):
        return list(self.seen)

    def restore_state(self, state):
        self.seen[:] = state


class TestKernelSnapshot:
    def test_snapshot_restore_roundtrip_pre_run(self):
        sim = Simulator()
        rec = Recorder()
        sim.register_checkpointable(rec)
        for i in range(5):
            sim.schedule(float(i + 1), rec.on_event, i)
        snap = sim.snapshot(label="start")
        assert snap.version == SNAPSHOT_VERSION
        assert snap.label == "start"
        assert snap.pending == 5
        stats_a = sim.run()
        assert rec.seen == [0, 1, 2, 3, 4]
        a = (stats_a.events_executed, stats_a.events_cancelled, sim.now)

        sim.restore(snap)
        assert rec.seen == []
        stats_b = sim.run()
        assert rec.seen == [0, 1, 2, 3, 4]
        assert (stats_b.events_executed, stats_b.events_cancelled, sim.now) == a

    def test_restore_is_repeatable(self):
        sim = Simulator()
        rec = Recorder()
        sim.register_checkpointable(rec)
        sim.schedule(1.0, rec.on_event, "x")
        snap = sim.snapshot()
        for _ in range(3):
            sim.restore(snap)
            sim.run()
            assert rec.seen == ["x"]

    def test_cancellation_flags_roll_back(self):
        sim = Simulator()
        rec = Recorder()
        sim.register_checkpointable(rec)
        token = sim.schedule(2.0, rec.on_event, "maybe")
        sim.schedule(1.0, rec.on_event, "always")
        snap = sim.snapshot()
        token.cancel()
        sim.run()
        assert rec.seen == ["always"]
        cancelled_first = sim.stats.events_cancelled

        sim.restore(snap)
        assert not token.cancelled  # flag rolled back with the kernel
        sim.run()
        assert rec.seen == ["always", "maybe"]
        assert sim.stats.events_cancelled == cancelled_first - 1

    def test_snapshot_burns_exactly_one_seq(self):
        sim = Simulator()

        def nop(s, p):
            pass

        seq_a = sim.schedule(1.0, nop).seq
        sim.snapshot()
        seq_b = sim.schedule(2.0, nop).seq
        assert seq_b == seq_a + 2  # one seq burned by the snapshot

    def test_mid_run_snapshot_requires_current_seq(self):
        sim = Simulator()
        errors = []

        def taker(s, p):
            try:
                s.snapshot()
            except RuntimeError as exc:
                errors.append(str(exc))

        sim.schedule(1.0, taker)
        sim.run()
        assert errors and "current_seq" in errors[0]

    def test_restore_while_running_raises(self):
        sim = Simulator()
        snap = sim.snapshot()
        errors = []

        def restorer(s, p):
            try:
                s.restore(snap)
            except RuntimeError as exc:
                errors.append(str(exc))

        sim.schedule(1.0, restorer)
        sim.run()
        assert len(errors) == 1

    def test_version_mismatch_rejected(self):
        sim = Simulator()
        snap = sim.snapshot()
        bad = KernelSnapshot(
            version=SNAPSHOT_VERSION + 1,
            label=None,
            now=snap.now,
            next_seq=snap.next_seq,
            burned=snap.burned,
            entries=snap.entries,
            cancelled_seqs=snap.cancelled_seqs,
            events_executed=snap.events_executed,
            events_cancelled=snap.events_cancelled,
            states=snap.states,
        )
        with pytest.raises(ValueError, match="version"):
            sim.restore(bad)

    def test_attach_auto_registers_checkpointables(self):
        class Model(Recorder):
            def bind(self, sim):
                pass

            def reset(self):
                pass

        sim = Simulator()
        model = Model()
        assert isinstance(model, Checkpointable)
        sim.attach(model)
        model.seen.append("state")
        snap = sim.snapshot()
        model.seen.append("extra")
        sim.restore(snap)
        assert model.seen == ["state"]

    def test_function_checkpoint_adapter(self):
        sim = Simulator()
        box = {"n": 1}
        sim.register_checkpointable(FunctionCheckpoint(
            lambda: dict(box), lambda s: (box.clear(), box.update(s)),
        ))
        snap = sim.snapshot()
        box["n"] = 99
        sim.restore(snap)
        assert box == {"n": 1}


class TestCheckpointManager:
    def _busywork(self, sim, n=50, spacing=1.0):
        def nop(s, p):
            pass

        for i in range(n):
            sim.schedule((i + 1) * spacing, nop, i)

    def test_periodic_ticks_and_ring(self):
        sim = Simulator()
        self._busywork(sim, n=50)
        mgr = CheckpointManager(period=10.0, keep=3)
        mgr.arm(sim)
        sim.run(until=49.5)
        assert mgr.taken == 4  # t=10, 20, 30, 40
        assert len(mgr.snapshots) == 3  # ring bounded by keep
        assert mgr.latest.now == 40.0

    def test_double_arm_raises_and_disarm_is_idempotent(self):
        sim = Simulator()
        mgr = CheckpointManager(period=1.0)
        mgr.arm(sim)
        with pytest.raises(RuntimeError, match="already armed"):
            mgr.arm(sim)
        mgr.disarm()
        mgr.disarm()  # idempotent
        mgr.arm(sim)  # re-armable after disarm

    def test_latest_raises_before_first_tick(self):
        mgr = CheckpointManager(period=1.0)
        with pytest.raises(RuntimeError, match="no checkpoint"):
            mgr.latest

    def test_crash_restore_resume_completes(self):
        sim = Simulator()
        rec = Recorder()
        sim.register_checkpointable(rec)
        for i in range(30):
            sim.schedule(float(i + 1), rec.on_event, i)
        mgr = CheckpointManager(period=5.0)
        mgr.arm(sim)
        token = schedule_crash(sim, at=17.5)
        with pytest.raises(SimulatedCrash):
            sim.run()
        assert len(rec.seen) == 17
        sim.restore(mgr.latest)
        # The crash event was pending inside the snapshot; cancel it so
        # the replay does not crash again.
        token.cancel()
        assert len(rec.seen) == 15  # rolled back to the t=15 checkpoint
        sim.run()
        assert rec.seen == list(range(30))


class TestJobCheckpointStore:
    def test_roundtrip(self, tmp_path):
        store = JobCheckpointStore(str(tmp_path))
        path = store.save("sweep/cell 1", {"reps": [1, 2], "hwm": 2})
        assert os.path.exists(path)
        assert store.load("sweep/cell 1") == {"reps": [1, 2], "hwm": 2}

    def test_missing_is_none(self, tmp_path):
        assert JobCheckpointStore(str(tmp_path)).load("nope") is None

    def test_corruption_is_a_miss(self, tmp_path):
        store = JobCheckpointStore(str(tmp_path))
        path = store.save("k", [1, 2, 3])
        with open(path, "w") as fh:
            fh.write("{ not json")
        assert store.load("k") is None

    def test_checksum_tamper_is_a_miss(self, tmp_path):
        store = JobCheckpointStore(str(tmp_path))
        path = store.save("k", {"value": 1})
        with open(path) as fh:
            record = json.load(fh)
        record["state"]["value"] = 2  # tamper without re-hashing
        with open(path, "w") as fh:
            json.dump(record, fh)
        assert store.load("k") is None

    def test_version_mismatch_is_a_miss(self, tmp_path):
        store = JobCheckpointStore(str(tmp_path))
        path = store.save("k", 7)
        with open(path) as fh:
            record = json.load(fh)
        record["version"] = 999
        with open(path, "w") as fh:
            json.dump(record, fh)
        assert store.load("k") is None

    def test_discard(self, tmp_path):
        store = JobCheckpointStore(str(tmp_path))
        store.save("k", 1)
        store.discard("k")
        store.discard("k")  # no-op when absent
        assert store.load("k") is None
