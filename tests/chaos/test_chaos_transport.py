"""Transport chaos: injector determinism, fault kinds, digest parity.

The contract under test is PR9's trust claim: a seeded
:class:`ChaosSocket` replays the exact same fault schedule for the
same (seed, salt), every fault kind produces a *detected* outcome at
the frame layer (typed error or clean EOF — never a hang, never bad
data delivered), and a socket-backend sweep run under chaos finishes
with a ``RunReport.digest()`` identical to a clean run's.
"""

from __future__ import annotations

import os
import signal
import socket
import time

import pytest

from repro.exec.backends.chaos import (
    CHAOS_ENV,
    ChaosConfig,
    ChaosSocket,
    chaos_from_env,
    wrap_socket,
)
from repro.exec.backends.frames import FrameError, recv_frame, send_frame
from repro.exec.backends.socket_worker import SocketWorkerBackend
from repro.exec.engine import ExecutionEngine
from repro.exec.job import Job, JobGraph


# ---------------------------------------------------------------------------
# ChaosConfig: validation, spec strings, env inheritance
# ---------------------------------------------------------------------------


def test_config_rejects_non_probabilities():
    with pytest.raises(ValueError, match="drop"):
        ChaosConfig(drop=1.5)
    with pytest.raises(ValueError, match="bitflip"):
        ChaosConfig(bitflip=-0.1)
    with pytest.raises(ValueError, match="max_delay_ms"):
        ChaosConfig(max_delay_ms=-1.0)


def test_spec_roundtrip():
    config = ChaosConfig(
        seed=7, drop=0.02, duplicate=0.05, bitflip=0.01, max_delay_ms=5.0
    )
    assert ChaosConfig.from_spec(config.to_spec()) == config


def test_spec_unknown_key_fails_loud():
    # A typoed fault name must never silently run a clean campaign.
    with pytest.raises(ValueError, match="bad chaos spec"):
        ChaosConfig.from_spec("seed=1,dorp=0.5")


def test_chaos_from_env(monkeypatch):
    monkeypatch.delenv(CHAOS_ENV, raising=False)
    assert chaos_from_env() is None
    monkeypatch.setenv(CHAOS_ENV, "seed=9,drop=0.25")
    config = chaos_from_env()
    assert config is not None and config.seed == 9 and config.drop == 0.25
    monkeypatch.setenv(CHAOS_ENV, "seed=9")  # no fault armed
    assert chaos_from_env() is None


def test_wrap_socket_passthrough_when_inactive():
    sock = socket.socket()
    try:
        assert wrap_socket(sock, None) is sock
        assert wrap_socket(sock, ChaosConfig(seed=1)) is sock
        wrapped = wrap_socket(sock, ChaosConfig(seed=1, drop=0.5))
        assert isinstance(wrapped, ChaosSocket)
    finally:
        sock.close()


# ---------------------------------------------------------------------------
# ChaosSocket: deterministic schedule, observable fault kinds
# ---------------------------------------------------------------------------


class _Recorder:
    """Just enough socket for ChaosSocket's send path."""

    def __init__(self):
        self.sent: list[bytes] = []

    def sendall(self, data):
        self.sent.append(bytes(data))

    def shutdown(self, how):
        pass

    def close(self):
        pass


def _drive(seed: int, salt: int, frames: int = 120) -> tuple[list, dict]:
    config = ChaosConfig(
        seed=seed, drop=0.25, duplicate=0.25, bitflip=0.25, max_delay_ms=0.0
    )
    recorder = _Recorder()
    chaos = ChaosSocket(recorder, config, salt=salt)  # type: ignore[arg-type]
    for i in range(frames):
        chaos.sendall(f"frame-{i:04d}".encode())
    return recorder.sent, dict(chaos.injected)


def test_same_seed_same_salt_replays_identically():
    sent_a, counts_a = _drive(seed=42, salt=3)
    sent_b, counts_b = _drive(seed=42, salt=3)
    assert sent_a == sent_b
    assert counts_a == counts_b
    assert sum(counts_a.values()) > 0  # chaos actually fired


def test_different_salt_draws_a_different_schedule():
    sent_a, _ = _drive(seed=42, salt=1)
    sent_b, _ = _drive(seed=42, salt=2)
    assert sent_a != sent_b


def _chaos_pair(config: ChaosConfig):
    a, b = socket.socketpair()
    b.settimeout(5.0)
    return wrap_socket(a, config), b


def test_duplicate_delivers_the_frame_twice():
    sender, receiver = _chaos_pair(ChaosConfig(seed=1, duplicate=1.0))
    try:
        send_frame(sender, "res", ("job-1", "ok", {"x": 1}, None))
        assert recv_frame(receiver) == ("res", ("job-1", "ok", {"x": 1}, None))
        assert recv_frame(receiver) == ("res", ("job-1", "ok", {"x": 1}, None))
        assert sender.injected["duplicate"] == 1
    finally:
        sender.close()
        receiver.close()


def test_drop_is_a_clean_nothing():
    sender, receiver = _chaos_pair(ChaosConfig(seed=1, drop=1.0))
    try:
        send_frame(sender, "res", ("job-1", "ok", None, None))
        sender.close()
        assert recv_frame(receiver) is None  # clean EOF, nothing delivered
    finally:
        receiver.close()


def test_bitflip_is_detected_never_delivered():
    sender, receiver = _chaos_pair(ChaosConfig(seed=1, bitflip=1.0))
    try:
        send_frame(sender, "res", ("job-1", "ok", {"deep": [1, 2, 3]}, None))
        sender.close()
        # A flipped bit lands in the header (malformed) or in tag/body
        # (checksum mismatch) — either way a typed FrameError, never a
        # frame that parses into different content.
        with pytest.raises(FrameError):
            recv_frame(receiver)
    finally:
        receiver.close()


def test_truncate_tears_down_and_fails_loud():
    sender, receiver = _chaos_pair(ChaosConfig(seed=1, truncate=1.0))
    try:
        send_frame(sender, "res", ("job-1", "ok", {"x": 1}, None))
        with pytest.raises(FrameError, match="closed"):
            recv_frame(receiver)
    finally:
        receiver.close()


# ---------------------------------------------------------------------------
# End to end: a chaos sweep answers exactly like a clean one
# ---------------------------------------------------------------------------


def _point(config: dict) -> dict:
    i = int(config["i"])
    time.sleep(0.003)
    return {"i": i, "y": (i * 31 + 7) % 101}


def _graph(n: int = 12) -> JobGraph:
    return JobGraph(
        Job(id=f"j{i:02d}", fn=_point, config={"i": i}) for i in range(n)
    )


def _sweep(chaos):
    backend = SocketWorkerBackend(
        spawn=2,
        chaos=chaos,
        worker_chaos=chaos,
        respawn=chaos is not None,
    )
    engine = ExecutionEngine(
        runner=backend, default_retries=8, default_timeout_s=10.0
    )
    return engine.run(_graph())


def test_chaos_sweep_digest_matches_clean_sweep():
    clean = _sweep(None)
    chaotic = _sweep(
        ChaosConfig(
            seed=1234,
            drop=0.01,
            duplicate=0.05,
            delay=0.2,
            truncate=0.02,
            bitflip=0.02,
            max_delay_ms=3.0,
        )
    )
    assert clean.ok and chaotic.ok
    assert clean.digest() == chaotic.digest()


# ---------------------------------------------------------------------------
# Satellite: the last worker dying mid-sweep fails fast, not a hang
# ---------------------------------------------------------------------------


def test_last_worker_death_fails_fast_with_clear_error():
    backend = SocketWorkerBackend(spawn=1, no_worker_timeout_s=60.0)
    try:
        deadline = time.perf_counter() + 10.0
        while time.perf_counter() < deadline:
            workers = backend.describe()["workers"]
            if workers:
                break
            time.sleep(0.01)
        assert workers, "spawned worker never registered"
        os.kill(workers[0]["pid"], signal.SIGKILL)
        # Wait for the coordinator to notice the death (roster empties)
        # so the job is *queued with nobody to run it*, the stranding
        # case, not assigned to a corpse (that is the evict path).
        while time.perf_counter() < deadline:
            if not backend.describe()["workers"]:
                break
            time.sleep(0.01)
        assert not backend.describe()["workers"], "death never noticed"

        backend.submit(Job(id="stranded", fn=_point, config={"i": 1}), None, None)
        start = time.perf_counter()
        attempts = []
        while not attempts and time.perf_counter() - start < 15.0:
            attempts = backend.poll()
            time.sleep(0.01)
        elapsed = time.perf_counter() - start

        assert attempts, "stranded job never failed"
        (attempt,) = attempts
        assert attempt.status == "crash"
        assert "last socket worker died mid-sweep" in (attempt.error or "")
        # The whole point: far faster than the no-worker wall timeout.
        assert elapsed < 10.0
    finally:
        backend.shutdown()
