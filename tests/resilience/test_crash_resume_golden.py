"""Golden crash-resume determinism (PR4 tentpole).

For every kernel-hosted model, a run that crashes mid-flight and
resumes from the last periodic checkpoint must execute **exactly** the
event stream of a run that never crashed: same ``(time, seq,
callback)`` triples, same :class:`SimStats`, same final clock.  That is
the determinism guarantee that makes checkpoint/restart safe to use
under the paper's reproducibility standard — a resumed experiment *is*
the experiment.

Technique: the executed stream is recorded as lines through a kernel
probe; the line list is itself registered as a checkpointable, so a
restore truncates it back to the snapshot point exactly as the kernel
discards post-snapshot events.  The crash is a ``_CrashOnce`` event
scheduled in **both** runs (disarmed in the straight run) so the two
runs issue identical sequence numbers; on replay after the restore it
re-executes as a no-op, exactly like any other replayed event.

Each model runs once per retired ``REPRO_FASTPATH`` value (``off``,
``auto``) left set in the environment; the kernel reads no mode, so a
stale setting must not change the straight run or the resumed one.
"""

import pytest

from repro.core.events import FunctionCheckpoint, Simulator
from repro.datacenter.cluster import Balancer, ClusterConfig, ClusterSimulator
from repro.datacenter.hedging import kernel_hedged_latencies
from repro.datacenter.latency import lognormal_latency
from repro.interconnect.noc import MeshNoC, NoCConfig
from repro.interconnect.traffic import make_pattern, poisson_injection_times
from repro.resilience import CheckpointManager, SimulatedCrash
from repro.sensor.harvest import (
    Harvester,
    IntermittentConfig,
    simulate_intermittent,
)

# Values the retired REPRO_FASTPATH variable used to accept.
RETIRED_MODES = ("off", "auto")


def _crash_once(sim: Simulator, box: dict) -> None:
    """Crash event: raises when armed, no-ops on replay (and in the
    straight-run twin, which schedules it disarmed for seq parity)."""
    if box["armed"]:
        box["armed"] = False
        raise SimulatedCrash(f"injected crash at t={sim.now:g}")


def _recorded_sim():
    """Simulator whose executed stream is a checkpointable line list."""
    sim = Simulator()
    lines: list[str] = []

    def probe(s: Simulator, event) -> None:
        name = getattr(event.callback, "__qualname__", repr(event.callback))
        lines.append(f"{event.time!r}|{event.seq}|{name}")

    sim.add_probe(probe)
    # Every snapshot here is taken inside a CheckpointManager tick, and
    # probes fire *after* the callback returns — so the tick's own line
    # lands right after the snapshot is captured, yet the tick is
    # already consumed and will not replay.  The stream position at the
    # checkpoint therefore includes the in-flight tick: len + 1.
    sim.register_checkpointable(FunctionCheckpoint(
        lambda: len(lines) + 1,
        lambda n: lines.__delitem__(slice(n, None)),
    ))
    return sim, lines


def _stats(sim: Simulator):
    s = sim.stats
    return (s.events_executed, s.events_cancelled, s.end_time, sim.now)


def _run(model_fn, period, crash_at, armed, resume_until):
    """One run; ``armed=False`` is the straight-through reference (the
    crash event is still scheduled, disarmed, so both runs issue the
    identical sequence-number stream)."""
    sim, lines = _recorded_sim()
    mgr = CheckpointManager(period=period, keep=2)
    mgr.arm(sim)
    sim.schedule_at(crash_at, _crash_once, {"armed": armed})
    if not armed:
        model_fn(sim)
    else:
        with pytest.raises(SimulatedCrash):
            model_fn(sim)
        assert mgr.taken > 0, "crash must land after the first checkpoint"
        sim.restore(mgr.latest)
        if resume_until is None:
            sim.run()
        else:
            sim.run(until=resume_until)
    return lines, _stats(sim)


def _assert_resume_matches(model_fn, period, crash_at, resume_until=None):
    straight_lines, straight_stats = _run(
        model_fn, period, crash_at, False, resume_until
    )
    resumed_lines, resumed_stats = _run(
        model_fn, period, crash_at, True, resume_until
    )
    assert resumed_lines == straight_lines
    assert resumed_stats == straight_stats


@pytest.mark.parametrize("mode", RETIRED_MODES)
def test_cluster_crash_resume_is_deterministic(mode, monkeypatch):
    monkeypatch.setenv("REPRO_FASTPATH", mode)
    def run(sim):
        ClusterSimulator(ClusterConfig(
            n_servers=8,
            balancer=Balancer.JSQ,
            slow_server_fraction=0.25,
            slow_factor=3.0,
        )).run(arrival_rate=6.0, n_requests=400, rng=123, sim=sim)

    # Straight run ends ~66.7s; checkpoint every 10, crash at 35.
    _assert_resume_matches(run, period=10.0, crash_at=35.0)


@pytest.mark.parametrize("mode", RETIRED_MODES)
def test_hedging_crash_resume_is_deterministic(mode, monkeypatch):
    monkeypatch.setenv("REPRO_FASTPATH", mode)
    def run(sim):
        dist = lognormal_latency(median_ms=10.0, sigma=0.8)
        kernel_hedged_latencies(dist, 300, trigger_quantile=0.9, rng=7, sim=sim)

    # Straight run ends ~8346ms; checkpoint every 1000, crash at 4500.
    _assert_resume_matches(run, period=1000.0, crash_at=4500.0)


@pytest.mark.parametrize("mode", RETIRED_MODES)
def test_noc_crash_resume_is_deterministic(mode, monkeypatch):
    monkeypatch.setenv("REPRO_FASTPATH", mode)
    cfg = NoCConfig(width=4, height=4)
    pairs = make_pattern("uniform", 300, cfg.width, cfg.height, rng=5)
    times = poisson_injection_times(300, rate_per_cycle=0.8, rng=5)

    def run(sim):
        MeshNoC(cfg).run(pairs, injection_times=times, sim=sim)

    # Straight run drains ~cycle 379; checkpoint every 60, crash at 210.
    _assert_resume_matches(
        run, period=60.0, crash_at=210.0, resume_until=200_000.0
    )


@pytest.mark.parametrize("mode", RETIRED_MODES)
def test_harvest_crash_resume_is_deterministic(mode, monkeypatch):
    monkeypatch.setenv("REPRO_FASTPATH", mode)
    def run(sim):
        simulate_intermittent(
            Harvester(),
            IntermittentConfig(),
            checkpoint_interval_quanta=10,
            n_intervals=2_000,
            rng=3,
            sim=sim,
        )

    # Straight run ends at 19.995s; checkpoint every 3, crash at 11.
    _assert_resume_matches(
        run, period=3.0, crash_at=11.0, resume_until=(2_000 - 0.5) * 0.01
    )
