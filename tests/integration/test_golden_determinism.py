"""Golden determinism suite.

The PR3 kernel overhaul (two-lane queue, token-free scheduling,
``schedule_many``) and the vectorized model fast paths are pure
performance work: for a fixed seed, every simulator must execute the
**byte-identical event stream** it executed before.  These tests pin
that down by hashing the executed stream — ``(repr(time), seq,
callback.__qualname__)`` per event, observed through a kernel probe —
plus the kernel's :class:`SimStats`, against recorded goldens.

If a change to the kernel or a model alters any golden here, it changed
observable scheduling behaviour, not just speed; that is either a bug
or a semantic change that must be called out (and these constants
re-recorded) explicitly.

The hashes deliberately cover only the kernel-visible stream (times,
sequence numbers, callback identities) and SimStats — not histogram or
reservoir internals, which may legitimately differ in iteration detail.

Every golden runs once per retired ``REPRO_FASTPATH`` value (``off``,
``auto``) left set in the environment.  The kernel has one drain path
and reads no mode, so a stale setting from an old shell must leave
every stream unchanged.
"""

import hashlib

import numpy as np
import pytest

from repro.core.events import Simulator
from repro.datacenter.cluster import Balancer, ClusterConfig, ClusterSimulator
from repro.datacenter.hedging import kernel_hedged_latencies
from repro.datacenter.latency import lognormal_latency
from repro.interconnect.noc import MeshNoC, NoCConfig
from repro.interconnect.traffic import make_pattern, poisson_injection_times
from repro.sensor.harvest import (
    Harvester,
    IntermittentConfig,
    simulate_intermittent,
)

# Values the retired REPRO_FASTPATH variable used to accept.
RETIRED_MODES = ("off", "auto")


def _probed_sim() -> tuple[Simulator, "hashlib._Hash"]:
    """A simulator whose executed event stream feeds a sha256."""
    sim = Simulator()
    digest = hashlib.sha256()

    def probe(s: Simulator, event) -> None:
        name = getattr(event.callback, "__qualname__", repr(event.callback))
        digest.update(f"{event.time!r}|{event.seq}|{name}\n".encode())

    sim.add_probe(probe)
    return sim, digest


def _drive_cluster(sim: Simulator) -> tuple:
    cluster = ClusterSimulator(
        ClusterConfig(
            n_servers=8,
            balancer=Balancer.JSQ,
            slow_server_fraction=0.25,
            slow_factor=3.0,
        )
    )
    result = cluster.run(arrival_rate=6.0, n_requests=400, rng=123, sim=sim)
    return (result.latencies.tobytes(), result.utilization)


def _drive_hedging(sim: Simulator) -> tuple:
    dist = lognormal_latency(median_ms=10.0, sigma=0.8)
    result = kernel_hedged_latencies(
        dist, 300, trigger_quantile=0.9, rng=7, sim=sim
    )
    return (
        np.asarray(result["latencies"]).tobytes(),
        result["trigger_ms"],
        result["extra_load_fraction"],
    )


def _drive_noc(sim: Simulator) -> tuple:
    cfg = NoCConfig(width=4, height=4)
    pairs = make_pattern("uniform", 300, cfg.width, cfg.height, rng=5)
    times = poisson_injection_times(300, rate_per_cycle=0.8, rng=5)
    result = MeshNoC(cfg).run(pairs, injection_times=times, sim=sim)
    return (
        tuple(p.latency for p in result.delivered),
        result.dropped,
        result.cycles,
    )


def _drive_harvest(sim: Simulator) -> tuple:
    result = simulate_intermittent(
        Harvester(),
        IntermittentConfig(),
        checkpoint_interval_quanta=10,
        n_intervals=2_000,
        rng=3,
        sim=sim,
    )
    return (
        result.total_quanta_completed,
        result.committed_quanta,
        result.re_executed_quanta,
        result.checkpoints,
        result.power_failures,
        result.intervals,
    )


_DRIVERS = {
    "cluster": _drive_cluster,
    "hedging": _drive_hedging,
    "noc": _drive_noc,
    "harvest": _drive_harvest,
}


def _run_probed(name: str) -> tuple[str, int, int, float]:
    sim, digest = _probed_sim()
    _DRIVERS[name](sim)
    s = sim.stats
    return digest.hexdigest(), s.events_executed, s.events_cancelled, s.end_time


# The cluster and harvest goldens were re-recorded in PR8 — a called-out
# semantic change, exactly what this suite exists to surface:
#
# * **cluster**: arrivals are now bulk-loaded as one pre-scheduled train
#   (``schedule_batch``) before the drain starts, instead of scheduled
#   one by one while earlier events execute.  Arrival events therefore
#   carry *older* sequence numbers than any completion at the same
#   timestamp, so exact-time ties order arrival-first.  Ties between an
#   arrival and a completion are measure-zero in this workload: the
#   executed multiset of (time, callback) pairs is unchanged, and
#   SimStats (800 executed / 0 cancelled / end 66.6637403322754) is
#   byte-identical to the pre-PR8 golden.
# * **harvest**: the tick train is pre-scheduled with exact accumulated
#   times (t_{i+1} = t_i + interval) replacing the self-rescheduling
#   PeriodicSource.  The tick callback's qualname changed
#   (simulate_intermittent.<locals>.tick), and end_time is now the
#   accumulated float of the last tick (1999 additions of 0.01 →
#   19.990000000000325) rather than the horizon 19.995 the old
#   always-one-event-ahead source forced the clock onto.  Executed and
#   cancelled counts are unchanged.
GOLDENS = {
    "cluster": (
        "3f8b3911af53821dba1440b5857b47fd819ec5b0bc6421b90e03e3b1446ec698",
        800,
        0,
        66.6637403322754,
    ),
    "hedging": (
        "11bbfc192507de5916e35458abef532afe7910eb2fe34f9998a47802fa81ab6c",
        619,
        300,
        8345.870129856996,
    ),
    "noc": (
        "2c4b7b9a76d9571785843293efa2f11e19553e1ac9fc098ecab5e751080100ab",
        1102,
        0,
        379.0,
    ),
    "harvest": (
        "30a5464eb00b022e0b03a206536bc29e86566462a152f4988baccb18e24707f0",
        2000,
        0,
        19.990000000000325,
    ),
}


@pytest.mark.parametrize("mode", RETIRED_MODES)
@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_stream_matches_golden(name: str, mode: str, monkeypatch):
    monkeypatch.setenv("REPRO_FASTPATH", mode)
    assert _run_probed(name) == GOLDENS[name]


def test_streams_reproducible_run_to_run():
    """Same seed, fresh kernel => identical stream, independent of goldens."""
    for name in _DRIVERS:
        assert _run_probed(name) == _run_probed(name), (
            f"{name} stream not reproducible"
        )


if __name__ == "__main__":
    # Regeneration helper:
    #   PYTHONPATH=src python tests/integration/test_golden_determinism.py
    for name in _DRIVERS:
        print(f'    "{name}": {_run_probed(name)!r},')
