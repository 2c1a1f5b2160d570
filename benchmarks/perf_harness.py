"""Measurement core for the performance harness (PR3).

Every number the repo publishes about its own speed flows through this
module so that "before" and "after" are always measured the same way:

* **warmup + best-of-N medians** — each configuration runs once to warm
  allocators/caches/bytecode, then ``repeats`` timed runs; the median is
  reported.  Single cold runs (the pre-PR3 bench's methodology) were
  30-50% noisy run-to-run.
* **two timed regions, never mixed** — *drain* rates time ``sim.run()``
  over a pre-loaded queue (the historical bench_kernel_throughput
  semantics, and where the PR3 run-loop rewrite shows up); *end-to-end*
  rates time scheduling plus the drain (where ``cancellable=False`` and
  ``schedule_many`` show up).
* **feature detection** — configurations that exercise PR3 APIs probe
  for them and skip when absent, so the identical harness can time a
  pre-PR3 kernel checkout for honest before/after tables.

Used by ``bench_kernel_throughput.py`` (pytest) and ``perf_smoke.py``
(CLI that records ``BENCH_PR3.json`` and gates CI).
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, Dict, Iterable, Optional

from repro.core.events import Simulator
from repro.core.instrument import MetricsRegistry

N_EVENTS = 200_000
DEFAULT_REPEATS = 5
DEFAULT_EXPERIMENT_REPEATS = 3
# The kernel-bound experiments PR3 targets: the three slowest pre-PR3
# (E14 sensor pipeline, E19 fault campaign, E11 NVM lifetime) plus two
# event-kernel-heavy ones (E07 tail-at-scale, E22 analytics cluster).
EXPERIMENT_IDS = ("E07", "E11", "E14", "E19", "E22")


def best_of(
    fn: Callable[[], object], repeats: int = DEFAULT_REPEATS, warmup: int = 1
) -> float:
    """Median wall-clock seconds of ``repeats`` runs after ``warmup``."""
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    for _ in range(warmup):
        fn()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


_times_cache: Optional[list[float]] = None


def _times() -> list[float]:
    global _times_cache
    if _times_cache is None:
        _times_cache = [float(i) for i in range(N_EVENTS)]
    return _times_cache


def _noop(s: Simulator, payload) -> None:
    pass


# ---------------------------------------------------------------------------
# Drain configurations: build() returns a loaded simulator; the timed
# region is sim.run() only — raw event-dispatch throughput.
# ---------------------------------------------------------------------------


def build_bare() -> Simulator:
    """The tentpole configuration: no instrumentation, bulk-loaded.

    The train is loaded with ``schedule_many`` and every event is
    dispatched to a no-op handler, so the drain rate is the kernel's own
    per-event cost (the ``bare`` definition of ``BENCH_PR3.json``).
    """
    sim = Simulator()
    try:
        sim.schedule_many(_times(), _noop)
    except AttributeError:  # pragma: no cover - pre-PR3 checkout
        sched = sim.schedule_at
        for t in _times():
            sched(t, _noop)
    return sim


def build_bare_scalar() -> Simulator:
    """PR4 methodology: per-event ``schedule_at`` train, no-op drain."""
    sim = Simulator()
    sched = sim.schedule_at
    for t in _times():
        sched(t, _noop)
    return sim


def build_disabled_registry() -> Simulator:
    """Null registry: callbacks instrument, the registry eats it."""
    sim = Simulator()
    ctr = sim.metrics.scoped("bench").counter("events")

    def cb(s: Simulator, payload) -> None:
        ctr.inc()

    sched = sim.schedule_at
    for t in _times():
        sched(t, cb)
    return sim


def build_live_instruments() -> Simulator:
    sim = Simulator(metrics=MetricsRegistry())
    stats = sim.metrics.scoped("bench")
    ctr = stats.counter("events")
    hist = stats.histogram("times")

    def cb(s: Simulator, payload) -> None:
        ctr.inc()
        hist.observe(s.now)

    sched = sim.schedule_at
    for t in _times():
        sched(t, cb)
    return sim


def build_kernel_probe() -> Simulator:
    sim = Simulator(metrics=MetricsRegistry())
    ctr = sim.metrics.counter("probe.events")
    sim.add_probe(lambda s, ev: ctr.inc())
    sched = sim.schedule_at
    for t in _times():
        sched(t, _noop)
    return sim


DRAIN_CONFIGS: Dict[str, Callable[[], Simulator]] = {
    "bare": build_bare,
    "disabled_registry": build_disabled_registry,
    "live_instruments": build_live_instruments,
    "kernel_probe": build_kernel_probe,
}


def measure_drain(
    repeats: int = DEFAULT_REPEATS,
    configs: Optional[Dict[str, Callable[[], Simulator]]] = None,
) -> Dict[str, float]:
    """Events/second through ``sim.run()`` per configuration.

    The queue is rebuilt (untimed) before every timed drain, so each
    repeat dispatches exactly N_EVENTS fresh events.
    """
    rates: Dict[str, float] = {}
    for name, build in (configs or DRAIN_CONFIGS).items():
        build().run()  # warmup
        times = []
        for _ in range(repeats):
            sim = build()
            start = time.perf_counter()
            sim.run()
            times.append(time.perf_counter() - start)
        rates[name] = N_EVENTS / statistics.median(times)
    return rates


# ---------------------------------------------------------------------------
# End-to-end configurations: the timed region covers scheduling AND the
# drain — where the cancellable=False and schedule_many fast paths pay.
# ---------------------------------------------------------------------------


def run_loop_token() -> None:
    """Per-call scheduling with cancel tokens (the default API)."""
    sim = Simulator()
    sched = sim.schedule_at
    for t in _times():
        sched(t, _noop)
    sim.run()


def run_loop_no_token() -> None:
    """PR3 fast path: ``cancellable=False`` skips token allocation."""
    sim = Simulator()
    sched = sim.schedule_at
    for t in _times():
        sched(t, _noop, cancellable=False)
    sim.run()


def run_schedule_many() -> None:
    """PR3 batch API: one call bulk-loads the in-order lane."""
    sim = Simulator()
    sim.schedule_many(_times(), _noop)
    sim.run()


END_TO_END_CONFIGS: Dict[str, Callable[[], None]] = {
    "loop_token": run_loop_token,
    "loop_no_token": run_loop_no_token,
    "schedule_many": run_schedule_many,
}


def measure_end_to_end(
    repeats: int = DEFAULT_REPEATS,
    configs: Optional[Dict[str, Callable[[], None]]] = None,
) -> Dict[str, float]:
    """Events/second including scheduling cost, per configuration.

    Configurations whose kernel API is missing (older checkouts) are
    skipped rather than failed, so before/after runs stay comparable.
    """
    rates: Dict[str, float] = {}
    for name, fn in (configs or END_TO_END_CONFIGS).items():
        try:
            fn()  # warmup doubles as the feature probe
        except (TypeError, AttributeError):
            continue
        rates[name] = N_EVENTS / best_of(fn, repeats=repeats, warmup=0)
    return rates


def measure_experiments(
    ids: Iterable[str] = EXPERIMENT_IDS,
    repeats: int = DEFAULT_EXPERIMENT_REPEATS,
) -> Dict[str, float]:
    """Median end-to-end wall seconds per registry experiment."""
    from repro.analysis import REGISTRY

    walls: Dict[str, float] = {}
    for eid in ids:
        experiment = REGISTRY.get(eid)
        walls[eid] = best_of(experiment.execute, repeats=repeats, warmup=1)
    return walls


# ---------------------------------------------------------------------------
# Resilience measurements (PR4): checkpoint overhead, resume-vs-restart
# payoff, and watchdog hang-detection latency.  Published via
# ``benchmarks/resilience_smoke.py`` into BENCH_PR4.json.
# ---------------------------------------------------------------------------

DEFAULT_CHECKPOINTS = 4


def measure_checkpoint_overhead(
    repeats: int = DEFAULT_REPEATS, n_checkpoints: int = DEFAULT_CHECKPOINTS
) -> Dict[str, float]:
    """Bare-drain cost of an armed CheckpointManager, as a fraction.

    Times the N_EVENTS bare drain with and without a
    ``CheckpointManager`` taking ``n_checkpoints`` evenly spaced
    mid-run snapshots (keep=1, the resume-from-latest configuration).
    A mid-run snapshot is O(pending events), so the cadence — not the
    mechanism — sets the cost; this is the honest price of "you can
    always resume from at most 1/n of the run ago".
    """
    from repro.resilience import CheckpointManager

    period = float(N_EVENTS) / (n_checkpoints + 1)

    def plain() -> float:
        sim = build_bare_scalar()
        start = time.perf_counter()
        sim.run()
        return time.perf_counter() - start

    def checkpointed() -> float:
        sim = build_bare_scalar()
        manager = CheckpointManager(period=period, keep=1)
        manager.arm(sim)
        start = time.perf_counter()
        sim.run()
        elapsed = time.perf_counter() - start
        assert manager.taken >= n_checkpoints
        return elapsed

    plain()  # warmup
    base = statistics.median([plain() for _ in range(repeats)])
    with_ckpt = statistics.median([checkpointed() for _ in range(repeats)])
    return {
        "bare_drain_s": base,
        "checkpointed_drain_s": with_ckpt,
        "n_checkpoints": float(n_checkpoints),
        "overhead_fraction": (with_ckpt - base) / base,
    }


def measure_resume_vs_restart(
    repeats: int = DEFAULT_REPEATS,
    crash_fraction: float = 0.7,
    n_checkpoints: int = DEFAULT_CHECKPOINTS,
) -> Dict[str, float]:
    """Wall time to finish after a crash: resume vs restart-from-zero.

    A run crashes ``crash_fraction`` of the way through the drain.
    *Restart* pays the full drain again; *resume* restores the last
    periodic checkpoint and replays only the tail.  ``time_saved_
    fraction`` is what checkpointing buys back.
    """
    from repro.resilience import (
        CheckpointManager, SimulatedCrash, schedule_crash,
    )

    period = float(N_EVENTS) / (n_checkpoints + 1)
    crash_at = crash_fraction * N_EVENTS

    def full_run() -> float:
        sim = build_bare_scalar()
        start = time.perf_counter()
        sim.run()
        return time.perf_counter() - start

    def resumed_tail() -> float:
        sim = build_bare_scalar()
        manager = CheckpointManager(period=period, keep=1)
        manager.arm(sim)
        token = schedule_crash(sim, at=crash_at)
        try:
            sim.run()
        except SimulatedCrash:
            pass
        else:  # pragma: no cover - crash must fire
            raise AssertionError("crash event did not fire")
        sim.restore(manager.latest)
        token.cancel()
        start = time.perf_counter()
        sim.run()
        return time.perf_counter() - start

    full_run()  # warmup
    restart = statistics.median([full_run() for _ in range(repeats)])
    resume = statistics.median([resumed_tail() for _ in range(repeats)])
    return {
        "restart_s": restart,
        "resume_s": resume,
        "crash_fraction": crash_fraction,
        "time_saved_fraction": (restart - resume) / restart,
    }


def _beat_then_hang_job():  # pragma: no cover - runs in a worker process
    from repro.exec.heartbeat import heartbeat

    heartbeat(1.0)
    time.sleep(600)


def measure_hang_detection(
    wall_timeout_s: float = 40.0, hang_timeout_s: float = 0.5
) -> Dict[str, float]:
    """Watchdog latency: wall seconds to classify a silent worker hung.

    The worker heartbeats once and goes silent; without the watchdog it
    would burn the full ``wall_timeout_s``.  ``detection_fraction_of_
    timeout`` is the PR4 acceptance number (must be well under 0.25).
    """
    from repro.exec import Job, ProcessPoolRunner
    from repro.exec.runners import ATTEMPT_HUNG

    runner = ProcessPoolRunner(1)
    try:
        start = time.perf_counter()
        runner.submit(
            Job(id="hang-probe", fn=_beat_then_hang_job),
            None,
            wall_timeout_s,
            hang_timeout_s,
        )
        attempts = []
        while not attempts and time.perf_counter() - start < wall_timeout_s:
            attempts.extend(runner.poll())
            time.sleep(0.005)
        detect_s = time.perf_counter() - start
        status = attempts[0].status if attempts else "undetected"
    finally:
        runner.shutdown()
    assert status == ATTEMPT_HUNG, f"expected hung, got {status}"
    return {
        "wall_timeout_s": wall_timeout_s,
        "hang_timeout_s": hang_timeout_s,
        "detection_s": detect_s,
        "detection_fraction_of_timeout": detect_s / wall_timeout_s,
    }


def measure_serve(repeats: int = 2) -> Dict[str, float]:
    """Service throughput (PR7), empty dict when ``repro.serve`` is absent.

    Feature-detects both the serve package and the load generator so the
    identical harness can still time a pre-PR7 checkout.  Delegates to
    ``serve_load.measure_for_harness`` — the same open-loop phases that
    produced the ``serve_rps`` family in ``BENCH_PR7.json`` — so gate
    comparisons are measured the same way as the baseline.
    """
    try:
        import repro.serve  # noqa: F401
    except ImportError:  # pragma: no cover - pre-PR7 checkout
        return {}
    import sys
    from pathlib import Path

    here = str(Path(__file__).resolve().parent)
    if here not in sys.path:
        sys.path.insert(0, here)
    import serve_load

    return serve_load.measure_for_harness(repeats=repeats)
