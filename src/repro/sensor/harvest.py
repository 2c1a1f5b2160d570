"""Energy harvesting and intermittent computing (paper Section 2.1).

"This environment brings exciting new opportunities like designing
systems that can leverage intermittent power (e.g., from harvested
energy)."

The simulator models a harvester charging a small capacitor; the node
executes a task in chunks, checkpointing progress to NVM.  When the
capacitor drains below the operating threshold, execution dies and
resumes from the last checkpoint once recharged.  The classic
intermittent-computing tradeoff falls out: frequent checkpoints waste
energy, rare checkpoints waste re-executed work; forward progress peaks
in between.

Time advances on the shared event kernel: each harvest interval is one
tick event on a :class:`repro.core.events.Simulator`, bulk-loaded as a
pre-computed train via :meth:`~repro.core.events.Simulator.
schedule_batch`, so the node's charge state, checkpoints, and power
failures are observable through the kernel's instrumentation like every
other simulator in the library.  The kernel dispatches one event per
tick.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..core.events import Simulator
from ..core.rng import RngLike, resolve_rng


@dataclass(frozen=True)
class Harvester:
    """Stochastic power source (solar/RF-class)."""

    mean_power_w: float = 2e-3
    variability: float = 0.5  # coefficient of variation
    blackout_prob: float = 0.05  # per interval: zero harvest

    def __post_init__(self) -> None:
        if self.mean_power_w <= 0:
            raise ValueError("mean power must be positive")
        if self.variability < 0:
            raise ValueError("variability must be non-negative")
        if not 0.0 <= self.blackout_prob <= 1.0:
            raise ValueError("blackout_prob must be in [0, 1]")

    def sample_power(self, n: int, rng: RngLike = None) -> np.ndarray:
        """Harvest power per interval [W]."""
        if n < 0:
            raise ValueError("n must be non-negative")
        gen = resolve_rng(rng)
        if self.variability == 0:
            power = np.full(n, self.mean_power_w)
        else:
            sigma = np.sqrt(np.log(1 + self.variability**2))
            mu = np.log(self.mean_power_w) - sigma**2 / 2
            power = gen.lognormal(mu, sigma, size=n)
        power[gen.random(n) < self.blackout_prob] = 0.0
        return power


@dataclass(frozen=True)
class IntermittentConfig:
    """Node capacitor + task parameters."""

    capacitor_j: float = 1e-3
    turn_on_j: float = 6e-4  # start executing above this
    brown_out_j: float = 1e-4  # die below this
    active_power_w: float = 5e-3
    checkpoint_cost_j: float = 2e-5
    work_per_interval_j: float = 5e-5  # energy for one work quantum
    interval_s: float = 0.01

    def __post_init__(self) -> None:
        if self.capacitor_j <= 0:
            raise ValueError("capacitor must be positive")
        if not 0 <= self.brown_out_j < self.turn_on_j <= self.capacitor_j:
            raise ValueError("need brown_out < turn_on <= capacitor")
        if self.active_power_w <= 0 or self.interval_s <= 0:
            raise ValueError("power and interval must be positive")
        if self.checkpoint_cost_j < 0 or self.work_per_interval_j <= 0:
            raise ValueError("bad checkpoint/work energies")


@dataclass
class IntermittentResult:
    total_quanta_completed: int
    committed_quanta: int
    re_executed_quanta: int
    checkpoints: int
    power_failures: int
    intervals: int

    @property
    def forward_progress_rate(self) -> float:
        """Committed work quanta per interval."""
        if self.intervals == 0:
            return float("nan")
        return self.committed_quanta / self.intervals

    @property
    def waste_fraction(self) -> float:
        total = self.total_quanta_completed
        if total == 0:
            return 0.0
        return self.re_executed_quanta / total


class IntermittentNode:
    """Charge-execute-die-resume state machine (a kernel model).

    Each tick of the driving interval train is one harvest interval:
    charge the capacitor, execute a work quantum if above the brown-out
    floor, checkpoint every ``checkpoint_interval_quanta`` quanta.
    State lives on the instance so fault injectors and samplers can
    observe (or perturb) it mid-run.
    """

    def __init__(
        self,
        harvester: Harvester,
        config: IntermittentConfig,
        checkpoint_interval_quanta: int,
        harvest_j: np.ndarray,
    ) -> None:
        if checkpoint_interval_quanta < 1:
            raise ValueError("checkpoint interval must be >= 1")
        self.harvester = harvester
        self.config = config
        self.checkpoint_interval_quanta = checkpoint_interval_quanta
        self._harvest_j = harvest_j
        self._stats = None
        self._tracer = None
        self.reset()

    # -- SimModel protocol -------------------------------------------------

    def bind(self, sim: Simulator) -> None:
        self._stats = sim.metrics.scoped("sensor.intermittent")
        self._tracer = getattr(sim.metrics, "tracer", None)

    def reset(self) -> None:
        self.stored_j = 0.0
        self.executing = False
        self.uncommitted = 0
        self.committed = 0
        self.total_done = 0
        self.re_executed = 0
        self.checkpoints = 0
        self.failures = 0
        self.ticks = 0
        self.faults_injected = 0

    def finish(self) -> None:
        if self._stats is not None:
            self._stats.counter("checkpoints").inc(self.checkpoints)
            self._stats.counter("power_failures").inc(self.failures)
            self._stats.counter("quanta_committed").inc(self.committed)
            self._stats.gauge("stored_j").set(self.stored_j)

    # -- Checkpointable protocol -------------------------------------------

    def snapshot_state(self):
        return (
            self.stored_j,
            self.executing,
            self.uncommitted,
            self.committed,
            self.total_done,
            self.re_executed,
            self.checkpoints,
            self.failures,
            self.ticks,
            self.faults_injected,
        )

    def restore_state(self, state) -> None:
        (
            self.stored_j,
            self.executing,
            self.uncommitted,
            self.committed,
            self.total_done,
            self.re_executed,
            self.checkpoints,
            self.failures,
            self.ticks,
            self.faults_injected,
        ) = state

    # -- fault-injection hook ----------------------------------------------

    def inject_fault(self, sim: Simulator, rng) -> str:
        """Transient energy fault: lose a random fraction of stored charge.

        Models a harvesting glitch / capacitor leakage burst.  If the
        drain pulls the node below the brown-out floor while executing,
        uncommitted work is lost exactly as on a natural power failure.
        """
        fraction = float(rng.uniform(0.5, 1.0))
        lost = self.stored_j * fraction
        self.stored_j -= lost
        if self.executing and self.stored_j < self.config.brown_out_j:
            self._brown_out(sim.now)
        self.faults_injected += 1
        if self._stats is not None:
            self._stats.counter("faults").inc()
        return f"energy drain {fraction:.0%} ({lost:.2e} J lost)"

    def _brown_out(self, now: Optional[float] = None) -> None:
        self.executing = False
        self.failures += 1
        lost = self.uncommitted
        self.re_executed += lost
        self.uncommitted = 0
        if self._tracer is not None and now is not None:
            # Zero-length mark in sim-time; attrs are pure model state,
            # so the span replays identically after a restore.
            self._tracer.emit("harvest.brownout", now, now, lost_quanta=lost)

    def tick(self, sim: Simulator, _payload=None) -> None:
        config = self.config
        harvest = self._harvest_j[self.ticks]
        self.ticks += 1
        self.stored_j = min(self.stored_j + harvest, config.capacitor_j)
        if not self.executing and self.stored_j >= config.turn_on_j:
            self.executing = True
        if not self.executing:
            return
        # Execute one quantum if energy allows.
        needed = config.work_per_interval_j
        if self.stored_j - needed < config.brown_out_j:
            self._brown_out(sim.now)  # lose uncommitted work
            return
        self.stored_j -= needed
        self.uncommitted += 1
        self.total_done += 1
        if self.uncommitted >= self.checkpoint_interval_quanta:
            if self.stored_j - config.checkpoint_cost_j >= config.brown_out_j:
                self.stored_j -= config.checkpoint_cost_j
                self.committed += self.uncommitted
                self.uncommitted = 0
                self.checkpoints += 1
                if self._tracer is not None:
                    self._tracer.emit("harvest.commit", sim.now, sim.now,
                                      committed=self.committed,
                                      checkpoints=self.checkpoints)
            else:
                self._brown_out(sim.now)

    def result(self, n_intervals: int) -> IntermittentResult:
        return IntermittentResult(
            total_quanta_completed=self.total_done,
            committed_quanta=self.committed,
            re_executed_quanta=self.re_executed,
            checkpoints=self.checkpoints,
            power_failures=self.failures,
            intervals=n_intervals,
        )


def simulate_intermittent(
    harvester: Harvester,
    config: IntermittentConfig,
    checkpoint_interval_quanta: int,
    n_intervals: int = 20_000,
    rng: RngLike = None,
    sim: Optional[Simulator] = None,
) -> IntermittentResult:
    """Run the charge-execute-die-resume loop on the event kernel.

    ``checkpoint_interval_quanta`` work quanta execute between
    checkpoints; on a brown-out everything since the last checkpoint is
    lost and re-executed after recharge.  Pass ``sim`` to co-simulate
    with other kernel models or to collect instrumentation.
    """
    if checkpoint_interval_quanta < 1:
        raise ValueError("checkpoint interval must be >= 1")
    if n_intervals < 1:
        raise ValueError("need at least one interval")
    gen = resolve_rng(rng)
    harvest = harvester.sample_power(n_intervals, rng=gen) * config.interval_s

    kernel = sim if sim is not None else Simulator()
    node = IntermittentNode(
        harvester, config, checkpoint_interval_quanta, harvest
    )
    kernel.attach(node)

    # A closure, not the bound method: the harvest stream golden pins
    # the callback qualname ``simulate_intermittent.<locals>.tick``.
    def tick(s: Simulator, _payload=None) -> None:
        node.tick(s, _payload)

    # Pre-scheduled tick train, bulk-loaded into the kernel's in-order
    # lane in O(n).  The timestamps accumulate (t_{i+1} = t_i +
    # interval_s) exactly as a self-chaining periodic source would, so
    # tick times are bit-identical floats.
    times = []
    t = kernel.now
    for _ in range(n_intervals):
        times.append(t)
        t += config.interval_s
    kernel.schedule_batch(times, tick)
    tracer = getattr(kernel.metrics, "tracer", None)
    horizon = (n_intervals - 0.5) * config.interval_s
    # Tick i fires at ~i * interval_s (accumulated float addition), so
    # put the horizon half an interval past the last tick: exactly
    # n_intervals fire regardless of rounding (co-simulating models may
    # keep scheduling beyond the train; the horizon bounds the run).
    if tracer is not None:
        with tracer.span("harvest.run", sim=kernel, category="model",
                         intervals=n_intervals):
            kernel.run(until=horizon)
    else:
        kernel.run(until=horizon)
    node.finish()
    return node.result(n_intervals)


def checkpoint_sweep(
    intervals_quanta,
    harvester: Harvester = Harvester(),
    config: IntermittentConfig = IntermittentConfig(),
    n_intervals: int = 20_000,
    rng: RngLike = 0,
) -> dict[str, np.ndarray]:
    """Forward progress vs. checkpoint interval — the canonical
    intermittent-computing U-curve (too often = overhead; too rarely =
    lost work)."""
    ks = list(intervals_quanta)
    if not ks:
        raise ValueError("need at least one interval setting")
    progress, waste = [], []
    for k in ks:
        result = simulate_intermittent(
            harvester, config, int(k), n_intervals=n_intervals, rng=rng
        )
        progress.append(result.forward_progress_rate)
        waste.append(result.waste_fraction)
    return {
        "checkpoint_interval": np.asarray(ks, dtype=float),
        "forward_progress": np.array(progress),
        "waste_fraction": np.array(waste),
    }
