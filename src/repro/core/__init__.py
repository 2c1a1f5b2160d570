"""Core substrate: simulation kernel, energy accounting, design-space tools.

These are the shared primitives every paper-facing model builds on:

* :mod:`repro.core.units` — SI constants plus the paper's platform
  power/throughput targets.
* :mod:`repro.core.rng` — seeded, stream-splitting RNG policy.
* :mod:`repro.core.events` — deterministic discrete-event kernel, the
  single simulation substrate every event-driven model runs on, with
  one drain loop and no mode switches.
* :mod:`repro.core.instrument` — counters/gauges/quantile histograms and
  trace sinks threaded through the kernel and every migrated simulator.
* :mod:`repro.core.energy` — hierarchical energy ledger ("energy first").
* :mod:`repro.core.design` / :mod:`repro.core.dse` — design points,
  Pareto frontiers, and sweep drivers.
* :mod:`repro.core.agenda` — the full-system, energy-first design-space
  model that ties the substrates together (the paper's agenda rendered
  executable).
"""

from .design import (
    DesignPoint,
    Direction,
    Metrics,
    Objective,
    best_under_budget,
    dominated_fraction,
    knee_point,
    pareto_front,
    pareto_mask,
)
from .dse import (
    ContinuousParam,
    DiscreteParam,
    Explorer,
    SweepResult,
    grid_configs,
    local_search,
    random_configs,
)
from .energy import (
    EnergyCost,
    EnergyLedger,
    combine_ledgers,
    energy_delay_product,
    energy_delay_squared,
)
from .events import (
    SNAPSHOT_VERSION,
    CancelToken,
    Checkpointable,
    Event,
    FunctionCheckpoint,
    KernelSnapshot,
    PeriodicSource,
    SimModel,
    SimStats,
    Simulator,
    trace_events,
)
from .instrument import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    TraceSink,
    default_registry,
    disable_session,
    enable_session,
)
from .rng import DEFAULT_SEED, resolve_rng, spawn_rngs, stream_for

__all__ = [
    "CancelToken",
    "Checkpointable",
    "ContinuousParam",
    "Counter",
    "DEFAULT_SEED",
    "DesignPoint",
    "Direction",
    "DiscreteParam",
    "EnergyCost",
    "EnergyLedger",
    "Event",
    "Explorer",
    "FunctionCheckpoint",
    "Gauge",
    "Histogram",
    "KernelSnapshot",
    "Metrics",
    "MetricsRegistry",
    "Objective",
    "PeriodicSource",
    "SNAPSHOT_VERSION",
    "SimModel",
    "SimStats",
    "Simulator",
    "SweepResult",
    "TraceSink",
    "best_under_budget",
    "combine_ledgers",
    "default_registry",
    "disable_session",
    "dominated_fraction",
    "enable_session",
    "energy_delay_product",
    "energy_delay_squared",
    "grid_configs",
    "knee_point",
    "local_search",
    "pareto_front",
    "pareto_mask",
    "random_configs",
    "resolve_rng",
    "spawn_rngs",
    "stream_for",
    "trace_events",
]
