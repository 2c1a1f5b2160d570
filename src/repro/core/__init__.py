"""Core substrate: simulation kernel, energy accounting, design-space tools.

These are the shared primitives every paper-facing model builds on:

* :mod:`repro.core.units` — SI constants plus the paper's platform
  power/throughput targets.
* :mod:`repro.core.rng` — seeded, stream-splitting RNG policy.
* :mod:`repro.core.events` — deterministic discrete-event kernel, the
  single simulation substrate every event-driven model runs on, with
  one drain loop and no mode switches.
* :mod:`repro.core.instrument` — counters/gauges/quantile histograms
  threaded through the kernel and every migrated simulator.
* :mod:`repro.core.energy` — hierarchical energy ledger ("energy first").
* :mod:`repro.core.design` / :mod:`repro.core.dse` — design points,
  Pareto frontiers, and sweep drivers.
* :mod:`repro.core.agenda` — the full-system, energy-first design-space
  model that ties the substrates together (the paper's agenda rendered
  executable).
* :mod:`repro.core.queueing` — the join-shortest-queue walk the cluster
  model and the ``queue`` trace-replay sink share.

Each public name loads its module on first access (:mod:`repro._lazy`):
a caller of the energy ledger does not load the event kernel or the
design-space tools.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "design": ("DesignPoint", "Direction", "Metrics", "Objective",
               "best_under_budget", "dominated_fraction", "knee_point",
               "pareto_front", "pareto_mask"),
    "dse": ("ContinuousParam", "DiscreteParam", "Explorer", "SweepResult",
            "grid_configs", "local_search", "random_configs"),
    "energy": ("EnergyCost", "EnergyLedger", "combine_ledgers",
               "energy_delay_product", "energy_delay_squared"),
    "events": ("SNAPSHOT_VERSION", "CancelToken", "Checkpointable", "Event",
               "FunctionCheckpoint", "KernelSnapshot", "PeriodicSource",
               "SimModel", "SimStats", "Simulator"),
    "instrument": ("Counter", "Gauge", "Histogram", "MetricsRegistry",
                   "default_registry", "disable_session", "enable_session"),
    "rng": ("DEFAULT_SEED", "resolve_rng", "spawn_rngs", "stream_for"),
}

__all__ = sorted(name for names in _EXPORTS.values() for name in names)

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS,
                                    submodules=("agenda", "queueing",
                                                "units"))
