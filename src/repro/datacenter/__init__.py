"""Datacenter substrate: tail latency at scale, hedging, cluster
queueing, facility power, availability, and TCO (Section 2.1,
experiments E06/E07/E13/E22).

Each public name loads its module on first access (:mod:`repro._lazy`):
a cluster run loads the cluster model without the autoscale,
availability, hedging, latency, power, tail or TCO models.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "autoscale": ("AutoscaleConfig", "ProvisioningResult",
                  "autoscale_fleet_trace", "diurnal_load",
                  "policy_energy_comparison", "provision"),
    "availability": ("RedundancyCostModel", "availability_from_nines",
                     "downtime_minutes_per_year", "k_of_n_availability",
                     "nines", "paper_five_nines_check",
                     "parallel_availability", "replicas_for_target",
                     "series_availability"),
    "cluster": ("Balancer", "ClusterConfig", "ClusterResult",
                "ClusterSimulator", "erlang_c", "mm1_mean_latency",
                "mmc_mean_latency", "utilization_latency_tradeoff"),
    "hedging": ("hedged_request_latencies", "hedging_effectiveness",
                "kernel_hedged_latencies", "tied_request_latencies"),
    "latency": ("LatencyDistribution", "exponential_latency",
                "lognormal_latency", "straggler_mixture"),
    "power": ("DatacenterPowerModel", "ServerPowerModel",
              "datacenter_ops_within_budget"),
    "tail": ("fanout_latency_quantile", "median_inflation",
             "monte_carlo_fanout", "paper_claim",
             "partition_vs_fanout_tradeoff", "straggler_probability"),
    "tco": ("TCOModel",),
}

__all__ = sorted(name for names in _EXPORTS.values() for name in names)

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
