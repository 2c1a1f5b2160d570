"""Technology substrate: scaling laws, node database, reliability, NTV,
dark silicon, and the CPU-DB attribution study (paper Section 1.1, 2.3).

Each public name loads its module on first access (:mod:`repro._lazy`):
a caller of the node table does not load the scaling, reliability or
CPU-DB models.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "beyond_cmos": ("CANDIDATES", "DeviceCandidate", "best_device_at_speed",
                    "crossover_table", "energy_delay_frontier",
                    "get_candidate"),
    "cpudb": ("Attribution", "PROCESSORS", "ProcessorRecord", "attribute",
              "attribution_series", "frequency_series",
              "paper_claim_check"),
    "darksilicon": ("Dimming", "DimmingOutcome",
                    "compare_dimming_strategies", "dark_silicon_fraction",
                    "dark_silicon_series", "powered_fraction"),
    "node": ("NODES", "TechnologyNode", "density_series", "get_node",
             "node_for_year", "node_names", "nodes_between"),
    "ntv": ("NTVModel", "effective_energy_sweep"),
    "reliability": ("FailureModel", "aging_guardband_fraction", "chip_fit",
                    "chip_fit_series", "fit_to_failures_per_year",
                    "fit_to_mttf_hours", "frequency_spread",
                    "nbti_vth_shift_mv", "ser_with_protection",
                    "series_fit", "tmr_reliability", "vth_sigma_mv"),
    "scaling": ("CLASSIC_SHRINK", "ScalingTrajectory",
                "dennard_breakdown_year", "dennard_trajectory",
                "frequency_from_delay", "moores_law_transistors",
                "observed_trajectory", "post_dennard_trajectory",
                "power_gap_series", "utilization_wall"),
}

__all__ = sorted(name for names in _EXPORTS.values() for name in names)

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
