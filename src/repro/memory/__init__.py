"""Memory substrate: caches, hierarchies, coherence, DRAM, NVM, wear
leveling, compression, hybrid stacks, and per-access energy (paper
Sections 2.1-2.3, experiments E04/E11/E17).

Each public name loads its module on first access (:mod:`repro._lazy`):
a memory replay runs the hierarchy and its caches without loading the
NVM, compression or energy models, or :mod:`repro.technology`.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "cache": ("Cache", "CacheConfig", "CacheStats",
              "stack_distance_hit_rate"),
    "coherence": ("BusStats", "CoherenceConfig", "MESI", "MESIBus",
                  "sharing_pattern_trace"),
    "compression": ("COMPRESSORS", "CompressionReport",
                    "bandwidth_energy_savings", "bdi_compressed_bits",
                    "compress_lines", "effective_capacity_gb",
                    "fpc_compressed_bits", "integer_array_data",
                    "pointer_array_data", "random_data"),
    "dram": ("DRAMBankModel", "DRAMConfig", "DRAMStats",
             "streaming_vs_random_summary"),
    "energy": ("EnergyTable", "communication_vs_computation_series",
               "energy_table", "keckler_claim"),
    "hierarchy": ("HierarchyResult", "LevelSpec", "MemoryHierarchy",
                  "MemorySpec", "amat", "default_hierarchy",
                  "energy_per_access"),
    "hybrid": ("HybridConfig", "HybridMemory", "HybridResult", "PAGE_BYTES",
               "compare_organizations", "idle_power_comparison"),
    "nvm": ("DEVICES", "NVMDevice", "WorkloadProfile", "compare_devices",
            "device_mean_latency_ns", "device_power_w", "get_device",
            "mlc_write_latency_ns", "resistance_drift_error_rate"),
    "partition": ("TenantTrace", "miss_curve", "partition_outcome",
                  "shared_vs_partitioned", "utility_based_partition"),
    "pim": ("BulkOp", "PIMSystem", "host_energy_j", "host_time_s",
            "intensity_crossover_ops_per_byte", "pim_comparison",
            "pim_energy_j", "pim_time_s", "pim_wins_energy"),
    "prefetch": ("NextLinePrefetcher", "PrefetchReport", "Prefetcher",
                 "StreamPrefetcher", "prefetched_run",
                 "prefetcher_comparison"),
    "wear": ("NoWearLeveling", "StartGapWearLeveling", "TableWearLeveling",
             "WearLeveler", "lifetime_improvement", "lifetime_writes"),
}

__all__ = sorted(name for names in _EXPORTS.values() for name in names)

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
