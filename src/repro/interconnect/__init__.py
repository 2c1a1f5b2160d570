"""Interconnect substrate: topologies, NoC simulation, traffic patterns,
and electrical/photonic/3D link energy models (Sections 2.2-2.3, E18).

Each public name loads its module on first access (:mod:`repro._lazy`):
a NoC replay loads the mesh and its routes, not the link models or the
traffic generators.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "links": ("ElectricalLink", "PhotonicLink", "TSVLink",
              "link_technology_sweep", "photonic_crossover_distance_mm",
              "stacking_comparison"),
    "noc": ("MeshNoC", "NoCConfig", "NoCResult", "Packet",
            "latency_vs_load"),
    "topology": ("average_hops", "bisection_width", "crossbar", "diameter",
                 "fat_tree", "mesh2d", "ring", "topology_summary", "torus2d",
                 "xy_route"),
    "traffic": ("PATTERNS", "bit_complement_pairs", "hotspot_pairs",
                "make_pattern", "neighbor_pairs", "poisson_injection_times",
                "transpose_pairs", "uniform_random_pairs"),
}

__all__ = sorted(name for names in _EXPORTS.values() for name in names)

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
