"""All 22 paper experiments (DESIGN.md index E01-E22), registered.

Each ``run_eNN`` function reproduces one table row or quantitative claim
from the white paper, returns the measured values alongside the paper's
numbers, and sets ``"holds"`` — whether the reproduced *shape* matches
(who wins, by roughly what factor, where crossovers fall).  The
``benchmarks/`` files time these same callables under pytest-benchmark;
EXPERIMENTS.md records their outputs.

Import this module (or call :func:`register_all`) to populate
:data:`repro.analysis.experiments.REGISTRY`.
"""

from __future__ import annotations

import numpy as np

from ..accelerator import (
    CloudPlatform,
    DevicePlatform,
    breakeven_volume_by_node,
    cheapest_target,
    coverage_required,
    energy_breakeven_intensity,
    mechanism_breakdown,
    offload_frontier,
    system_energy_gain,
)
from ..core import units
from ..core.agenda import (
    agenda_comparison,
    levers_to_close_gap,
    platform_gap_table,
)
from ..crosscut import compare_protection_schemes, residual_error_rate
from ..datacenter import (
    RedundancyCostModel,
    ServerPowerModel,
    availability_from_nines,
    datacenter_ops_within_budget,
    hedging_effectiveness,
    lognormal_latency,
    monte_carlo_fanout,
    paper_claim,
    paper_five_nines_check,
    replicas_for_target,
    straggler_mixture,
)
from ..interconnect import (
    ElectricalLink,
    PhotonicLink,
    photonic_crossover_distance_mm,
    stacking_comparison,
)
from ..memory import (
    compare_organizations,
    get_device,
    idle_power_comparison,
    keckler_claim,
    lifetime_improvement,
    communication_vs_computation_series,
    MemoryHierarchy,
    MemorySpec,
    bandwidth_energy_savings,
    compress_lines,
    integer_array_data,
)
from ..parallel import (
    optimal_parallelism,
    organization_comparison,
    required_comm_reduction_for_target,
    tm_vs_lock_comparison,
)
from ..processor import generate_trace, zipf_addresses
from ..sensor import energy_quality_frontier, filtering_tradeoff, synthetic_ecg
from ..technology import (
    dark_silicon_series,
    dennard_breakdown_year,
    effective_energy_sweep,
    chip_fit_series,
    moores_law_transistors,
    paper_claim_check,
    post_dennard_trajectory,
    dennard_trajectory,
)
from .experiments import Experiment, REGISTRY


# ---------------------------------------------------------------------------
# E01-E05: Table 1 rows
# ---------------------------------------------------------------------------


def run_e01_dennard() -> dict:
    """Moore continues; Dennard is gone; power gap opens post-2004."""
    year = dennard_breakdown_year()
    growth = moores_law_transistors([2012])[0] / moores_law_transistors([1985])[0]
    gens = 6
    gap = post_dennard_trajectory(gens).power[-1] / dennard_trajectory(gens).power[-1]
    return {
        "breakdown_year": float(year),
        "paper_breakdown_window": "mid-2000s",
        "transistor_growth_1985_2012": float(growth),
        "power_gap_after_6_generations": float(gap),
        "holds": bool(2004 <= year <= 2008 and growth > 1e3 and gap > 4.0),
    }


def run_e02_cpudb() -> dict:
    """Danowitz: ~80x from architecture; tech/arch split ~equal."""
    claims = paper_claim_check()
    return {
        **{k: float(v) for k, v in claims.items()},
        "paper_architecture_gain": 80.0,
        "holds": bool(
            60.0 <= claims["architecture_gain"] <= 100.0
            and 0.8 <= claims["log_split_arch_over_tech"] <= 1.25
        ),
    }


def run_e03_reliability() -> dict:
    """Raw chip SER worsens across nodes; ECC hides less headroom."""
    series = chip_fit_series()
    raw_growth = float(series["raw_fit"][-1] / series["raw_fit"][0])
    protected_growth = float(
        series["protected_fit"][-1] / series["protected_fit"][0]
    )
    ecc = residual_error_rate(1e-6)
    return {
        "raw_fit_growth": raw_growth,
        "protected_fit_growth": protected_growth,
        "ecc_silent_fraction_at_1e-6_ber": ecc["potentially_silent"],
        "holds": bool(raw_growth > 100.0 and protected_growth > 10.0),
    }


def run_e04_comm_vs_compute() -> dict:
    """Operand fetch 1-2 orders above the FMA; the gap widens."""
    claim = keckler_claim("45nm")
    trend = communication_vs_computation_series()
    ratio_growth = float(trend["ratio"][-1] / trend["ratio"][0])
    return {
        "ratio_dram_operand_fetch": claim["ratio_dram"],
        "paper_band": "10x-100x",
        "wire_10mm_vs_fma": claim["wire_10mm_vs_fma"],
        "ratio_growth_180nm_to_5nm": ratio_growth,
        "holds": bool(10.0 <= claim["ratio_dram"] <= 300.0 and ratio_growth > 2.0),
    }


def run_e05_nre() -> dict:
    """NRE growth squeezes ASICs; FPGA/CGRA/ASIC order by volume."""
    table = breakeven_volume_by_node()
    values = list(table.values())
    ordering = (
        cheapest_target(1e3) == "fpga"
        and cheapest_target(1e5) == "cgra"
        and cheapest_target(1e7) == "asic"
    )
    return {
        "breakeven_350nm": float(values[0]),
        "breakeven_5nm": float(values[-1]),
        "breakeven_growth": float(values[-1] / values[0]),
        "volume_ordering_fpga_cgra_asic": bool(ordering),
        "holds": bool(ordering and values[-1] > 50 * values[0]),
    }


# ---------------------------------------------------------------------------
# E06-E09: energy-first agenda
# ---------------------------------------------------------------------------


def run_e06_energy_targets() -> dict:
    """100 GOPS/W targets; 2012-era gap; levers toward closing it."""
    dc = datacenter_ops_within_budget(1e12, ServerPowerModel())
    levers = levers_to_close_gap()
    lever_gain = levers["plus_memory_efficiency"] / levers["baseline_little_core"]
    gaps = platform_gap_table()
    return {
        "target_ops_per_watt": units.PAPER_TARGET_OPS_PER_WATT,
        "datacenter_2012_required_gain_for_exaop": dc["required_gain_for_exaop"],
        "mobile_2012_gap": units.PAPER_TARGET_OPS_PER_WATT
        / units.PAPER_CIRCA_2012_MOBILE_OPS_PER_WATT,
        "agenda_levers_combined_gain": float(lever_gain),
        "portable_gap_after_levers": float(
            units.PAPER_TARGET_OPS_PER_WATT / levers["plus_memory_efficiency"]
        ),
        "gap_consistent_across_classes": bool(
            len({round(np.log10(v["gap"]), 1) for v in gaps.values()}) == 1
        ),
        "holds": bool(
            dc["required_gain_for_exaop"] > 10.0 and lever_gain > 3.0
        ),
    }


def run_e07_tail() -> dict:
    """Dean's 63%-at-fanout-100 plus hedging's tail collapse."""
    closed = paper_claim()
    mc = monte_carlo_fanout(
        lognormal_latency(10.0, 0.5), 100, n_requests=20_000, rng=0
    )
    hedge = hedging_effectiveness(
        straggler_mixture(), fanout=100, n_requests=3000, rng=0
    )
    # A cluster run walked in the kernel's event order; when the session
    # registry is enabled (python -m repro --instrument) its counters
    # and latency quantiles land in the printed metrics report.
    from ..datacenter import ClusterConfig, ClusterSimulator

    kernel_run = ClusterSimulator(
        ClusterConfig(n_servers=4, service_rate=100.0)
    ).run(arrival_rate=300.0, n_requests=12_000, rng=0)
    return {
        "closed_form_fraction": closed["fraction_delayed"],
        "paper_value": 0.63,
        "monte_carlo_fraction": mc["fraction_beyond_server_p99"],
        "hedging_p99_reduction": hedge["p99_reduction"],
        "hedging_extra_load": hedge["extra_load_fraction"],
        "kernel_cluster_p99_s": float(np.percentile(kernel_run.latencies, 99)),
        "kernel_cluster_utilization": kernel_run.utilization,
        "holds": bool(
            abs(closed["fraction_delayed"] - 0.634) < 1e-3
            and abs(mc["fraction_beyond_server_p99"] - 0.634) < 0.02
            and hedge["p99_reduction"] > 0.5
            and hedge["extra_load_fraction"] < 0.1
        ),
    }


def run_e08_parallelism() -> dict:
    """Hill-Marty ordering; communication limits 1,000-way parallelism."""
    oc = organization_comparison(0.9, 256)
    ordering = (
        oc["dynamic"].speedup >= oc["asymmetric"].speedup - 1e-9
        and oc["asymmetric"].speedup >= oc["symmetric"].speedup - 1e-9
    )
    opt = optimal_parallelism(10.0)
    target = opt["n_optimal"] * 4
    reduction = required_comm_reduction_for_target(target, 10.0)
    return {
        "hillmarty_symmetric": oc["symmetric"].speedup,
        "hillmarty_asymmetric": oc["asymmetric"].speedup,
        "hillmarty_dynamic": oc["dynamic"].speedup,
        "organization_ordering_holds": bool(ordering),
        "energy_optimal_parallelism": opt["n_optimal"],
        "comm_energy_share_at_optimum": opt["comm_energy_share"],
        "comm_reduction_needed_for_4x_parallelism": float(reduction),
        "holds": bool(
            ordering
            and opt["comm_energy_share"] > 0.5
            and reduction > 1.5
        ),
    }


def run_e09_specialization() -> dict:
    """100x specialization; coverage-limited system gains."""
    mech = mechanism_breakdown()["total"]
    g_30 = system_energy_gain(100.0, 0.3)
    cov_for_50 = coverage_required(100.0, 50.0)
    return {
        "mechanism_total_gain": float(mech),
        "paper_value": 100.0,
        "system_gain_at_30pct_coverage": float(g_30),
        "coverage_needed_for_50x_system": float(cov_for_50),
        "holds": bool(
            50.0 <= mech <= 200.0
            and 1.3 <= g_30 <= 1.5
            and cov_for_50 > 0.95
        ),
    }


# ---------------------------------------------------------------------------
# E10-E12: technology impacts
# ---------------------------------------------------------------------------


def run_e10_dark_silicon() -> dict:
    series = dark_silicon_series()
    dark = series["dark_fraction"]
    return {
        "dark_2004": float(dark[0]),
        "dark_2012": float(dark[list(series["years"]).index(2012.0)]),
        "dark_2020": float(dark[-1]),
        "monotone": bool(np.all(np.diff(dark) >= -1e-12)),
        "holds": bool(dark[0] < 0.1 and dark[-1] > 0.8),
    }


def run_e11_nvm() -> dict:
    pcm = get_device("pcm")
    wear = lifetime_improvement(
        endurance=2000, n_lines=256, max_writes=4_000_000, rng=0
    )
    idle = idle_power_comparison(256.0)
    orgs = compare_organizations(n_accesses=8000, rng=0)
    latency_order = (
        orgs["pure_dram"]["mean_latency_ns"]
        <= orgs["hybrid"]["mean_latency_ns"]
        <= orgs["pure_nvm"]["mean_latency_ns"]
    )
    return {
        "pcm_write_read_latency_ratio": pcm.write_read_latency_ratio,
        "start_gap_lifetime_improvement": wear["start_gap_improvement"],
        "hybrid_idle_power_saving": idle["hybrid_saving_fraction"],
        "hybrid_latency_between_pure_tiers": bool(latency_order),
        "holds": bool(
            pcm.write_read_latency_ratio > 5.0
            and wear["start_gap_improvement"] > 10.0
            and idle["hybrid_saving_fraction"] > 0.5
            and latency_order
        ),
    }


def run_e12_ntv() -> dict:
    sweep = effective_energy_sweep("45nm", vdd_lo=0.3)
    i_raw = int(np.argmin(sweep["energy_per_op"]))
    i_eff = int(np.argmin(sweep["effective_energy_per_op"]))
    nominal = sweep["energy_per_op"][-1]
    raw_gain = float(nominal / sweep["energy_per_op"][i_raw])
    err_at_opt = float(sweep["error_rate"][i_raw])
    err_at_nominal = float(sweep["error_rate"][-1])
    return {
        "raw_energy_gain_at_optimum": raw_gain,
        "optimal_vdd": float(sweep["vdd"][i_raw]),
        "effective_optimal_vdd": float(sweep["vdd"][i_eff]),
        "error_rate_at_optimum": err_at_opt,
        "error_rate_at_nominal": err_at_nominal,
        "holds": bool(
            1.8 <= raw_gain <= 6.0
            and sweep["vdd"][i_eff] >= sweep["vdd"][i_raw] - 1e-9
            and err_at_opt > 100 * max(err_at_nominal, 1e-12)
        ),
    }


# ---------------------------------------------------------------------------
# E13-E16: availability, sensing, approximation, TM
# ---------------------------------------------------------------------------


def run_e13_availability() -> dict:
    five = paper_five_nines_check()
    replicas = replicas_for_target(availability_from_nines(5.0), 0.99)
    cheap = RedundancyCostModel(
        component_availability=0.99, unit_cost_usd=5.0,
        coordination_cost_usd=2.0,
    ).cost_for_target(availability_from_nines(5.0))
    return {
        "five_nines_downtime_minutes": five["downtime_minutes_per_year"],
        "paper_value_minutes": 5.0,
        "replicas_of_99pct_parts_needed": float(replicas),
        "five_nines_from_few_dollar_parts_usd": cheap["cost_usd"],
        "holds": bool(
            abs(five["downtime_minutes_per_year"] - 5.26) < 0.1
            and replicas == 3
            and cheap["cost_usd"] < 50.0
        ),
    }


def run_e14_sensor_filter() -> dict:
    out = filtering_tradeoff(duration_s=600.0, rng=0)
    return {
        "energy_ratio_raw_over_filtered": out["energy_ratio"],
        "filtered_lifetime_days": out["filtered_lifetime_days"],
        "raw_lifetime_days": out["raw_lifetime_days"],
        "detector_precision": out["precision"],
        "holds": bool(out["energy_ratio"] > 10.0 and out["precision"] > 0.5),
    }


def run_e15_approximate() -> dict:
    trace = synthetic_ecg(60.0, rng=0)
    frontier = energy_quality_frontier(trace["signal"], min_snr_db=25.0)
    return {
        "bits_at_25db_floor": frontier["bits"],
        "energy_saving": frontier["energy_saving"],
        "snr_db": frontier["snr_db"],
        "holds": bool(frontier["energy_saving"] > 0.3),
    }


def run_e16_tm() -> dict:
    low = tm_vs_lock_comparison([8], hot_fraction=0.0, rng=0)
    high = tm_vs_lock_comparison([8], hot_fraction=0.95, rng=0)
    low_speedup = float(low["tm_speedup_vs_lock"][0])
    high_speedup = float(high["tm_speedup_vs_lock"][0])
    return {
        "tm_speedup_low_conflict_8threads": low_speedup,
        "tm_speedup_high_conflict_8threads": high_speedup,
        "abort_rate_low": float(low["abort_rate"][0]),
        "abort_rate_high": float(high["abort_rate"][0]),
        "holds": bool(
            low_speedup > 4.0
            and high_speedup < 0.7 * low_speedup
            and high["abort_rate"][0] > low["abort_rate"][0]
        ),
    }


# ---------------------------------------------------------------------------
# E17-E22: memory energy, new tech, verification, offload, agenda, graphs
# ---------------------------------------------------------------------------


def run_e17_memory_energy() -> dict:
    addrs = zipf_addresses(20_000, unique=4096, rng=0)
    hierarchy = MemoryHierarchy()
    with_caches = hierarchy.run_trace(addrs)
    flat = MemoryHierarchy(
        levels=hierarchy.specs[:1], memory=MemorySpec()
    )
    # Degenerate "flat" system: tiny L1 only, everything else to DRAM —
    # approximate a cacheless design by a 1-set-equivalent... instead
    # compare against pure-DRAM cost analytically:
    dram_only_energy = MemorySpec().energy_per_access_j
    hierarchy_energy = with_caches.energy_per_access_j
    comp = compress_lines(integer_array_data(64 * 256, rng=0), "fpc")
    bw = bandwidth_energy_savings(
        comp.ratio, link_energy_per_bit_j=2e-12, bits_moved_raw=1e9
    )
    return {
        "hierarchy_energy_per_access_j": hierarchy_energy,
        "dram_only_energy_per_access_j": dram_only_energy,
        "hierarchy_saving": dram_only_energy / hierarchy_energy,
        "compression_ratio_int_data": comp.ratio,
        "compression_bandwidth_saving": bw["saving_fraction"],
        "holds": bool(
            dram_only_energy / hierarchy_energy > 3.0
            and comp.ratio > 1.5
            and bw["saving_fraction"] > 0.2
        ),
    }


def run_e18_new_tech() -> dict:
    stack = stacking_comparison()
    stack_ratio = (
        stack["off_chip"]["energy_per_access_j"]
        / stack["tsv_3d"]["energy_per_access_j"]
    )
    crossover = photonic_crossover_distance_mm(
        ElectricalLink(off_chip=False), PhotonicLink(), utilization=0.8
    )
    return {
        "stacking_energy_ratio": float(stack_ratio),
        "photonic_crossover_mm_on_chip": float(crossover),
        "photonics_wins_off_chip_everywhere": bool(
            photonic_crossover_distance_mm(
                ElectricalLink(off_chip=True), PhotonicLink(), 1.0
            )
            == 0.0
        ),
        "holds": bool(stack_ratio > 10.0 and 1.0 < crossover < 50.0),
    }


def run_e19_verification() -> dict:
    trace = generate_trace(300, rng=0)
    out = compare_protection_schemes(trace, n_injections=200, rng=0)
    tight = out["invariant_tight"]
    dmr = out["dmr"]
    return {
        "baseline_sdc_rate": out["none"]["sdc_rate"],
        "invariant_sdc_rate": tight["sdc_rate"],
        "invariant_overhead": tight["energy_overhead"],
        "dmr_overhead": dmr["energy_overhead"],
        "invariant_efficiency": tight["sdc_reduction_per_overhead"],
        "dmr_efficiency": dmr["sdc_reduction_per_overhead"],
        "holds": bool(
            tight["sdc_reduction_per_overhead"]
            > 2 * dmr["sdc_reduction_per_overhead"]
            and tight["sdc_rate"] < out["none"]["sdc_rate"]
        ),
    }


def run_e20_offload() -> dict:
    device = DevicePlatform()
    cloud = CloudPlatform()
    breakeven = energy_breakeven_intensity(device)
    frontier = offload_frontier(
        device, cloud, np.geomspace(1.0, 1e6, 30)
    )
    wins = frontier["offload_wins"]
    flips_once = (
        not wins[0] and wins[-1] and np.all(wins[int(np.argmax(wins)):])
    )
    return {
        "breakeven_intensity_ops_per_bit": float(breakeven),
        "low_intensity_stays_local": bool(not wins[0]),
        "high_intensity_offloads": bool(wins[-1]),
        "single_crossover": bool(flips_once),
        "holds": bool(flips_once and 100.0 <= breakeven <= 1e5),
    }


def run_e21_agenda() -> dict:
    cmp = agenda_comparison()
    return {
        **{k: float(v) for k, v in cmp.items()},
        "holds": bool(cmp["efficiency_gain"] > 3.0),
    }


def run_e22_graph_analytics() -> dict:
    # The graph pipeline runs on networkx: imported here, so that no
    # other claim pays for it.
    from ..workloads import analytics_pipeline, pipeline_total_ops

    reports = analytics_pipeline(n_people=1500, rng=0)
    total_ops = pipeline_total_ops(reports)
    gaps = platform_gap_table()
    # Seconds to run the pipeline on each platform class.
    runtimes = {
        name: total_ops / rec["achieved_ops"] for name, rec in gaps.items()
    }
    ordering = (
        runtimes["datacenter"]
        < runtimes["departmental"]
        < runtimes["portable"]
        < runtimes["sensor"]
    )
    communities = reports["communities"].result
    return {
        "pipeline_total_ops": float(total_ops),
        "n_communities_found": float(len(communities)),
        "runtime_sensor_s": runtimes["sensor"],
        "runtime_datacenter_s": runtimes["datacenter"],
        "platform_ordering_holds": bool(ordering),
        "holds": bool(ordering and total_ops > 1e6),
    }


# ---------------------------------------------------------------------------
# Registration
# ---------------------------------------------------------------------------

_SPECS = [
    ("E01", "Moore continues, Dennard ends", "Table 1 rows 1-2",
     "Power/chip can no longer stay flat; breakdown ~2004-06",
     run_e01_dennard),
    ("E02", "CPU-DB attribution", "Section 1 (Danowitz)",
     "~80x from architecture since 1985; tech/arch split roughly equal",
     run_e02_cpudb),
    ("E03", "Transistor reliability worsens", "Table 1 row 3",
     "Chip-level SER climbs with integration; ECC no longer free",
     run_e03_reliability),
    ("E04", "Communication beats computation", "Table 1 row 4 / Keckler",
     "Operand fetch costs 1-2 orders more than the FMA",
     run_e04_comm_vs_compute),
    ("E05", "NRE squeeze", "Table 1 row 5",
     "ASIC break-even volume rises per node; CGRA/FPGA fill the gap",
     run_e05_nre),
    ("E06", "100 GOPS/W targets", "Section 2.2 goal",
     "Exa-op@10MW ... giga-op@10mW; 2-3 orders beyond 2012 practice",
     run_e06_energy_targets),
    ("E07", "Tail at scale", "Section 2.1 (Dean)",
     "Fanout 100 => 63% of requests see per-server p99; hedging fixes it",
     run_e07_tail),
    ("E08", "1,000-way parallelism", "Section 2.2",
     "Communication energy limits parallelism; heterogeneity ordering",
     run_e08_parallelism),
    ("E09", "100x specialization", "Section 2.2",
     "Accelerators ~100x; coverage-limited system gains",
     run_e09_specialization),
    ("E10", "Dark silicon", "Table 2 / post-Dennard",
     "Powered fraction of a fixed-budget die falls each node",
     run_e10_dark_silicon),
    ("E11", "NVM device realities", "Section 2.3",
     "Asymmetric writes, endurance; wear leveling restores lifetime",
     run_e11_nvm),
    ("E12", "Near-threshold operation", "Section 2.3",
     "Big energy/op win at low Vdd, paid for in errors; resilience shifts the optimum",
     run_e12_ntv),
    ("E13", "Five nines", "Table A.2",
     "99.999% = five minutes/year; cheap replicas can reach it",
     run_e13_availability),
    ("E14", "On-sensor filtering", "Section 2.1",
     "Communication energy outweighs computation; filter at the edge",
     run_e14_sensor_filter),
    ("E15", "Approximate computing", "Section 2.1/2.4",
     "Reduced precision saves real energy within a quality floor",
     run_e15_approximate),
    ("E16", "Transactional memory", "Section 2.4",
     "TM scales past a global lock until conflicts erode it",
     run_e16_tm),
    ("E17", "Energy-efficient memory hierarchy", "Section 2.2",
     "Hierarchy + compression cut memory energy severalfold",
     run_e17_memory_energy),
    ("E18", "3D stacking and photonics", "Section 2.3",
     "TSVs beat board traces by >10x; photonics wins beyond mm-scale",
     run_e18_new_tech),
    ("E19", "Invariant checking vs DMR", "Section 2.4",
     "Dynamic invariant checks beat brute redundancy per joule",
     run_e19_verification),
    ("E20", "Mobile-cloud offload", "Section 2.1",
     "Offload decision flips once with compute intensity",
     run_e20_offload),
    ("E21", "Table 2 head-to-head", "Table 2",
     "Energy-first heterogeneous design beats ILP-first under a power cap",
     run_e21_agenda),
    ("E22", "Human-network analytics", "Appendix A",
     "Graph pipeline runs across platform classes; capacity ordering",
     run_e22_graph_analytics),
]


def register_all() -> None:
    """Idempotently register every experiment into the shared registry."""
    for eid, title, anchor, claim, fn in _SPECS:
        if eid not in REGISTRY.ids():
            REGISTRY.register(
                Experiment(
                    id=eid, title=title, paper_anchor=anchor,
                    claim=claim, run=fn,
                )
            )


register_all()
