"""Fleet-wide fault-campaign orchestration.

The paper's Section 2.4 ("Verifiability and Reliability") argues that
the "ilities" must be designed — and therefore *measured* — across the
stack, not bolted onto one layer.  This module is that measurement
harness: it sweeps every kernel-hosted :class:`~repro.crosscut.faults.
FaultTarget` model (cluster, NoC, intermittent sensor node) across
fault intensities on the :mod:`repro.exec` engine, replays the
architectural bit-flip campaign under each protection scheme, and
folds both into one machine-readable :class:`ResilienceReport`:

* **Degradation curves** — throughput / tail / energy vs. fault
  intensity, normalized to the fault-free baseline.
* **Fault-outcome rates** — masked / SDC / detected fractions from the
  architectural campaign, per protection scheme.
* **Intervention cadence** — mean kernel events between fault
  deliveries, the DES analogue of mean-time-between-interventions.
* **Health gauges** — the resilience layer's own operational counters
  (checkpoints taken, watchdog resumes) read off the instrumentation
  registry.

Campaign jobs are module-level picklable functions, so the sweep runs
identically in-process (``serial``) and on worker processes (``pool``,
N spawned socket workers replaced when lost); each job heartbeats
per repetition and checkpoints completed repetitions to a
:class:`~repro.resilience.checkpoint.JobCheckpointStore`, so a killed
or hung worker resumes mid-sweep instead of replaying from scratch.

CLI: ``python -m repro resilience --models all`` (see :func:`main`).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Sequence, Tuple

import numpy as np

from ..core import instrument
from ..core.events import Simulator
from ..core.rng import resolve_rng
from ..crosscut.faults import KernelFaultInjector, Outcome, injection_campaign
from ..crosscut.invariants import compare_protection_schemes
from ..exec.backends import capabilities_of, make_backend
from ..exec.engine import ExecutionEngine, RunReport
from ..exec.heartbeat import heartbeat
from ..exec.job import Job, JobGraph
from ..processor.program import generate_trace
from .checkpoint import JobCheckpointStore, SimulatedCrash

__all__ = [
    "ALL_MODELS",
    "DEFAULT_INTENSITIES",
    "ResilienceReport",
    "architectural_campaign",
    "campaign_job",
    "main",
    "run_campaign",
]

#: Every kernel model implementing the FaultTarget protocol.
ALL_MODELS: Tuple[str, ...] = ("cluster", "noc", "harvest")

#: Fault-rate multipliers; 0 is the fault-free baseline every curve is
#: normalized against.
DEFAULT_INTENSITIES: Tuple[float, ...] = (0.0, 0.5, 1.0, 2.0)

#: Expected fault count over the horizon at intensity 1.0.
_BASE_FAULTS = 4.0

_SCALES: Dict[str, Dict[str, int]] = {
    # CI / chaos-smoke sizing: seconds, not minutes.
    "smoke": {
        "cluster_requests": 400,
        "noc_packets": 150,
        "harvest_intervals": 2_000,
        "flips": 60,
    },
    "full": {
        "cluster_requests": 2_000,
        "noc_packets": 600,
        "harvest_intervals": 8_000,
        "flips": 200,
    },
}


def _armed_injector(
    intensity: float, horizon: float, seed: int, target, sim: Simulator
) -> Optional[KernelFaultInjector]:
    """Arm a Poisson fault train at ``intensity`` x the base rate."""
    if intensity <= 0:
        return None
    injector = KernelFaultInjector(
        mean_interval=horizon / (_BASE_FAULTS * intensity), rng=seed + 1
    )
    injector.register(target)
    injector.arm(sim, horizon=horizon)
    return injector


def _cluster_trial(seed: int, intensity: float, scale: Dict[str, int]) -> dict:
    from ..datacenter.cluster import ClusterConfig, ClusterSimulator

    n_requests = scale["cluster_requests"]
    arrival_rate = 6.0
    horizon = n_requests / arrival_rate
    sim = Simulator()
    model = ClusterSimulator(ClusterConfig(n_servers=8))
    _armed_injector(intensity, horizon, seed, model, sim)
    result = model.run(arrival_rate, n_requests, rng=seed, sim=sim)
    makespan = sim.now if sim.now > 0 else float("nan")
    return {
        "throughput": n_requests / makespan,
        "tail": result.p99,
        "energy": float("nan"),
        "faults": model.faults_injected,
        "events": sim.stats.events_executed,
    }


def _noc_trial(seed: int, intensity: float, scale: Dict[str, int]) -> dict:
    from ..interconnect.noc import MeshNoC, NoCConfig
    from ..interconnect.traffic import uniform_random_pairs

    n_packets = scale["noc_packets"]
    gen = resolve_rng(seed)
    pairs = uniform_random_pairs(n_packets, 4, 4, rng=gen)
    times = np.cumsum(gen.exponential(0.8, n_packets))
    horizon = float(times[-1]) + 50.0
    sim = Simulator()
    model = MeshNoC(NoCConfig(width=4, height=4))
    _armed_injector(intensity, horizon, seed, model, sim)
    result = model.run(
        pairs, injection_times=times,
        max_cycles=int(horizon * 20), sim=sim,
    )
    return {
        "throughput": result.throughput_packets_per_cycle,
        "tail": result.p99_latency,
        "energy": result.energy_per_packet_j(),
        "faults": model.faults_injected,
        "events": sim.stats.events_executed,
    }


def _harvest_trial(seed: int, intensity: float, scale: Dict[str, int]) -> dict:
    from ..core.events import PeriodicSource
    from ..sensor.harvest import (
        Harvester, IntermittentConfig, IntermittentNode,
    )

    n_intervals = scale["harvest_intervals"]
    config = IntermittentConfig()
    harvester = Harvester()
    gen = resolve_rng(seed)
    harvest = harvester.sample_power(n_intervals, rng=gen) * config.interval_s
    sim = Simulator()
    node = IntermittentNode(harvester, config, 8, harvest)
    sim.attach(node)
    horizon = n_intervals * config.interval_s
    _armed_injector(intensity, horizon, seed, node, sim)
    source = PeriodicSource(period=config.interval_s, callback=node.tick)
    source.start(sim)
    sim.run(until=(n_intervals - 0.5) * config.interval_s)
    source.stop()
    node.finish()
    result = node.result(n_intervals)
    committed = result.committed_quanta
    return {
        "throughput": result.forward_progress_rate,
        "tail": result.waste_fraction,
        "energy": (
            float(harvest.sum()) / committed if committed else float("nan")
        ),
        "faults": node.faults_injected,
        "events": sim.stats.events_executed,
    }


_MODEL_TRIALS = {
    "cluster": _cluster_trial,
    "noc": _noc_trial,
    "harvest": _harvest_trial,
}


def campaign_job(config: dict) -> dict:
    """One sweep cell: ``reps`` trials of one model at one intensity.

    Module-level and config-driven so it pickles into worker processes.
    Emits a heartbeat after every repetition (the pool runner's hang
    watchdog feeds on these) and, when the engine injected a
    ``checkpoint_path``, persists completed repetitions to a
    :class:`JobCheckpointStore` so a killed attempt resumes from the
    last finished rep — which is what turns a crash into a *free*
    resume in the engine's lost-progress retry accounting.

    Chaos hooks (used by the chaos-smoke tests, inert otherwise):
    ``crash_once_path`` — raise :class:`SimulatedCrash` after the first
    rep, once (a marker file makes the retry run clean);
    ``hang_once_path`` — heartbeat once, then sleep ``hang_sleep_s``,
    once (lets the watchdog catch and kill a live-but-silent worker).
    """
    model = config["model"]
    intensity = float(config["intensity"])
    reps = int(config["reps"])
    seed = int(config["seed"])
    scale = _SCALES[config.get("scale", "smoke")]
    trial = _MODEL_TRIALS[model]

    store: Optional[JobCheckpointStore] = None
    store_key = f"{model}-i{intensity:g}"
    done: list = []
    if config.get("checkpoint_path"):
        store = JobCheckpointStore(config["checkpoint_path"])
        saved = store.load(store_key)
        if isinstance(saved, list):
            done = saved

    hang_marker = config.get("hang_once_path")
    if hang_marker and not os.path.exists(hang_marker):
        with open(hang_marker, "w", encoding="utf-8") as fh:
            fh.write("hung\n")
        heartbeat(0.0)
        time.sleep(float(config.get("hang_sleep_s", 30.0)))

    crash_marker = config.get("crash_once_path")
    for rep in range(len(done), reps):
        metrics = trial(seed + 1_000 * rep, intensity, scale)
        done.append(metrics)
        heartbeat(float(rep + 1))
        if store is not None:
            store.save(store_key, done)
        if crash_marker and not os.path.exists(crash_marker):
            with open(crash_marker, "w", encoding="utf-8") as fh:
                fh.write("crashed\n")
            raise SimulatedCrash(
                f"injected crash after rep {rep + 1} of {store_key}"
            )
    if store is not None:
        store.discard(store_key)
    return {"model": model, "intensity": intensity, "trials": done}


# ---------------------------------------------------------------------------
# Aggregation and the report
# ---------------------------------------------------------------------------


def _strict_json(obj: Any) -> Any:
    """Recursively replace non-finite floats with ``None``."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {key: _strict_json(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strict_json(value) for value in obj]
    return obj


def _mean(values: Sequence[float]) -> float:
    vals = [float(v) for v in values if not math.isnan(float(v))]
    return sum(vals) / len(vals) if vals else float("nan")


def _ratio(value: float, baseline: float) -> float:
    if math.isnan(value) or math.isnan(baseline) or baseline == 0:
        return float("nan")
    return value / baseline


@dataclass
class ResilienceReport:
    """Machine-readable outcome of one resilience campaign.

    ``models[name]`` holds the per-intensity degradation curves;
    ``architectural`` the bit-flip outcome rates per protection scheme;
    ``health`` the resilience layer's instrumentation gauges;
    ``exec_summary`` the engine's per-job accounting (statuses,
    attempts, watchdog resumes).
    """

    meta: Dict[str, Any] = field(default_factory=dict)
    models: Dict[str, Any] = field(default_factory=dict)
    architectural: Dict[str, Any] = field(default_factory=dict)
    health: Dict[str, Any] = field(default_factory=dict)
    exec_summary: Dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        statuses = self.exec_summary.get("statuses", {})
        return bool(statuses) and all(
            s == "succeeded" for s in statuses.values()
        )

    def as_dict(self) -> dict:
        return {
            "meta": self.meta,
            "models": self.models,
            "architectural": self.architectural,
            "health": self.health,
            "exec_summary": self.exec_summary,
        }

    def to_json(self, indent: int = 2) -> str:
        # NaN/inf become null: the report must stay strict JSON (CI
        # artifact consumers like jq reject bare NaN tokens).
        return json.dumps(
            _strict_json(self.as_dict()), indent=indent, sort_keys=True,
            allow_nan=False,
        )

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())
            fh.write("\n")

    def summary(self) -> str:
        """Human-readable campaign table (the CLI's stdout)."""
        fmt = "{:.4g}".format
        lines = [
            f"Resilience campaign: models={','.join(self.models) or '-'}"
            f" intensities={self.meta.get('intensities')}"
            f" reps={self.meta.get('reps')} scale={self.meta.get('scale')}"
        ]
        for name, data in self.models.items():
            lines.append(f"\n[{name}]")
            lines.append(
                f"  {'intensity':<11}{'throughput':<12}{'tail':<12}"
                f"{'energy':<12}{'faults':<8}{'events/fault':<14}status"
            )
            curves = data["curves"]
            for i, intensity in enumerate(data["intensities"]):
                lines.append(
                    f"  {intensity:<11g}{fmt(curves['throughput'][i]):<12}"
                    f"{fmt(curves['tail'][i]):<12}"
                    f"{fmt(curves['energy'][i]):<12}"
                    f"{fmt(curves['faults'][i]):<8}"
                    f"{fmt(curves['events_per_fault'][i]):<14}"
                    f"{data['status'][i]}"
                )
            deg = data["degradation"]
            lines.append(
                "  degradation at max intensity: "
                f"throughput {fmt(deg['throughput'][-1])}x, "
                f"tail {fmt(deg['tail'][-1])}x, "
                f"energy {fmt(deg['energy'][-1])}x"
            )
        if self.architectural:
            lines.append("\n[architectural bit-flips]")
            base = self.architectural.get("outcome_rates", {})
            lines.append(
                f"  baseline: masked {fmt(base.get('masked', float('nan')))}"
                f" sdc {fmt(base.get('sdc', float('nan')))}"
                f" detected {fmt(base.get('detected', float('nan')))}"
            )
            for scheme, row in self.architectural.get("schemes", {}).items():
                lines.append(
                    f"  {scheme:<18} sdc {fmt(row['sdc_rate'])}"
                    f" coverage {fmt(row['coverage'])}"
                    f" overhead {fmt(row['energy_overhead'])}"
                )
        if self.health:
            lines.append("\n[health]")
            for name, value in self.health.items():
                lines.append(f"  {name:<44s} {value}")
        if self.exec_summary:
            lines.append(f"\n-- exec: {self.exec_summary.get('one_line', '')}")
        return "\n".join(lines)


def architectural_campaign(n_flips: int = 200, seed: int = 0) -> dict:
    """Bit-flip outcome rates, bare and per protection scheme (E19)."""
    trace = generate_trace(400, rng=seed)
    base = injection_campaign(trace, n_injections=n_flips, rng=seed)
    schemes = compare_protection_schemes(
        trace, n_injections=n_flips, rng=seed
    )
    return {
        "n_flips": n_flips,
        "outcome_rates": {
            "masked": base.rate(Outcome.MASKED),
            "sdc": base.rate(Outcome.SDC),
            "detected": base.rate(Outcome.DETECTED),
        },
        "schemes": schemes,
    }


def run_campaign(
    models: Sequence[str] = ALL_MODELS,
    intensities: Sequence[float] = DEFAULT_INTENSITIES,
    reps: int = 2,
    scale: str = "smoke",
    jobs: int = 1,
    seed: int = 0,
    checkpoint_root: Optional[str] = None,
    hang_timeout_s: Optional[float] = None,
    timeout_s: Optional[float] = None,
    retries: int = 1,
    runner=None,
    skip_architectural: bool = False,
    backend: Optional[str] = None,
) -> ResilienceReport:
    """Sweep every requested model x intensity on the execution engine.

    Each sweep cell is one engine job (seeded deterministically via
    ``seed_key``, checkpointed via ``checkpoint_key`` when
    ``checkpoint_root`` is given); a cell that keeps failing becomes a
    FAILED row in the report while the rest of the sweep completes —
    the fault campaign is itself fault-tolerant.  ``backend`` names an
    execution backend (``serial``/``pool``/``socket``/``array``) built
    with ``jobs`` as its parallelism; an explicit ``runner`` wins.
    """
    if scale not in _SCALES:
        raise ValueError(f"unknown scale {scale!r} (want one of {sorted(_SCALES)})")
    if reps < 1:
        raise ValueError("reps must be >= 1")
    chosen = list(models)
    for model in chosen:
        if model not in _MODEL_TRIALS:
            raise ValueError(
                f"unknown model {model!r} (FaultTarget models: {ALL_MODELS})"
            )
    levels = [float(x) for x in intensities]
    if not chosen or not levels:
        raise ValueError("need at least one model and one intensity")
    if any(x < 0 for x in levels):
        raise ValueError("intensities must be non-negative")

    graph = JobGraph()
    for model in chosen:
        for intensity in levels:
            graph.add(Job(
                id=f"{model}-i{intensity:g}",
                fn=campaign_job,
                config={
                    "model": model,
                    "intensity": intensity,
                    "reps": int(reps),
                    "scale": scale,
                },
                seed_key="seed",
                checkpoint_key="checkpoint_path",
            ))

    if runner is None:
        runner = make_backend(backend, jobs=jobs)
    engine = ExecutionEngine(
        runner=runner,
        base_seed=seed,
        default_timeout_s=timeout_s,
        default_retries=retries,
        hang_timeout_s=hang_timeout_s,
        checkpoint_root=checkpoint_root,
    )
    run_report = engine.run(graph)

    report = ResilienceReport(
        meta={
            "models": chosen,
            "intensities": levels,
            "reps": int(reps),
            "scale": scale,
            "seed": int(seed),
            "jobs": int(jobs),
            "backend": capabilities_of(runner).name,
        },
    )
    for model in chosen:
        report.models[model] = _model_rows(model, levels, run_report)
    if not skip_architectural:
        report.architectural = architectural_campaign(
            n_flips=_SCALES[scale]["flips"], seed=seed
        )
    registry = instrument.default_registry()
    report.health = {
        **registry.health("resilience"),
        **registry.health("exec"),
        **registry.health("faults"),
    }
    report.exec_summary = {
        "one_line": run_report.one_line(),
        "statuses": {
            jid: rec.status.value for jid, rec in run_report.records.items()
        },
        "attempts": {
            jid: rec.attempts for jid, rec in run_report.records.items()
        },
        "resumes": {
            jid: rec.resumes for jid, rec in run_report.records.items()
        },
    }
    return report


def _model_rows(
    model: str, levels: Sequence[float], run_report: RunReport
) -> dict:
    curves: Dict[str, list] = {
        "throughput": [], "tail": [], "energy": [],
        "faults": [], "events_per_fault": [],
    }
    status: list = []
    for intensity in levels:
        record = run_report.records[f"{model}-i{intensity:g}"]
        status.append(record.status.value)
        if not record.ok:
            for series in curves.values():
                series.append(float("nan"))
            continue
        trials = record.result["trials"]
        faults = _mean([t["faults"] for t in trials])
        events = _mean([t["events"] for t in trials])
        curves["throughput"].append(_mean([t["throughput"] for t in trials]))
        curves["tail"].append(_mean([t["tail"] for t in trials]))
        curves["energy"].append(_mean([t["energy"] for t in trials]))
        curves["faults"].append(faults)
        # Mean kernel events between fault interventions: the DES
        # analogue of mean-time-between-interventions.  Infinite-free
        # baselines report NaN rather than inf (JSON-safe).
        curves["events_per_fault"].append(
            events / faults if faults else float("nan")
        )
    baseline = {key: series[0] for key, series in curves.items()}
    degradation = {
        key: [_ratio(v, baseline[key]) for v in curves[key]]
        for key in ("throughput", "tail", "energy")
    }
    return {
        "intensities": list(levels),
        "curves": curves,
        "degradation": degradation,
        "status": status,
    }


# ---------------------------------------------------------------------------
# CLI (dispatched by ``python -m repro resilience``)
# ---------------------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro resilience",
        description=(
            "Fleet-wide fault campaign: sweep every FaultTarget model "
            "across fault intensities and report degradation curves, "
            "fault-outcome rates, and resilience health gauges."
        ),
    )
    parser.add_argument(
        "--models", default="all", metavar="NAMES",
        help=f"'all' or comma-separated subset of {','.join(ALL_MODELS)}",
    )
    parser.add_argument(
        "--intensities", default="0,0.5,1,2", metavar="X,Y,...",
        help="fault-rate multipliers; 0 is the baseline (default 0,0.5,1,2)",
    )
    parser.add_argument(
        "--reps", type=int, default=2, metavar="N",
        help="repetitions (distinct seeds) per sweep cell (default 2)",
    )
    parser.add_argument(
        "--scale", choices=sorted(_SCALES), default="smoke",
        help="workload sizing (default smoke)",
    )
    parser.add_argument(
        "--jobs", "-j", type=int, default=1, metavar="N",
        help="worker processes (default 1 = serial in-process)",
    )
    parser.add_argument(
        "--backend", choices=("serial", "pool", "socket", "array"),
        default=None, metavar="B",
        help=(
            "execution backend for the sweep (socket: elastic TCP "
            "workers, --jobs loopback workers spawned; array: batch "
            "manifests); default: serial, or pool when --jobs > 1"
        ),
    )
    parser.add_argument("--seed", type=int, default=0, metavar="S")
    parser.add_argument(
        "--timeout", type=float, default=None, metavar="S",
        help="per-cell wall-clock timeout (seconds)",
    )
    parser.add_argument(
        "--hang-timeout", type=float, default=None, metavar="S",
        help="watchdog: kill a worker silent for S seconds (needs --jobs > 1)",
    )
    parser.add_argument(
        "--checkpoint-root", default=None, metavar="DIR",
        help="durable per-job checkpoint directory (enables mid-sweep resume)",
    )
    parser.add_argument(
        "--output", "-o", default=None, metavar="PATH",
        help="write the ResilienceReport as JSON",
    )
    parser.add_argument(
        "--no-architectural", action="store_true",
        help="skip the bit-flip outcome campaign",
    )
    parser.add_argument(
        "--instrument", action="store_true",
        help="enable the session metrics registry (health gauges)",
    )
    args = parser.parse_args(list(argv) if argv is not None else None)
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    if args.reps < 1:
        parser.error("--reps must be >= 1")
    if args.timeout is not None and args.timeout <= 0:
        parser.error("--timeout must be positive")
    if args.hang_timeout is not None and args.hang_timeout <= 0:
        parser.error("--hang-timeout must be positive")

    if args.instrument:
        instrument.enable_session()
    models = (
        list(ALL_MODELS) if args.models == "all"
        else [tok for tok in args.models.split(",") if tok]
    )
    try:
        intensities = [
            float(tok) for tok in args.intensities.split(",") if tok
        ]
        report = run_campaign(
            models=models,
            intensities=intensities,
            reps=args.reps,
            scale=args.scale,
            jobs=args.jobs,
            seed=args.seed,
            checkpoint_root=args.checkpoint_root,
            hang_timeout_s=args.hang_timeout,
            timeout_s=args.timeout,
            skip_architectural=args.no_architectural,
            backend=args.backend,
        )
    except ValueError as exc:
        parser.error(str(exc))
        return 2
    print(report.summary())
    if args.output:
        report.save(args.output)
        print(f"-- report written to {args.output}")
    return 0 if report.ok else 1


if __name__ == "__main__":  # pragma: no cover - exercised via -m repro
    import sys

    sys.exit(main())
