"""``python -m repro obs`` — a seeded observability sweep with artifacts.

Runs the four kernel-hosted golden models (cluster, hedging, NoC,
harvest) as exec jobs with full telemetry capture (metrics + spans +
profile in every worker), merges the result deterministically, and
writes the exporter artifacts:

* ``--prom FILE``  — merged metrics in Prometheus text format;
* ``--json FILE``  — the canonical-JSON observability report (job
  statuses, merged metrics state, per-job span streams and digests,
  profile);
* ``--flame FILE`` — the merged collapsed-stack profile (flamegraph.pl
  / speedscope compatible).

The per-job span-stream digests in the JSON report are the observable
determinism witness: the same seeds produce the same digests on any
machine, serial or pool (the golden-trace test suite pins the
same property).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from repro.core.events import Simulator

from .export import canonical_json, registry_state_to_prometheus
from .profile import SimProfiler
from .spans import span_stream_digest
from .telemetry import TelemetryOptions, payload_spans

#: Canonical seeds, matching the golden determinism/trace suites.
MODEL_SEEDS = {"cluster": 123, "hedging": 7, "noc": 5, "harvest": 3}


def _job_cluster(config: dict) -> dict:
    from repro.datacenter.cluster import Balancer, ClusterConfig, ClusterSimulator

    result = ClusterSimulator(ClusterConfig(
        n_servers=8,
        balancer=Balancer.JSQ,
        slow_server_fraction=0.25,
        slow_factor=3.0,
    )).run(arrival_rate=6.0, n_requests=400, rng=config["seed"],
           sim=Simulator())
    return {"p50": result.p50, "p99": result.p99,
            "utilization": result.utilization}


def _job_hedging(config: dict) -> dict:
    import numpy as np

    from repro.datacenter.hedging import kernel_hedged_latencies
    from repro.datacenter.latency import lognormal_latency

    dist = lognormal_latency(median_ms=10.0, sigma=0.8)
    out = kernel_hedged_latencies(
        dist, 300, trigger_quantile=0.9, rng=config["seed"]
    )
    return {
        "p99_ms": float(np.percentile(out["latencies"], 99)),
        "extra_load_fraction": out["extra_load_fraction"],
    }


def _job_noc(config: dict) -> dict:
    from repro.interconnect.noc import MeshNoC, NoCConfig
    from repro.interconnect.traffic import make_pattern, poisson_injection_times

    cfg = NoCConfig(width=4, height=4)
    pairs = make_pattern("uniform", 300, cfg.width, cfg.height,
                         rng=config["seed"])
    times = poisson_injection_times(300, rate_per_cycle=0.8,
                                    rng=config["seed"])
    result = MeshNoC(cfg).run(pairs, injection_times=times, sim=Simulator())
    return {"mean_latency": result.mean_latency, "dropped": result.dropped,
            "cycles": result.cycles}


def _job_harvest(config: dict) -> dict:
    from repro.sensor.harvest import (
        Harvester,
        IntermittentConfig,
        simulate_intermittent,
    )

    result = simulate_intermittent(
        Harvester(), IntermittentConfig(),
        checkpoint_interval_quanta=10, n_intervals=2_000,
        rng=config["seed"],
    )
    return {"committed": result.committed_quanta,
            "failures": result.power_failures,
            "checkpoints": result.checkpoints}


MODEL_JOBS = {
    "cluster": _job_cluster,
    "hedging": _job_hedging,
    "noc": _job_noc,
    "harvest": _job_harvest,
}


def build_report(
    models: list[str],
    jobs: int = 1,
    seed_offset: int = 0,
    trace_capacity: int = 65536,
    profile_period: int = 16,
) -> dict:
    """Run the sweep with telemetry and assemble the JSON-able report."""
    from repro.exec import JobGraph, run_jobs
    from repro.exec.job import Job

    graph = JobGraph()
    for model in models:
        graph.add(Job(
            id=f"obs-{model}",
            fn=MODEL_JOBS[model],
            config={"seed": MODEL_SEEDS[model] + seed_offset},
        ))
    telemetry = TelemetryOptions(
        trace_capacity=trace_capacity,
        profile_period=profile_period,
    )
    report = run_jobs(graph, jobs=jobs, telemetry=telemetry)
    merged = report.telemetry or {}
    span_digests = {
        job_id: span_stream_digest(payload_spans({"spans": spans}))
        for job_id, spans in merged.get("spans", {}).items()
    }
    return {
        "models": models,
        "jobs": {
            job_id: {
                "status": record.status.value,
                "result": record.result,
                "attempts": record.attempts,
                "error": record.error,
            }
            for job_id, record in report.records.items()
        },
        "ok": report.ok,
        "telemetry": merged,
        "span_digests": span_digests,
        "one_line": report.one_line(),
    }


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro obs",
        description=(
            "Seeded observability sweep: run the golden kernel models "
            "with span tracing + profiling and export the telemetry."
        ),
    )
    parser.add_argument(
        "--models", default="cluster,hedging,noc,harvest", metavar="LIST",
        help=f"comma-separated subset of {sorted(MODEL_JOBS)} (default: all)",
    )
    parser.add_argument(
        "--jobs", "-j", type=int, default=1, metavar="N",
        help="worker processes (default 1 = serial in-process)",
    )
    parser.add_argument(
        "--seed-offset", type=int, default=0, metavar="K",
        help="offset added to every model's canonical seed (default 0)",
    )
    parser.add_argument(
        "--trace-capacity", type=int, default=65536, metavar="N",
        help="span sink capacity per worker (default 65536)",
    )
    parser.add_argument(
        "--profile-period", type=int, default=16, metavar="N",
        help="profiler samples every N-th executed event (default 16)",
    )
    parser.add_argument("--prom", metavar="FILE", default=None,
                        help="write merged metrics as Prometheus text")
    parser.add_argument("--json", metavar="FILE", default=None,
                        help="write the canonical-JSON observability report")
    parser.add_argument("--flame", metavar="FILE", default=None,
                        help="write the merged collapsed-stack profile")
    parser.add_argument("--verbose", "-v", action="store_true",
                        help="print per-job span counts and the top profile stacks")
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    if args.trace_capacity < 1:
        parser.error("--trace-capacity must be >= 1")
    if args.profile_period < 0:
        parser.error("--profile-period must be >= 0")
    models = [m for m in args.models.split(",") if m]
    unknown = [m for m in models if m not in MODEL_JOBS]
    if unknown:
        parser.error(f"unknown models {unknown}; choose from {sorted(MODEL_JOBS)}")

    report = build_report(
        models,
        jobs=args.jobs,
        seed_offset=args.seed_offset,
        trace_capacity=args.trace_capacity,
        profile_period=args.profile_period,
    )
    merged = report["telemetry"]

    if args.prom:
        with open(args.prom, "w") as fh:
            fh.write(registry_state_to_prometheus(merged.get("metrics", {})))
        print(f"wrote {args.prom}")
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(canonical_json(report))
        print(f"wrote {args.json}")
    if args.flame:
        with open(args.flame, "w") as fh:
            text = SimProfiler.merged_collapsed(merged.get("profile", {}))
            fh.write(text + "\n" if text else "")
        print(f"wrote {args.flame}")

    print(f"obs sweep: {report['one_line']}")
    for job_id in sorted(report["span_digests"]):
        n_spans = len(merged.get("spans", {}).get(job_id, ()))
        print(f"  {job_id:<14} {n_spans:>6} spans  "
              f"sha256 {report['span_digests'][job_id][:16]}")
    if args.verbose:
        profile = merged.get("profile", {})
        top = sorted(profile.items(), key=lambda kv: -kv[1])[:10]
        if top:
            print("top profile stacks (samples):")
            for stack, count in top:
                print(f"  {count:>8}  {stack}")
    return 0 if report["ok"] else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
