"""Transport-chaos smoke campaign (PR9): trust under a lying network.

Runs one seeded sweep twice on the socket backend — once over a clean
loopback transport, once with the frame-level chaos injector armed on
*both* sides of every link (drops, delays, duplicates, truncations,
bit-flips) plus worker respawn — and demands the two
:meth:`~repro.exec.engine.RunReport.digest` values be **identical**.
That is the whole trust claim in one gate: retries, eviction,
checksums, job-id-tagged frames, dedup replay, and respawn must turn
arbitrary transport abuse into *latency*, never into different
answers.

Also embeds the hedged-vs-unhedged tail comparison from
``benchmarks/serve_load.py --hedge-compare`` so one invocation emits
the committed ``BENCH_PR9.json``.

Usage::

    python benchmarks/chaos_net_smoke.py --quick --output BENCH_PR9.json
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path
from typing import Optional

_HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(_HERE.parent / "src"))
sys.path.insert(0, str(_HERE))

from repro.exec.backends.chaos import ChaosConfig  # noqa: E402
from repro.exec.backends.socket_worker import SocketWorkerBackend  # noqa: E402
from repro.exec.engine import ExecutionEngine, RunReport  # noqa: E402
from repro.exec.job import Job, JobGraph  # noqa: E402

#: The chaos the campaign runs under.  Rates are tuned so a full sweep
#: sees a double-digit number of injected faults (several of them
#: connection-fatal) while eight retries keep success certain.
CAMPAIGN_CHAOS = ChaosConfig(
    seed=20140215,
    drop=0.01,
    duplicate=0.05,
    delay=0.25,
    truncate=0.015,
    bitflip=0.015,
    max_delay_ms=5.0,
)


def _design_point(config: dict) -> dict:
    """Deterministic toy design point: pure function of ``i``."""
    i = int(config["i"])
    time.sleep(0.004)  # give the transport something to interleave
    return {"i": i, "y": (i * i * 2654435761 + 97) % 1000003}


def _build_graph(n: int) -> JobGraph:
    return JobGraph(
        Job(id=f"cp-{i:03d}", fn=_design_point, config={"i": i})
        for i in range(n)
    )


def _run_sweep(
    n: int, chaos: Optional[ChaosConfig]
) -> tuple[RunReport, dict]:
    """One sweep on a fresh 2-worker socket backend; report + counters."""
    backend = SocketWorkerBackend(
        spawn=2,
        chaos=chaos,
        worker_chaos=chaos,
        respawn=chaos is not None,
    )
    engine = ExecutionEngine(
        runner=backend,
        default_retries=8,
        default_timeout_s=10.0,
    )
    report = engine.run(_build_graph(n))
    return report, backend.describe()


def run_chaos_campaign(quick: bool = False) -> dict:
    n = 20 if quick else 36
    print(f"chaos campaign: {n} jobs, socket backend x2 workers")

    t0 = time.perf_counter()
    clean_report, clean_stats = _run_sweep(n, chaos=None)
    clean_s = time.perf_counter() - t0
    print(f"  clean: {clean_report.one_line()}  ({clean_s:.1f}s)")

    t0 = time.perf_counter()
    chaos_report, chaos_stats = _run_sweep(n, chaos=CAMPAIGN_CHAOS)
    chaos_s = time.perf_counter() - t0
    print(f"  chaos: {chaos_report.one_line()}  ({chaos_s:.1f}s)")

    def _attempts(report: RunReport) -> int:
        return sum(rec.attempts for rec in report.records.values())

    evidence = (
        chaos_stats["workers_lost"]
        + chaos_stats["respawns"]
        + chaos_stats["mismatched_frames"]
        + max(0, _attempts(chaos_report) - _attempts(clean_report))
    )
    digests_match = clean_report.digest() == chaos_report.digest()
    all_ok = clean_report.ok and chaos_report.ok
    out = {
        "jobs": n,
        "chaos_spec": CAMPAIGN_CHAOS.to_spec(),
        "clean": {
            "digest": clean_report.digest(),
            "wall_s": round(clean_s, 2),
            "attempts": _attempts(clean_report),
        },
        "chaos": {
            "digest": chaos_report.digest(),
            "wall_s": round(chaos_s, 2),
            "attempts": _attempts(chaos_report),
            "workers_lost": chaos_stats["workers_lost"],
            "respawns": chaos_stats["respawns"],
            "mismatched_frames": chaos_stats["mismatched_frames"],
        },
        "digests_match": digests_match,
        "chaos_evidence": evidence,
        "gate_passed": digests_match and all_ok and evidence > 0,
    }
    print(
        f"  digests match: {digests_match}  "
        f"(lost={chaos_stats['workers_lost']} "
        f"respawns={chaos_stats['respawns']} "
        f"attempts {_attempts(clean_report)}->{_attempts(chaos_report)})"
    )
    return out


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="smaller sweep and hedge train (CI smoke)",
    )
    parser.add_argument(
        "--skip-hedge", action="store_true",
        help="chaos campaign only (skip the serve-layer hedge comparison)",
    )
    parser.add_argument(
        "--output", type=Path, default=None,
        help="JSON report (the committed BENCH_PR9.json)",
    )
    args = parser.parse_args(argv)

    chaos = run_chaos_campaign(quick=args.quick)
    gates = [("chaos digest parity", chaos["gate_passed"])]

    hedge = None
    if not args.skip_hedge:
        from serve_load import run_hedge_compare

        print("hedge comparison: straggler workload, pool x2")
        hedge = run_hedge_compare(quick=args.quick)
        gates.append(("hedged p99 improvement", hedge["gate_passed"]))

    if args.output is not None:
        summary = {
            "meta": {
                "harness": "benchmarks/chaos_net_smoke.py",
                "quick": args.quick,
                "python": platform.python_version(),
                "machine": platform.machine(),
            },
            "chaos": chaos,
            "hedge": hedge,
            "gates_passed": all(ok for _, ok in gates),
        }
        args.output.write_text(json.dumps(summary, indent=2) + "\n")
        print(f"wrote {args.output}")

    failed = [name for name, ok in gates if not ok]
    if failed:
        print(f"CHAOS SMOKE FAILED: {', '.join(failed)}")
        return 1
    print(f"chaos smoke passed ({', '.join(name for name, _ in gates)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
