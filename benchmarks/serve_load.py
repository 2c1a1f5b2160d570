"""Open-loop load generator for the experiment service (PR7).

Boots the real serve stack (``repro.serve.build_app`` — the same
composition ``python -m repro serve`` runs) in-process per (backend,
repetition), fires Poisson arrival trains at it over real loopback
HTTP, and reports a run table: one row per (run, repetition), where a
*run* is a (backend, phase) pair.  Column semantics live in
``benchmarks/RUN_TABLE_COLUMNS.md``.

Phases, per server boot:

* ``unique``     — every request is a distinct design point: the
  no-coalescing baseline for throughput and tail latency.
* ``duplicate``  — N requests for *one* design point while it is in
  flight: the backend must execute exactly once and fan the result to
  every waiter (``coalesce_rate >= (N-1)/N``).
* ``mixed``      — fresh points interleaved with repeats of a small
  pool: exercises coalescing and the cache fast path together.

Gates (exit 1 on violation): zero failed runs anywhere, the duplicate
phase dispatched exactly one backend job, and p99 latency is reported
for every completed phase.

Usage::

    python benchmarks/serve_load.py --quick --backends socket
    python benchmarks/serve_load.py --output BENCH_PR7.json \
        --table run_table.csv
"""

from __future__ import annotations

import argparse
import asyncio
import csv
import json
import platform
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Optional

import numpy as np

_HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(_HERE.parent / "src"))

from repro.serve import ServerThread, arequest, build_app  # noqa: E402
from repro.serve.client import ServeClient  # noqa: E402

WAIT_TIMEOUT_S = 30.0


# ---------------------------------------------------------------------------
# Phase plans: lists of request payloads plus the offered arrival rate.
# ---------------------------------------------------------------------------


def _spin(duration_s: float, tag: str) -> dict:
    return {
        "workload": "spin",
        "params": {"duration_s": duration_s, "tag": tag},
        "wait": True,
        "wait_timeout_s": WAIT_TIMEOUT_S,
    }


def phase_plans(quick: bool, rep: int, rng: np.random.Generator) -> list[dict]:
    """The three phases, sized for ~5s (full) or ~2s (quick) per boot."""
    n_unique = 30 if quick else 80
    n_dup = 12 if quick else 24
    n_mixed = 24 if quick else 60
    pool = [_spin(0.005, f"pool-{rep}-{k}") for k in range(6)]
    mixed = [
        _spin(0.005, f"mix-{rep}-{i}") if rng.random() < 0.5
        else pool[int(rng.integers(len(pool)))]
        for i in range(n_mixed)
    ]
    return [
        {
            "phase": "unique",
            "offered_rps": 30.0 if quick else 40.0,
            "payloads": [_spin(0.005, f"uniq-{rep}-{i}") for i in range(n_unique)],
        },
        {
            "phase": "duplicate",
            "offered_rps": 80.0 if quick else 120.0,
            # One slow point, requested n_dup times: the whole arrival
            # train lands while the single backend job is running.
            "payloads": [_spin(0.3, f"dup-{rep}")] * n_dup,
        },
        {
            "phase": "mixed",
            "offered_rps": 30.0 if quick else 40.0,
            "payloads": mixed,
        },
    ]


# ---------------------------------------------------------------------------
# Driving one phase: Poisson arrivals, per-request latency, metric deltas.
# ---------------------------------------------------------------------------


def parse_prom(text: str) -> dict[str, float]:
    """Un-labelled sample lines of a Prometheus exposition -> floats."""
    values: dict[str, float] = {}
    for line in text.splitlines():
        if line.startswith("#") or not line.strip() or "{" in line:
            continue
        name, _, value = line.partition(" ")
        try:
            values[name] = float(value)
        except ValueError:
            continue
    return values


async def _fire(
    host: str, port: int, delay_s: float, payload: dict
) -> tuple[int, Optional[str], float]:
    """(status, run status or None, client-observed latency ms)."""
    await asyncio.sleep(delay_s)
    start = time.perf_counter()
    try:
        status, _, body = await arequest(
            host, port, "POST", "/v1/experiments", payload,
            timeout_s=WAIT_TIMEOUT_S + 10.0,
        )
    except (OSError, asyncio.TimeoutError):
        return 599, None, (time.perf_counter() - start) * 1e3
    latency_ms = (time.perf_counter() - start) * 1e3
    run_status = None
    if isinstance(body, dict) and body.get("runs"):
        statuses = {run["status"] for run in body["runs"]}
        run_status = statuses.pop() if len(statuses) == 1 else "mixed"
    return status, run_status, latency_ms


async def _run_phase(
    host: str, port: int, payloads: list[dict], offered_rps: float, seed: int
) -> tuple[list[tuple[int, Optional[str], float]], float]:
    rng = np.random.default_rng(seed)
    arrivals = rng.exponential(1.0 / offered_rps, size=len(payloads)).cumsum()
    start = time.perf_counter()
    results = await asyncio.gather(
        *(_fire(host, port, float(at), p) for at, p in zip(arrivals, payloads))
    )
    return list(results), time.perf_counter() - start


def run_phase(
    client: ServeClient, plan: dict, backend: str, repetition: int, seed: int
) -> dict:
    """Fire one phase at a live server; return its run-table row."""
    before = parse_prom(client.metrics_text())
    results, duration_s = asyncio.run(
        _run_phase(
            client.host, client.port, plan["payloads"], plan["offered_rps"], seed
        )
    )
    after = parse_prom(client.metrics_text())

    def delta(name: str) -> float:
        return after.get(name, 0.0) - before.get(name, 0.0)

    requests = len(results)
    shed = sum(1 for status, _, _ in results if status == 429)
    completed = sum(
        1
        for status, run_status, _ in results
        if status == 200 and run_status == "succeeded"
    )
    failed = requests - shed - completed
    latencies = [
        lat
        for status, run_status, lat in results
        if status == 200 and run_status == "succeeded"
    ]
    accepted = max(1, requests - shed)
    dispatched = delta("repro_serve_dispatched_total")

    def percentile(q: float) -> float:
        return float(np.percentile(latencies, q)) if latencies else 0.0
    return {
        "run": f"{backend}/{plan['phase']}",
        "repetition": repetition,
        "backend": backend,
        "phase": plan["phase"],
        "offered_rps": plan["offered_rps"],
        "duration_s": round(duration_s, 4),
        "requests": requests,
        "completed": completed,
        "shed": shed,
        "failed": failed,
        "dispatched": int(dispatched),
        "throughput_rps": round(completed / duration_s, 2),
        "p50_ms": round(percentile(50), 2),
        "p95_ms": round(percentile(95), 2),
        "p99_ms": round(percentile(99), 2),
        "failure_rate": round(failed / requests, 4),
        "coalesce_rate": round(max(0.0, 1.0 - dispatched / accepted), 4),
        "shed_rate": round(shed / requests, 4),
        "cache_hit_rate": round(
            delta("repro_serve_cache_fast_path_total") / accepted, 4
        ),
    }


COLUMNS = [
    "run", "repetition", "backend", "phase", "offered_rps", "duration_s",
    "requests", "completed", "shed", "failed", "dispatched",
    "throughput_rps", "p50_ms", "p95_ms", "p99_ms",
    "failure_rate", "coalesce_rate", "shed_rate", "cache_hit_rate",
]


# ---------------------------------------------------------------------------
# Campaign: backends x repetitions, fresh server (and cold cache) each.
# ---------------------------------------------------------------------------


def _jobs_for(backend: str) -> int:
    return 1 if backend == "serial" else 2


def run_campaign(
    backends: list[str], repetitions: int, quick: bool, base_seed: int = 20140215
) -> list[dict]:
    rows = []
    for backend in backends:
        for rep in range(1, repetitions + 1):
            rng = np.random.default_rng(base_seed + rep)
            with tempfile.TemporaryDirectory(prefix="serve-load-") as cache:
                app = build_app(
                    backend=backend, jobs=_jobs_for(backend), cache_dir=cache
                )
                with ServerThread(app) as server, ServeClient(
                    *server.address, timeout_s=WAIT_TIMEOUT_S + 10.0
                ) as client:
                    for i, plan in enumerate(phase_plans(quick, rep, rng)):
                        row = run_phase(
                            client, plan, backend, rep, seed=base_seed + rep * 97 + i
                        )
                        rows.append(row)
                        print(
                            f"  {row['run']:>18s} rep {rep}: "
                            f"{row['throughput_rps']:7.1f} rps  "
                            f"p99 {row['p99_ms']:7.1f} ms  "
                            f"coalesce {row['coalesce_rate']:.2f}  "
                            f"failed {row['failed']}"
                        )
    return rows


def check_gates(rows: list[dict]) -> list[str]:
    """Violation messages; empty means every gate passed."""
    failures = []
    for row in rows:
        label = f"{row['run']} rep {row['repetition']}"
        if row["failed"]:
            failures.append(f"{label}: {row['failed']} failed runs (want 0)")
        if row["completed"] and row["p99_ms"] <= 0:
            failures.append(f"{label}: p99 not reported")
        if row["phase"] == "duplicate":
            if row["dispatched"] != 1:
                failures.append(
                    f"{label}: duplicate phase dispatched "
                    f"{row['dispatched']} backend jobs (want exactly 1)"
                )
            floor = (row["requests"] - 1) / row["requests"]
            # Recompute unrounded: the stored rate is rounded to 4 dp.
            rate = 1.0 - row["dispatched"] / max(1, row["requests"] - row["shed"])
            if rate < floor:
                failures.append(
                    f"{label}: coalesce_rate {rate:.4f} "
                    f"< (N-1)/N = {floor:.4f}"
                )
    return failures


def serve_rps_summary(rows: list[dict]) -> dict[str, float]:
    """Median throughput per (backend, phase) — the perf-gate family."""
    by_key: dict[str, list[float]] = {}
    for row in rows:
        by_key.setdefault(
            f"{row['backend']}_{row['phase']}", []
        ).append(row["throughput_rps"])
    return {
        key: round(statistics.median(values), 2)
        for key, values in sorted(by_key.items())
    }


# ---------------------------------------------------------------------------
# Hedged vs unhedged tail latency: the serve hedge (HedgedRunner) must
# buy a measured p99 improvement on a straggler-laced closed loop.
# ---------------------------------------------------------------------------


def run_hedge_compare(
    quick: bool = False, hedge_ms: float = 120.0
) -> dict:
    """Drive the ``straggler`` workload with and without hedging.

    Closed loop (one request in flight) against a 2-worker pool, so the
    second worker is always free to take a hedge.  Straggler selection
    is a stable hash of the tag, and the stall is *transient* (marker
    file in ``scratch_dir``): the same tags stall in both runs, and a
    hedged duplicate deterministically runs fast — exactly the
    situation hedging exists for.  Returns both latency profiles plus
    the p99 gate verdict.
    """
    n = 24 if quick else 48
    slow_s = 0.35 if quick else 0.5
    out: dict = {"hedge_ms": hedge_ms, "requests": n}
    for label, ms in (("no_hedge", None), ("hedged", hedge_ms)):
        with tempfile.TemporaryDirectory(prefix="serve-hedge-") as root:
            app = build_app(
                backend="pool", jobs=2, cache_dir=f"{root}/cache",
                hedge_ms=ms,
            )
            with ServerThread(app) as server, ServeClient(
                *server.address, timeout_s=WAIT_TIMEOUT_S + 10.0
            ) as client:
                latencies, failed = [], 0
                for i in range(n):
                    payload = {
                        "workload": "straggler",
                        "params": {
                            "base_s": 0.02,
                            "slow_s": slow_s,
                            "slow_every": 5,
                            "tag": f"strag-{i}",
                            "scratch_dir": f"{root}/markers",
                        },
                        "wait": True,
                        "wait_timeout_s": WAIT_TIMEOUT_S,
                    }
                    start = time.perf_counter()
                    status, _, body = client.request(
                        "POST", "/v1/experiments", payload
                    )
                    latency_ms = (time.perf_counter() - start) * 1e3
                    ok = (
                        status == 200
                        and isinstance(body, dict)
                        and body.get("runs")
                        and body["runs"][0]["status"] == "succeeded"
                    )
                    if ok:
                        latencies.append(latency_ms)
                    else:
                        failed += 1
                out[label] = {
                    "completed": len(latencies),
                    "failed": failed,
                    "mean_ms": round(float(np.mean(latencies)), 2),
                    "p50_ms": round(float(np.percentile(latencies, 50)), 2),
                    "p99_ms": round(float(np.percentile(latencies, 99)), 2),
                }
                print(
                    f"  hedge-compare {label:>9s}: "
                    f"p50 {out[label]['p50_ms']:7.1f} ms  "
                    f"p99 {out[label]['p99_ms']:7.1f} ms  "
                    f"failed {failed}"
                )
    out["p99_improvement_ms"] = round(
        out["no_hedge"]["p99_ms"] - out["hedged"]["p99_ms"], 2
    )
    out["gate_passed"] = (
        out["no_hedge"]["failed"] == 0
        and out["hedged"]["failed"] == 0
        and out["hedged"]["p99_ms"] < out["no_hedge"]["p99_ms"]
    )
    return out


def measure_for_harness(repeats: int = 2) -> dict[str, float]:
    """Serial-only numbers for ``perf_harness.measure_serve``.

    Full-size phases (not ``--quick``), because the keys must be
    comparable to the ``serve_rps`` family in ``BENCH_PR7.json`` —
    open-loop throughput tracks the offered rate, so quick-mode trains
    would read structurally lower than the committed baseline.
    """
    rows = run_campaign(["serial"], repetitions=repeats, quick=False)
    return {
        key: value
        for key, value in serve_rps_summary(rows).items()
        if key.startswith("serial_")
    }


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--backends",
        default="serial,socket",
        help="comma-separated make_backend names (default: serial,socket)",
    )
    parser.add_argument("--reps", type=int, default=3)
    parser.add_argument(
        "--quick", action="store_true",
        help="smaller trains, one repetition (CI smoke)",
    )
    parser.add_argument(
        "--table", type=Path, default=Path("run_table.csv"),
        help="run-table CSV artifact (see RUN_TABLE_COLUMNS.md)",
    )
    parser.add_argument(
        "--output", type=Path, default=None,
        help="JSON summary (the committed BENCH_PR7.json)",
    )
    parser.add_argument(
        "--hedge-compare", action="store_true",
        help=(
            "only run the hedged vs unhedged straggler comparison "
            "(PR9's tail-tolerance gate) and print/emit its verdict"
        ),
    )
    args = parser.parse_args(argv)

    if args.hedge_compare:
        print("serve_load: hedge comparison (straggler workload, pool x2)")
        hedge = run_hedge_compare(quick=args.quick)
        if args.output is not None:
            args.output.write_text(json.dumps(hedge, indent=2) + "\n")
            print(f"wrote {args.output}")
        if not hedge["gate_passed"]:
            print(
                "HEDGE GATE FAILED: hedged p99 "
                f"{hedge['hedged']['p99_ms']} ms !< unhedged p99 "
                f"{hedge['no_hedge']['p99_ms']} ms"
            )
            return 1
        print(
            "hedge gate passed: p99 "
            f"{hedge['no_hedge']['p99_ms']} ms -> {hedge['hedged']['p99_ms']} "
            f"ms ({hedge['p99_improvement_ms']} ms better)"
        )
        return 0

    backends = [b.strip() for b in args.backends.split(",") if b.strip()]
    repetitions = 1 if args.quick else args.reps

    print(
        f"serve_load: backends={backends} reps={repetitions} quick={args.quick}"
    )
    rows = run_campaign(backends, repetitions, args.quick)

    with args.table.open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {args.table} ({len(rows)} rows)")

    failures = check_gates(rows)
    if args.output is not None:
        summary = {
            "meta": {
                "harness": "benchmarks/serve_load.py",
                "backends": backends,
                "repetitions": repetitions,
                "quick": args.quick,
                "python": platform.python_version(),
                "machine": platform.machine(),
            },
            "table": rows,
            "gates_passed": not failures,
            "current": {"serve_rps": serve_rps_summary(rows)},
        }
        args.output.write_text(json.dumps(summary, indent=2) + "\n")
        print(f"wrote {args.output}")

    if failures:
        print("SERVE LOAD GATE FAILED:")
        for line in failures:
            print(f"  {line}")
        return 1
    print("serve load gates passed (zero failed, coalescing held, p99 reported)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
