"""Scenario-replay smoke (PR10): trace pipeline speed + board stability.

Measures the trace front end end to end — container write/read,
online interval statistics, and trace replay through each sink family —
and runs every championship twice, demanding identical leaderboard
digests.  With a baseline file (the committed ``BENCH_PR10.json``), the
throughput numbers gate regressions and the leaderboard *scores* must
match to a relative tolerance of 1e-6: scenario replay is advertised as
deterministic by id, so a score that moves is a behaviour change, not
noise.

Gates:

* peak replay throughput >= 1M records/s (the wear path, which applies
  its writes in closed form; the queue/cpu paths walk their records one
  at a time and carry their own regression floors),
* reader and online-stats throughput regression vs baseline,
* leaderboard digest identical across two runs in-process,
* leaderboard scores equal to the committed baseline.

Usage::

    python benchmarks/scenario_smoke.py --output bench.json
    python benchmarks/scenario_smoke.py --baseline BENCH_PR10.json \
        --quick          # CI gate
"""

from __future__ import annotations

import argparse
import io
import json
import platform
import sys
import time
from pathlib import Path
from typing import Optional

_HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(_HERE.parent / "src"))

from repro.scenarios.championship import run_all  # noqa: E402
from repro.traces.format import TraceReader, TraceWriter  # noqa: E402
from repro.traces.generators import generate  # noqa: E402
from repro.traces.replay import replay  # noqa: E402
from repro.traces.stats import IntervalStats  # noqa: E402

#: Replay paths measured, with the record volume each can turn over in
#: benchmark-friendly time.  ``scale`` multiplies the base volume.
REPLAY_PATHS = (
    ("queue_rr", "steady-requests", "queue",
     {"policy": "rr", "n_servers": 8}, 400_000),
    ("cpu", "instr-mix", "cpu", {}, 400_000),
    ("wear_start_gap", "wear-hotline", "wear",
     {"leveler": "start-gap"}, 2_000_000),
)

#: Hard floor from the PR acceptance bar: at least one replay path
#: must sustain a million records per second.
PEAK_REPLAY_FLOOR = 1_000_000.0


def _rate(n: int, seconds: float) -> float:
    return round(n / seconds, 1) if seconds > 0 else float("inf")


def measure_container(n: int, repeats: int) -> dict:
    kind, arr = generate("kv-zipf", seed=20260808, n=n)
    write_best = read_best = stats_best = 0.0
    raw = b""
    for _ in range(repeats):
        buf = io.BytesIO()
        t0 = time.perf_counter()
        with TraceWriter(buf) as w:
            w.write_block(kind, arr)
        dt = time.perf_counter() - t0
        write_best = max(write_best, n / dt)
        raw = buf.getvalue()

        t0 = time.perf_counter()
        with TraceReader(raw) as r:
            got = sum(len(a) for _, a in r.blocks())
        dt = time.perf_counter() - t0
        assert got == n
        read_best = max(read_best, n / dt)

        stats = IntervalStats(10_000)
        t0 = time.perf_counter()
        stats.feed(kind, arr)
        stats.finish()
        dt = time.perf_counter() - t0
        stats_best = max(stats_best, n / dt)
    return {
        "records": n,
        "bytes": len(raw),
        "write_records_per_s": round(write_best, 1),
        "read_records_per_s": round(read_best, 1),
        "stats_records_per_s": round(stats_best, 1),
    }


def measure_replay(scale: float, repeats: int) -> dict:
    out: dict = {}
    peak = 0.0
    for name, profile, sink, params, base_n in REPLAY_PATHS:
        n = max(10_000, int(base_n * scale))
        kind, arr = generate(profile, seed=20260808, n=n)
        best = 0.0
        for _ in range(repeats):
            t0 = time.perf_counter()
            result = replay([(kind, arr)], sink, params)
            dt = time.perf_counter() - t0
            assert result.records == n
            best = max(best, n / dt)
        out[name] = {"records": n, "records_per_s": round(best, 1)}
        peak = max(peak, best)
    out["peak_records_per_s"] = round(peak, 1)
    out["peak_gate_records_per_s"] = PEAK_REPLAY_FLOOR
    out["gate_passed"] = peak >= PEAK_REPLAY_FLOOR
    return out


def measure_leaderboard() -> dict:
    t0 = time.perf_counter()
    first = run_all()
    wall = time.perf_counter() - t0
    second = run_all()
    scores = {
        name: {e["policy"]: e["score"] for e in board["entries"]}
        for name, board in first["championships"].items()
    }
    return {
        "digest": first["digest"],
        "rerun_digest": second["digest"],
        "digests_match": first["digest"] == second["digest"],
        "wall_s": round(wall, 2),
        "scores": scores,
        "gate_passed": first["digest"] == second["digest"],
    }


def compare(current: dict, baseline: dict, max_regression: float) -> list:
    """Regression messages against the committed baseline; [] passes."""
    failures = []
    base = baseline.get("container", {})
    cur = current.get("container", {})
    for key in ("read_records_per_s", "stats_records_per_s"):
        if key in base and key in cur:
            floor = base[key] * (1.0 - max_regression)
            if cur[key] < floor:
                failures.append(
                    f"container.{key}: {cur[key]:,.0f} < floor "
                    f"{floor:,.0f} (baseline {base[key]:,.0f})"
                )
    base_r = baseline.get("replay", {})
    cur_r = current.get("replay", {})
    for name, _, _, _, _ in REPLAY_PATHS:
        if name in base_r and name in cur_r:
            floor = base_r[name]["records_per_s"] * (1.0 - max_regression)
            if cur_r[name]["records_per_s"] < floor:
                failures.append(
                    f"replay.{name}: {cur_r[name]['records_per_s']:,.0f} "
                    f"< floor {floor:,.0f}"
                )
    base_scores = baseline.get("leaderboard", {}).get("scores", {})
    cur_scores = current.get("leaderboard", {}).get("scores", {})
    for champ, policies in base_scores.items():
        for policy, score in policies.items():
            got = cur_scores.get(champ, {}).get(policy)
            if got is None:
                failures.append(f"leaderboard {champ}/{policy}: missing")
            elif abs(got - score) > 1e-6 * max(1.0, abs(score)):
                failures.append(
                    f"leaderboard {champ}/{policy}: score {got!r} != "
                    f"baseline {score!r} — replay behaviour changed"
                )
    return failures


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", help="write the JSON result here")
    parser.add_argument("--baseline", help="committed BENCH_PR10.json")
    parser.add_argument("--quick", action="store_true",
                        help="smaller volumes, one repeat (CI)")
    parser.add_argument("--max-regression", type=float, default=0.30)
    args = parser.parse_args(argv)

    repeats = 1 if args.quick else 3
    n = 200_000 if args.quick else 1_000_000
    scale = 0.25 if args.quick else 1.0

    result = {
        "meta": {
            "harness": "benchmarks/scenario_smoke.py",
            "quick": bool(args.quick),
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "container": measure_container(n, repeats),
        "replay": measure_replay(scale, repeats),
        "leaderboard": measure_leaderboard(),
    }

    failures = []
    if not result["replay"]["gate_passed"]:
        failures.append(
            f"peak replay {result['replay']['peak_records_per_s']:,.0f} "
            f"records/s < {PEAK_REPLAY_FLOOR:,.0f} floor"
        )
    if not result["leaderboard"]["gate_passed"]:
        failures.append("leaderboard digest not reproducible in-process")
    if args.baseline:
        with open(args.baseline) as f:
            baseline = json.load(f)
        failures.extend(compare(result, baseline, args.max_regression))

    result["gates_passed"] = not failures

    if args.output:
        with open(args.output, "w") as f:
            json.dump(result, f, indent=1, sort_keys=True)
            f.write("\n")

    c = result["container"]
    r = result["replay"]
    print(f"container: write {c['write_records_per_s']:,.0f}/s  "
          f"read {c['read_records_per_s']:,.0f}/s  "
          f"stats {c['stats_records_per_s']:,.0f}/s")
    for name, _, _, _, _ in REPLAY_PATHS:
        print(f"replay.{name}: {r[name]['records_per_s']:,.0f} records/s")
    print(f"replay peak: {r['peak_records_per_s']:,.0f} records/s "
          f"(gate {PEAK_REPLAY_FLOOR:,.0f})")
    print(f"leaderboard: digest {result['leaderboard']['digest'][:16]}… "
          f"match={result['leaderboard']['digests_match']}")
    if failures:
        for message in failures:
            print(f"GATE FAILED: {message}", file=sys.stderr)
        return 1
    print("scenario smoke passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
