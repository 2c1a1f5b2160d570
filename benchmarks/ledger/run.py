"""The performance ledger: four workloads, every metric, one command.

    python benchmarks/ledger/run.py --seed 20140215
    python benchmarks/ledger/run.py --workload mem-replay --seed 7 \\
        --seconds 15 --trace 0
    python benchmarks/ledger/run.py --trace          # per-layer metrics

Each workload runs in a fresh Python process (``child.py``).  Untraced,
the run prints the end-to-end metrics; ``--trace`` (or ``--trace 1``)
prints the per-layer metrics from a traced run instead.  Every metric is
printed by name with its unit, and the last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
With several workloads the last line carries every workload's metrics
under ``<workload>/<metric>``.

Outputs go to ``.ledger/`` at the repository root: ``run_table.csv``
(one row per workload and round), ``result.json`` (input for
``compare.py``) and, when traced, ``spans.json``.  The exit code is 0
only when every check passed.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

from metrics import END_TO_END, PER_LAYER, quantile, summary
from workloads import DEFAULT_SEED, REF_NOMINAL_S, ROOT, SRC, WORKLOADS

HERE = Path(__file__).resolve().parent
OUT = ROOT / ".ledger"
#: Each workload process's ``TMPDIR``; removed when the process ends.
TMP = OUT / "tmp"
#: Set-up is measured this many times per workload (the main run plus
#: set-up-only processes), and the median is reported.
SETUP_SAMPLES = 3
#: String hash seed of every workload process and the server it starts.
#: With a random one per process, the same ``mem-replay`` input ran at
#: 92k to 104k records/s in six runs; with this one, at 99k to 104k.
HASH_SEED = "0"
LAYER_COLUMNS = ("traces", "core", "memory", "interconnect",
                 "unattributed")
TABLE_COLUMNS = (
    "workload", "seed", "phase", "round", "ops", "failed", "items",
    "wall_s", "items_per_s", "op_p50_ms", "ref_ms",
    *(f"{layer}_self_s" for layer in LAYER_COLUMNS),
)


def run_child(name: str, seed: int, seconds: float, trace: bool,
              setup_only: bool) -> Optional[dict]:
    """Run ``child.py`` in its own process group; its result or None."""
    tag = f"{name}-{'setup' if setup_only else 'trace' if trace else 'run'}"
    result = OUT / f"{tag}.json"
    result.unlink(missing_ok=True)
    argv = [sys.executable, str(HERE / "child.py"), "--workload", name,
            "--seed", str(seed), "--seconds", str(seconds),
            "--work", str(OUT / "work" / name), "--result", str(result)]
    if trace:
        argv.append("--trace")
    if setup_only:
        argv.append("--setup-only")
    TMP.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(TMP), PYTHONHASHSEED=HASH_SEED)
    proc = subprocess.Popen(argv, env=env, cwd=str(ROOT),
                            start_new_session=True)
    try:
        # Bounded so that a whole run, set-up samples included, ends
        # within three minutes for ``--seconds`` up to 20.
        code = proc.wait(timeout=30.0 if setup_only else 30.0 + 3 * seconds)
    except subprocess.TimeoutExpired:
        code = None
        print(f"error: {tag} did not finish in time", file=sys.stderr)
    finally:
        # The workload's own children (pool workers, the server) share
        # its process group; none may outlive the benchmark.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        shutil.rmtree(TMP, ignore_errors=True)
    if code != 0 or not result.is_file():
        print(f"error: {tag} failed (exit {code})", file=sys.stderr)
        return None
    with open(result, encoding="utf-8") as fh:
        data = json.load(fh)
    result.unlink()
    return data


def metric_values(res: dict, setups: List[dict],
                  trace: bool) -> Dict[str, dict]:
    """Metric name -> value, unit and the distribution it came from."""
    out: Dict[str, dict] = {}
    if trace:
        for name, unit in PER_LAYER.items():
            out[name] = {"value": res["layers"][name], "unit": unit}
        return out
    rounds = sum(1 for r in res["rows"] if r["phase"] == "untraced")
    # Set-up is scaled by the mean reference loop of the whole timed
    # phase: the host switches between a fast and a twice-as-slow state
    # every few seconds, so the few loops right after a set-up say
    # little about the state during it, while the mean of hundreds of
    # loops tracks how much of the time the host spends slow.
    scale = REF_NOMINAL_S / res["ref_mean_s"]
    dists = {
        "throughput": {"n": rounds},
        "p50_ms": {"n": res["latency_samples"]},
        "setup_s": summary([s["setup_wall_s"] * scale for s in setups]),
        "peak_rss_mb": {"n": 1},
    }
    values = {"throughput": res["throughput"], "p50_ms": res["p50_ms"],
              "setup_s": dists["setup_s"]["median"],
              "peak_rss_mb": res["peak_rss_mb"]}
    for name, unit in END_TO_END.items():
        out[name] = {"value": values[name], "unit": unit, **dists[name]}
        out[name].pop("median", None)
    return out


def table_rows(name: str, seed: int, res: dict,
               setups: List[dict]) -> List[dict]:
    rows = [{"workload": name, "seed": seed, "phase": "setup", "round": i,
             "wall_s": s["setup_wall_s"], "ref_ms": res["ref_mean_s"] * 1e3}
            for i, s in enumerate(setups)]
    for r in res["rows"]:
        row = {"workload": name, "seed": seed, "phase": r["phase"],
               "round": r["round"], "ops": r["ops"], "failed": r["failed"],
               "items": r["items"], "wall_s": r["wall_s"],
               "items_per_s": r["items"] / r["wall_s"] if r["wall_s"] else "",
               "op_p50_ms": quantile(r["latencies_s"], 0.5) * 1e3
               if r["latencies_s"] else "",
               "ref_ms": "" if r["ref_ms"] is None else r["ref_ms"]}
        for layer, secs in r.get("layers", {}).items():
            if layer in LAYER_COLUMNS:
                row[f"{layer}_self_s"] = secs
        rows.append(row)
    return rows


def report(name: str, res: dict, metrics: Dict[str, dict]) -> None:
    failed, attempted = res["failed"], res["attempted"]
    goldens = 9 - len([s for s in res["goldens_failed"] if "@" in s])
    print(f"== {name}  seed={res['seed']}  check={res['check']}  "
          f"goldens={goldens}/9  error_rate={failed / attempted:.4g} "
          f"({failed}/{attempted} ops failed)")
    for metric, m in metrics.items():
        dist = ""
        if "q1" in m:
            dist = f"  [q1 {m['q1']:.6g}, q3 {m['q3']:.6g}]"
        if "n" in m:
            dist += f"  n={m['n']}"
        print(f"  {metric:<32} {m['value']:>14.6g} {m['unit']:<7}{dist}")
    if res["trace"]:
        print(f"  traced digests equal untraced: {res['traced_match']}")
        if res.get("unattributed_share") is not None:
            print(f"  time outside any layer span: "
                  f"{res['unattributed_share']:.2%} of traced rounds")
    for failure in res["failures"]:
        print(f"  FAILED {failure}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the performance ledger and print its metrics.")
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="length of each timed phase (default 15)")
    parser.add_argument("--trace", nargs="?", const="1", default="0",
                        choices=("0", "1"),
                        help="print per-layer metrics from a traced run")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    trace = args.trace == "1"
    OUT.mkdir(parents=True, exist_ok=True)
    names = [args.workload] if args.workload else list(WORKLOADS)

    results: Dict[str, Any] = {}
    table: List[dict] = []
    spans: Dict[str, Any] = {}
    for name in names:
        res = run_child(name, args.seed, args.seconds, trace, False)
        setups: List[dict] = []
        if res is not None and not trace:
            setups = [res]
            for _ in range(SETUP_SAMPLES - 1):
                extra = run_child(name, args.seed, args.seconds, False, True)
                if extra is None:
                    res = None
                    break
                setups.append(extra)
        if res is None:
            # A crashed process is one failed op; the other workloads
            # still run and the result is still written.
            print(f"== {name}  FAILED: the workload process did not finish")
            results[name] = {"correct": False, "attempted": 1, "failed": 1,
                             "check": "none", "metrics": {}}
            continue
        metrics = metric_values(res, setups, trace)
        report(name, res, metrics)
        table += table_rows(name, args.seed, res, setups)
        if trace:
            spans[name] = res.pop("spans")
        correct = (res["failed"] == 0 and not res["goldens_failed"]
                   and res["traced_match"] is not False)
        results[name] = {"correct": correct, "attempted": res["attempted"],
                         "failed": res["failed"], "check": res["check"],
                         "metrics": metrics}

    with open(OUT / "run_table.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=TABLE_COLUMNS)
        writer.writeheader()
        writer.writerows(table)
    with open(OUT / "result.json", "w", encoding="utf-8") as fh:
        json.dump({"seed": args.seed, "trace": trace, "seconds": args.seconds,
                   "workloads": results}, fh, indent=1, sort_keys=True)
    if trace:
        with open(OUT / "spans.json", "w", encoding="utf-8") as fh:
            json.dump(spans, fh)

    correct = all(r["correct"] for r in results.values())
    if len(names) == 1:
        metrics = {k: {"value": v["value"], "unit": v["unit"]}
                   for k, v in results[names[0]]["metrics"].items()}
    else:
        metrics = {f"{w}/{k}": {"value": v["value"], "unit": v["unit"]}
                   for w, r in results.items()
                   for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
