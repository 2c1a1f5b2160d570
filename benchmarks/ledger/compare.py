"""Compare two sets of ledger runs, workload by workload and metric by metric.

    python benchmarks/ledger/compare.py A.json B.json

Each file holds one or more untraced ``.ledger/result.json`` records,
concatenated (``cat .ledger/result.json >> A.json`` after each run,
whatever its exit code) or as a JSON list.  For every workload the tool
prints each side's failed and attempted ops and its runs whose checks
did not pass.  For every (workload, end-to-end metric) it prints both
sides' median, quartiles and number of runs, and the change of B's
median against A's in the direction that is worse for the metric.

Verdicts, with each metric's bound from ``BENCHMARK.json``:

* ``agree``      — the medians differ by at most the bound;
* ``B worse`` / ``B better`` — they differ by more than the bound;
* ``unresolved`` — either side's quartile distance, as a share of its
  median, is wider than the bound, unless every run of B beats every
  run of A (then ``B better``).

A workload whose B runs fail a larger share of their ops than A's, or
any of whose B runs did not pass its checks, is ``B worse`` whatever
its timings say.  The exit code is 1 when any verdict is ``B worse`` or
``unresolved``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Tuple

from metrics import SPEC, summary


def load_runs(path: str) -> List[dict]:
    """Every result record in ``path`` (concatenated objects or a list)."""
    text = Path(path).read_text(encoding="utf-8")
    decoder = json.JSONDecoder()
    runs: List[dict] = []
    pos = 0
    while True:
        while pos < len(text) and text[pos].isspace():
            pos += 1
        if pos >= len(text):
            return runs
        obj, pos = decoder.raw_decode(text, pos)
        runs.extend(obj if isinstance(obj, list) else [obj])


def values(runs: List[dict]) -> Dict[Tuple[str, str], List[float]]:
    out: Dict[Tuple[str, str], List[float]] = {}
    for run in runs:
        if run.get("trace"):
            continue
        for workload, res in run["workloads"].items():
            for metric, m in res["metrics"].items():
                out.setdefault((workload, metric), []).append(m["value"])
    return out


def health(runs: List[dict]) -> Dict[str, Dict[str, int]]:
    """Workload -> summed ``attempted`` and ``failed`` ops, and the
    number of runs that were not ``correct``."""
    out: Dict[str, Dict[str, int]] = {}
    for run in runs:
        if run.get("trace"):
            continue
        for workload, res in run["workloads"].items():
            h = out.setdefault(workload,
                               {"attempted": 0, "failed": 0, "incorrect": 0})
            h["attempted"] += res["attempted"]
            h["failed"] += res["failed"]
            h["incorrect"] += not res["correct"]
    return out


def health_verdict(a: Dict[str, int], b: Dict[str, int]) -> str:
    """``B worse`` when B fails a larger share of ops or has a run whose
    checks did not pass; else ``ok``."""
    if b["incorrect"] or (b["failed"] / b["attempted"]
                          > a["failed"] / a["attempted"]):
        return "B worse"
    return "ok"


def verdict(a: List[float], b: List[float], better: str,
            bound: float) -> Tuple[float, str]:
    """Worse-direction change of B's median against A's, and a verdict."""
    sa, sb = summary(a), summary(b)
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (sb["median"] - sa["median"]) / sa["median"]
    b_wins_all = (max(b) < min(a)) if better == "lower" else (min(b) > max(a))
    noisy = any((s["q3"] - s["q1"]) / s["median"] > bound for s in (sa, sb))
    if noisy and not b_wins_all:
        return worse, "unresolved"
    if worse > bound:
        return worse, "B worse"
    if worse < -bound:
        return worse, "B better"
    return worse, "agree"


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a")
    parser.add_argument("b")
    args = parser.parse_args(argv)
    spec = {m["name"]: m for m in SPEC["end_to_end"]}
    runs_a, runs_b = load_runs(args.a), load_runs(args.b)
    failed = False

    ha, hb = health(runs_a), health(runs_b)
    print(f"{'workload':<18}{'A failed/attempted':<22}{'A not correct':<15}"
          f"{'B failed/attempted':<22}{'B not correct':<15}verdict")
    for workload in sorted(set(ha) & set(hb)):
        a, b = ha[workload], hb[workload]
        word = health_verdict(a, b)
        failed |= word == "B worse"
        print(f"{workload:<18}{a['failed']:>8}/{a['attempted']:<13}"
              f"{a['incorrect']:<15}{b['failed']:>8}/{b['attempted']:<13}"
              f"{b['incorrect']:<15}{word}")
    print()

    va, vb = values(runs_a), values(runs_b)
    print(f"{'workload':<18}{'metric':<13}{'A median [q1, q3] n':<36}"
          f"{'B median [q1, q3] n':<36}{'worse':>8}  {'bound':>5}  verdict")
    for key in sorted(set(va) & set(vb)):
        workload, metric = key
        if metric not in spec:
            continue
        m = spec[metric]
        worse, word = verdict(va[key], vb[key], m["better"], m["bound"])
        failed |= word in ("B worse", "unresolved")
        cells = []
        for vals in (va[key], vb[key]):
            s = summary(vals)
            cells.append(f"{s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}] "
                         f"{s['n']}")
        print(f"{workload:<18}{metric:<13}{cells[0]:<36}{cells[1]:<36}"
              f"{worse:>+8.1%}  {m['bound']:>5.2f}  {word}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
