"""Perf smoke CLI: measure kernel + experiment speed, gate regressions.

Measures event-kernel throughput (all configurations in
``perf_harness.KERNEL_CONFIGS``) and end-to-end wall time for the
kernel-bound experiments, writes the result as JSON, and — when given a
baseline file — fails (exit 1) if anything regressed by more than
``--max-regression`` (default 30%).

Usage::

    python benchmarks/perf_smoke.py --output bench.json
    python benchmarks/perf_smoke.py --baseline BENCH_PR3.json \
        --output bench.json            # CI gate
    python benchmarks/perf_smoke.py --skip-experiments --repeats 3

The committed ``BENCH_PR3.json`` at the repo root is the reference
trajectory: its ``pre_pr3`` section was measured on the pre-PR3 kernel
with this same harness (via a stashed checkout), its ``current``
section on the PR3 kernel; the CI gate compares fresh numbers against
``current``.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from pathlib import Path

_HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(_HERE))
sys.path.insert(0, str(_HERE.parent / "src"))

import perf_harness  # noqa: E402

#: Baseline numbers, by baseline file name, that were measured on a
#: kernel path that no longer exists and so are not gated.
#: ``BENCH_PR8.json``'s ``bare`` drained its train as macro batches;
#: the kernel now dispatches every event, and ``BENCH_PR3.json`` (the
#: same scalar definition) still gates ``bare``.
RETIRED_BASELINE_KEYS = {
    "BENCH_PR8.json": {("kernel_drain_events_per_s", "bare")},
}


def run_measurements(
    repeats: int,
    experiment_repeats: int,
    skip_experiments: bool,
    skip_serve: bool = False,
) -> dict:
    result = {
        "meta": {
            "harness": "benchmarks/perf_smoke.py",
            "n_events": perf_harness.N_EVENTS,
            "repeats": repeats,
            "experiment_repeats": experiment_repeats,
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "kernel_drain_events_per_s": perf_harness.measure_drain(
            repeats=repeats
        ),
        "kernel_end_to_end_events_per_s": perf_harness.measure_end_to_end(
            repeats=repeats
        ),
    }
    if not skip_experiments:
        result["experiments_wall_s"] = perf_harness.measure_experiments(
            repeats=experiment_repeats
        )
    if not skip_serve:
        serve = perf_harness.measure_serve()
        if serve:  # empty on pre-PR7 checkouts (feature-detected)
            result["serve_rps"] = serve
    return result


def compare(
    current: dict,
    baseline: dict,
    max_regression: float,
    skip: frozenset = frozenset(),
) -> list[str]:
    """Regression messages; empty means the gate passes.

    Throughput must not drop, wall time must not grow, by more than
    ``max_regression`` (a fraction, e.g. 0.30).  ``(family, name)``
    pairs in ``skip`` are not compared.
    """
    failures = []
    for family in (
        "kernel_drain_events_per_s",
        "kernel_end_to_end_events_per_s",
        "serve_rps",
    ):
        base_kernel = baseline.get(family, {})
        unit = "rps" if family == "serve_rps" else "ev/s"
        for name, rate in current.get(family, {}).items():
            if (family, name) in skip:
                continue
            base = base_kernel.get(name)
            if base and rate < base * (1.0 - max_regression):
                failures.append(
                    f"{family}[{name}]: {rate:,.0f} {unit} vs baseline "
                    f"{base:,.0f} ({rate / base - 1.0:+.0%})"
                )
    base_exp = baseline.get("experiments_wall_s", {})
    for eid, wall in current.get("experiments_wall_s", {}).items():
        base = base_exp.get(eid)
        if base and wall > base * (1.0 + max_regression):
            failures.append(
                f"experiment[{eid}]: {wall:.3f}s vs baseline "
                f"{base:.3f}s ({wall / base - 1.0:+.0%})"
            )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", type=Path, default=None)
    parser.add_argument(
        "--baseline",
        type=Path,
        action="append",
        default=None,
        help="JSON to gate against; repeatable, each file gates the "
        "families it carries (BENCH_PR3.json for the kernel, "
        "BENCH_PR7.json for the service, or a prior --output)",
    )
    parser.add_argument("--max-regression", type=float, default=0.30)
    parser.add_argument(
        "--require",
        action="append",
        default=None,
        metavar="FAMILY.KEY>=VALUE",
        help="absolute floor a measured rate must clear; repeatable, "
        "fails the gate when the key is missing or below the floor",
    )
    parser.add_argument(
        "--repeats", type=int, default=perf_harness.DEFAULT_REPEATS
    )
    parser.add_argument(
        "--experiment-repeats",
        type=int,
        default=perf_harness.DEFAULT_EXPERIMENT_REPEATS,
    )
    parser.add_argument("--skip-experiments", action="store_true")
    parser.add_argument("--skip-serve", action="store_true")
    args = parser.parse_args(argv)

    current = run_measurements(
        args.repeats,
        args.experiment_repeats,
        args.skip_experiments,
        args.skip_serve,
    )

    print("kernel drain events/s:")
    for name, rate in current["kernel_drain_events_per_s"].items():
        print(f"  {name:20s} {rate:>12,.0f}")
    print("kernel schedule+drain events/s:")
    for name, rate in current["kernel_end_to_end_events_per_s"].items():
        print(f"  {name:20s} {rate:>12,.0f}")
    for eid, wall in current.get("experiments_wall_s", {}).items():
        print(f"  {eid} wall: {wall:.3f}s")
    if current.get("serve_rps"):
        print("serve throughput (requests/s):")
        for name, rate in current["serve_rps"].items():
            print(f"  {name:20s} {rate:>12,.1f}")

    if args.output is not None:
        args.output.write_text(json.dumps(current, indent=2) + "\n")
        print(f"wrote {args.output}")

    failed = False
    for spec in args.require or []:
        path, _, floor_text = spec.partition(">=")
        if not floor_text:
            parser.error(f"--require needs FAMILY.KEY>=VALUE, got {spec!r}")
        family, _, key = path.strip().partition(".")
        floor = float(floor_text)
        value = current.get(family, {}).get(key)
        if value is None:
            failed = True
            print(f"PERF FLOOR MISSING: {family}[{key}] was not measured "
                  f"(required >= {floor:,.0f})")
        elif value < floor:
            failed = True
            print(f"PERF FLOOR FAILED: {family}[{key}] = {value:,.0f} "
                  f"< required {floor:,.0f}")
        else:
            print(f"perf floor passed: {family}[{key}] = {value:,.0f} "
                  f">= {floor:,.0f}")
    for baseline_path in args.baseline or []:
        baseline = json.loads(baseline_path.read_text())
        # BENCH_PR*.json nest the reference numbers under "current";
        # a raw --output file is already flat.
        reference = baseline.get("current", baseline)
        failures = compare(
            current, reference, args.max_regression,
            frozenset(RETIRED_BASELINE_KEYS.get(baseline_path.name, ())),
        )
        if failures:
            failed = True
            print(
                f"PERF REGRESSION (> {args.max_regression:.0%} "
                f"vs {baseline_path}):"
            )
            for line in failures:
                print(f"  {line}")
        else:
            print(
                f"perf gate passed vs {baseline_path} "
                f"(within {args.max_regression:.0%})"
            )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
