"""One ledger workload in a fresh process (started by ``run.py``).

``setup_s`` is measured from the first line of this file, before
``repro`` is imported, to the first timed op.  The result record is
written as JSON to ``--result``; spans, when traced, go with it.

The process runs on one CPU, and so does every process it starts (the
``serve-mix`` server): the reference loop that scales every timing
then runs on the CPU the ops run on (see ``workloads.Stopwatch``).
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent.parent / "src"))

import workloads  # noqa: E402


def main() -> int:
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--work", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args()
    work = Path(args.work)
    try:
        result = workloads.run(
            args.workload, seed=args.seed, seconds=args.seconds,
            trace=args.trace, setup_only=args.setup_only, work=work,
            t_start=T_START, goldens=not args.setup_only)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
