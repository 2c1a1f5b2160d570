"""Chaos smoke: kill, crash, and fail sweep cells; the sweep survives.

CI driver for the PR4 resilience contract, exercised end-to-end on real
worker processes (no mocks):

1. **hang** — a cell goes silent mid-attempt; the watchdog classifies
   it hung, kills the worker, and the engine's free resume completes it
   from the durable checkpoint, far sooner than the wall timeout.
2. **crash** — a cell dies after its first repetition; the retry
   resumes from the :class:`JobCheckpointStore` and the final result is
   byte-identical (as canonical JSON) to a run that never crashed.
3. **failed row** — a cell that fails every attempt (with ``retries=0``)
   becomes a FAILED row while the rest of the sweep completes.

Finally a small real campaign runs on a two-worker pool and its
:class:`ResilienceReport` is written as a CI artifact.

Usage::

    python benchmarks/chaos_smoke.py --report resilience-report.json
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
import tempfile
import time

_HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(_HERE.parent / "src"))

from repro.exec import (  # noqa: E402
    ExecutionEngine,
    Job,
    JobGraph,
    make_backend,
)
from repro.resilience.campaign import campaign_job, run_campaign  # noqa: E402


def _cell_config(tmp: str, **chaos) -> dict:
    config = {
        "model": "harvest", "intensity": 0.5, "reps": 3,
        "seed": 7, "scale": "smoke",
    }
    config.update(chaos)
    return config


def scenario_hang(tmp: str) -> str:
    """Worker beats once, goes silent; watchdog kills it; resume finishes."""
    graph = JobGraph()
    graph.add(Job(
        id="hang-cell", fn=campaign_job,
        config=_cell_config(
            tmp,
            hang_once_path=os.path.join(tmp, "hang.marker"),
            hang_sleep_s=30.0,
        ),
        timeout_s=120.0, retries=0,
        seed_key="seed", checkpoint_key="checkpoint_path",
    ))
    engine = ExecutionEngine(
        runner=make_backend("pool", 1),
        hang_timeout_s=1.0,
        backoff_s=0.0,
        checkpoint_root=os.path.join(tmp, "ckpt-hang"),
    )
    start = time.monotonic()
    report = engine.run(graph)
    wall = time.monotonic() - start
    record = report.records["hang-cell"]
    assert record.ok, f"hung cell did not recover: {record.error}"
    assert record.resumes >= 1, "recovery must be a free (progress-backed) resume"
    assert wall < 30.0, f"recovery took {wall:.1f}s (watchdog not engaged?)"
    return (
        f"hang: killed + resumed in {wall:.1f}s "
        f"(attempts={record.attempts}, resumes={record.resumes})"
    )


def scenario_crash_byte_identical(tmp: str) -> str:
    """Crash after rep 1; the resumed result must equal a clean run's."""
    graph = JobGraph()
    graph.add(Job(
        id="crash-cell", fn=campaign_job,
        config=_cell_config(
            tmp, crash_once_path=os.path.join(tmp, "crash.marker")
        ),
        # No seed_key: the literal config seed must reach the job so the
        # engine run is comparable with the direct clean run below.
        timeout_s=120.0, retries=0,
        checkpoint_key="checkpoint_path",
    ))
    engine = ExecutionEngine(
        runner=make_backend("pool", 1),
        backoff_s=0.0,
        checkpoint_root=os.path.join(tmp, "ckpt-crash"),
    )
    report = engine.run(graph)
    record = report.records["crash-cell"]
    assert record.ok, f"crashed cell did not recover: {record.error}"
    assert record.resumes >= 1, "crash recovery must be a free resume"

    clean = campaign_job(dict(_cell_config(tmp), seed=7))
    resumed_json = json.dumps(record.result, sort_keys=True)
    clean_json = json.dumps(clean, sort_keys=True)
    assert resumed_json == clean_json, "resume diverged from the clean run"
    return f"crash: resumed result byte-identical ({len(resumed_json)} bytes)"


def scenario_failed_row(tmp: str) -> str:
    """One doomed cell fails; its siblings still complete."""
    graph = JobGraph()
    graph.add(Job(
        id="good-cell", fn=campaign_job, config=_cell_config(tmp),
        timeout_s=120.0, retries=0,
        seed_key="seed", checkpoint_key="checkpoint_path",
    ))
    graph.add(Job(
        # Unknown model: every attempt raises before any heartbeat, so
        # with retries=0 this is a hard FAILED row.
        id="doomed-cell", fn=campaign_job,
        config=dict(_cell_config(tmp), model="no-such-model"),
        timeout_s=120.0, retries=0,
    ))
    engine = ExecutionEngine(
        runner=make_backend("pool", 2),
        backoff_s=0.0,
        checkpoint_root=os.path.join(tmp, "ckpt-fail"),
    )
    report = engine.run(graph)
    good = report.records["good-cell"]
    doomed = report.records["doomed-cell"]
    assert good.ok, f"healthy sibling was dragged down: {good.error}"
    assert doomed.status.value == "failed", doomed.status
    assert not report.ok
    return "failed-row: doomed cell FAILED, sibling cell succeeded"


def write_report_artifact(path: str, tmp: str) -> str:
    """Run a small real campaign on a worker pool; save its report."""
    report = run_campaign(
        models=["harvest", "noc"],
        intensities=[0.0, 1.0],
        reps=1,
        scale="smoke",
        jobs=2,
        checkpoint_root=os.path.join(tmp, "ckpt-campaign"),
        hang_timeout_s=10.0,
        skip_architectural=True,
    )
    assert report.ok, f"campaign sweep failed: {report.exec_summary}"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(report.to_json())
        fh.write("\n")
    return f"campaign: 2x2 pool sweep ok, report -> {path}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--report", default="resilience-report.json",
                        help="where to write the ResilienceReport artifact")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory(prefix="chaos-smoke-") as tmp:
        for scenario in (
            scenario_hang,
            scenario_crash_byte_identical,
            scenario_failed_row,
        ):
            print(f"PASS {scenario(tmp)}")
        print(f"PASS {write_report_artifact(args.report, tmp)}")
    print("chaos smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
