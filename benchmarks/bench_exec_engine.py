"""Execution-engine benchmark: parallel speedup, warm cache, containment.

Demonstrates the three properties the `repro.exec` subsystem promises:

1. **Near-linear speedup** on an embarrassingly parallel DSE sweep —
   measured with sleep-bound model evaluations so the demonstration is
   about the engine's dispatch, not the host's core count (a 4-worker
   sweep of sleep-bound jobs beats serial even on a 1-core CI box).
2. **~Zero-cost warm-cache reruns** — a full 22-experiment registry
   sweep rerun against a populated cache completes with 100% hits.
3. **Fault containment** — an injected always-raising job and an
   injected hanging job both leave the sweep completed, marked
   FAILED/TIMEOUT respectively.

4. **Backend scale-out** (PR6) — the same sweep dispatched to 4
   elastic loopback socket workers beats serial by >= 2.5x while
   producing a byte-identical ``RunReport.digest()``; the array
   backend completes the sweep through batch manifests.

Run with ``PYTHONPATH=src python -m pytest benchmarks/bench_exec_engine.py -q -s``.
Run ``PYTHONPATH=src python benchmarks/bench_exec_engine.py`` to write
the machine-readable backend comparison to ``BENCH_PR6.json``.
"""

import json
import time

from repro.analysis import REGISTRY
from repro.analysis.tables import format_table
from repro.exec import (
    ExecutionEngine,
    Job,
    JobGraph,
    JobStatus,
    SerialRunner,
    make_backend,
)

N_SWEEP_JOBS = 8
JOB_SECONDS = 0.15
WORKERS = 4


def simulated_model(config):
    """Stand-in for one DSE evaluation: fixed model time, tiny compute."""
    time.sleep(config["model_s"])
    x = config["x"]
    return {"energy_j": (x - 2.0) ** 2 + 1.0, "throughput_ops": x}


def failing_model():
    raise RuntimeError("injected: model raises on this corner of the space")


def hanging_model():
    time.sleep(60.0)


def _sweep_graph():
    return JobGraph(
        Job(id=f"cfg-{i:03d}", fn=simulated_model, config={"model_s": JOB_SECONDS, "x": i})
        for i in range(N_SWEEP_JOBS)
    )


def test_parallel_speedup():
    """A 4-worker sweep must be >= 2x faster than serial."""
    t0 = time.perf_counter()
    serial = ExecutionEngine(runner=SerialRunner()).run(_sweep_graph())
    serial_wall = time.perf_counter() - t0

    t0 = time.perf_counter()
    parallel = ExecutionEngine(runner=make_backend("pool", WORKERS)).run(_sweep_graph())
    parallel_wall = time.perf_counter() - t0

    assert serial.ok and parallel.ok
    speedup = serial_wall / parallel_wall
    ideal = min(WORKERS, N_SWEEP_JOBS)
    print()
    print(
        format_table(
            ["configuration", "wall_s", "speedup"],
            [
                ("serial (1 worker)", f"{serial_wall:.3f}", "1.00x"),
                (
                    f"pool ({WORKERS} workers)",
                    f"{parallel_wall:.3f}",
                    f"{speedup:.2f}x",
                ),
                ("ideal", f"{serial_wall / ideal:.3f}", f"{ideal:.2f}x"),
            ],
            title=f"DSE sweep: {N_SWEEP_JOBS} jobs x {JOB_SECONDS}s model time",
        )
    )
    assert speedup >= 2.0, f"expected >= 2x speedup with {WORKERS} workers, got {speedup:.2f}x"


def test_warm_cache_full_registry_rerun(tmp_path):
    """Second full-registry sweep against a populated cache: 100% hits."""
    cache_dir = str(tmp_path / "artifacts")
    t0 = time.perf_counter()
    cold = REGISTRY.run_all(cache_dir=cache_dir)
    cold_wall = time.perf_counter() - t0
    cold_report = REGISTRY.last_report
    assert cold_report.cache_hits() == 0

    t0 = time.perf_counter()
    warm = REGISTRY.run_all(cache_dir=cache_dir)
    warm_wall = time.perf_counter() - t0
    warm_report = REGISTRY.last_report

    print()
    print(
        format_table(
            ["run", "wall_s", "cache hits", "cache misses"],
            [
                ("cold", f"{cold_wall:.3f}", cold_report.cache_hits(),
                 cold_report.cache_stats.get("misses", 0)),
                ("warm", f"{warm_wall:.3f}", warm_report.cache_hits(),
                 warm_report.cache_stats.get("misses", 0)),
            ],
            title=f"Full registry ({len(warm)} experiments), content-addressed cache",
        )
    )
    # Every job served from cache, nothing recomputed, no claims lost.
    assert warm_report.cache_hits() == len(warm_report)
    assert warm_report.cache_stats.get("misses", 0) == 0
    assert all(warm[eid].get("holds") == cold[eid].get("holds") for eid in warm)
    assert warm_wall < cold_wall


def test_fault_containment():
    """Raising + hanging jobs are contained; the sweep always finishes."""
    graph = _sweep_graph()
    graph.add(Job(id="inj-raise", fn=failing_model, retries=1))
    graph.add(Job(id="inj-hang", fn=hanging_model, timeout_s=0.5))
    t0 = time.perf_counter()
    report = ExecutionEngine(
        runner=make_backend("pool", WORKERS), backoff_s=0.01
    ).run(graph)
    wall = time.perf_counter() - t0

    print()
    print(report.summary())
    counts = report.counts()
    assert report["inj-raise"].status is JobStatus.FAILED
    assert report["inj-raise"].attempts == 2  # initial try + 1 retry
    assert report["inj-hang"].status is JobStatus.TIMEOUT
    assert counts["succeeded"] == N_SWEEP_JOBS  # every healthy job completed
    assert wall < 30.0  # nowhere near the injected 60s hang


def _run_backend(name, jobs, cache_dir=None):
    """Time one backend over the standard sweep; return (report, wall_s)."""
    from repro.exec import ResultCache

    backend = make_backend(name, jobs=jobs, cache_dir=cache_dir)
    cache = ResultCache(cache_dir) if cache_dir is not None else None
    t0 = time.perf_counter()
    report = ExecutionEngine(runner=backend, cache=cache).run(_sweep_graph())
    return report, time.perf_counter() - t0


def test_socket_scaleout():
    """4 loopback socket workers must beat serial by >= 2.5x (PR6)."""
    serial, serial_wall = _run_backend("serial", 1)
    socket_report, socket_wall = _run_backend("socket", WORKERS)
    assert serial.ok and socket_report.ok
    speedup = serial_wall / socket_wall
    print()
    print(
        format_table(
            ["backend", "wall_s", "speedup"],
            [
                ("serial", f"{serial_wall:.3f}", "1.00x"),
                (f"socket ({WORKERS} workers)", f"{socket_wall:.3f}",
                 f"{speedup:.2f}x"),
            ],
            title=f"Socket scale-out: {N_SWEEP_JOBS} jobs x {JOB_SECONDS}s",
        )
    )
    # Scale-out must not change the science: identical digests.
    assert socket_report.digest() == serial.digest()
    assert speedup >= 2.5, (
        f"expected >= 2.5x with {WORKERS} socket workers, got {speedup:.2f}x"
    )


def test_all_backends_complete_and_agree():
    """Every make_backend() backend finishes the sweep with one digest."""
    digests = {}
    for name, jobs in [("serial", 1), ("pool", WORKERS),
                       ("socket", WORKERS), ("array", 2)]:
        report, _wall = _run_backend(name, jobs)
        assert report.ok, f"{name}: {report.one_line()}"
        assert report.backend == name
        digests[name] = report.digest()
    assert len(set(digests.values())) == 1, digests


def main(output="BENCH_PR6.json"):
    """Write the machine-readable backend comparison (CI artifact)."""
    cells = [("serial", 1), ("pool", WORKERS), ("socket", WORKERS),
             ("array", 2)]
    results = {}
    serial_wall = None
    for name, jobs in cells:
        report, wall = _run_backend(name, jobs)
        if name == "serial":
            serial_wall = wall
        # Warm rerun against a per-backend cache: hit-rate check.
        import tempfile

        with tempfile.TemporaryDirectory() as cache_dir:
            _cold, _ = _run_backend(name, jobs, cache_dir=cache_dir)
            warm, warm_wall = _run_backend(name, jobs, cache_dir=cache_dir)
        results[name] = {
            "jobs": jobs,
            "wall_s": round(wall, 4),
            "speedup_vs_serial": round(serial_wall / wall, 3),
            "ok": report.ok,
            "digest": report.digest(),
            "warm_cache_hits": warm.cache_stats.get("hits", 0),
            "warm_cache_misses": warm.cache_stats.get("misses", 0),
            "warm_wall_s": round(warm_wall, 4),
        }
    digests = {r["digest"] for r in results.values()}
    payload = {
        "benchmark": "bench_exec_engine.backends",
        "n_jobs": N_SWEEP_JOBS,
        "job_seconds": JOB_SECONDS,
        "workers": WORKERS,
        "digests_identical": len(digests) == 1,
        "socket_speedup_target": 2.5,
        "socket_speedup_met": (
            results["socket"]["speedup_vs_serial"] >= 2.5
        ),
        "backends": results,
    }
    with open(output, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(
        format_table(
            ["backend", "wall_s", "speedup", "warm hits"],
            [
                (name, f"{r['wall_s']:.3f}",
                 f"{r['speedup_vs_serial']:.2f}x", r["warm_cache_hits"])
                for name, r in results.items()
            ],
            title=f"Backend comparison ({N_SWEEP_JOBS} jobs x {JOB_SECONDS}s)"
            f" -> {output}",
        )
    )
    return 0 if payload["digests_identical"] and payload[
        "socket_speedup_met"] else 1


if __name__ == "__main__":
    import sys

    sys.exit(main(*sys.argv[1:]))
