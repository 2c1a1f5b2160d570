"""Kernel microbenchmark: event throughput across kernel configurations.

Measures raw events/second through :mod:`perf_harness` in two families:

* **drain** — ``sim.run()`` over a pre-loaded 200k-event queue, for the
  bare loop and the three instrumentation levels (null registry, live
  counters+histogram, kernel probe);
* **end-to-end** — scheduling plus drain, comparing the per-call token
  path against the PR3 ``cancellable=False`` and ``schedule_many``
  fast paths.

Every configuration gets a warmup run plus best-of-N median timing.
The pre-PR3 version of this bench timed each configuration exactly
once, cold, and routed only one of them through pytest-benchmark;
single cold runs were 30-50% noisy, which made the comparison table it
printed untrustworthy.

The assertions are loose sanity bounds only (CI machines are noisy);
the real regression gate is ``perf_smoke.py`` against the committed
``BENCH_PR3.json``.
"""

try:
    from benchmarks.perf_harness import (
        DRAIN_CONFIGS,
        N_EVENTS,
        measure_drain,
        measure_end_to_end,
    )
except ImportError:  # collected without the repo root on sys.path
    from perf_harness import (
        DRAIN_CONFIGS,
        N_EVENTS,
        measure_drain,
        measure_end_to_end,
    )

from repro.analysis.tables import format_table

_DRAIN_LABELS = {
    "bare": "bare loop (no instrumentation)",
    "disabled_registry": "null registry (disabled)",
    "live_instruments": "live counters + histogram",
    "kernel_probe": "live registry + kernel probe",
}
_E2E_LABELS = {
    "loop_token": "schedule_at loop (tokens)",
    "loop_no_token": "schedule_at loop (cancellable=False)",
    "schedule_many": "schedule_many batch load",
}


def test_kernel_throughput(benchmark):
    drain = measure_drain(repeats=5)
    e2e = measure_end_to_end(repeats=5)
    # The bare drain also goes through pytest-benchmark so its stats
    # land in the benchmark report alongside the bench_e* runs; setup
    # rebuilds the queue (untimed) before every round.
    benchmark.pedantic(
        lambda sim: sim.run(),
        setup=lambda: ((DRAIN_CONFIGS["bare"](),), {}),
        rounds=5,
    )

    bare = drain["bare"]
    print()
    print(
        format_table(
            ["configuration", "events/s", "vs bare"],
            [
                (
                    _DRAIN_LABELS.get(name, name),
                    f"{rate:,.0f}",
                    f"{rate / bare:.2f}x",
                )
                for name, rate in drain.items()
            ],
            title=f"Kernel drain throughput ({N_EVENTS:,} events, best-of-5)",
        )
    )
    loop = e2e["loop_token"]
    print(
        format_table(
            ["configuration", "events/s", "vs token loop"],
            [
                (_E2E_LABELS[name], f"{rate:,.0f}", f"{rate / loop:.2f}x")
                for name, rate in e2e.items()
            ],
            title="Schedule + drain (end-to-end)",
        )
    )

    # The null-registry drain is the reference the instrumented tiers
    # are compared against (they pay real work per event, but not an
    # order of magnitude); the bare drain dispatches the same events to
    # a no-op handler.
    scalar = drain["disabled_registry"]
    assert bare > scalar * 0.9
    assert scalar > bare * 0.05
    assert drain["live_instruments"] > scalar * 0.1
    assert drain["kernel_probe"] > scalar * 0.1
    # The no-token and batch fast paths must never be slower than the
    # token path they bypass (generous margin for noisy runners).
    assert e2e["loop_no_token"] > loop * 0.9
    assert e2e["schedule_many"] > loop * 0.9
