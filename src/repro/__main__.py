"""Command-line entry point: run the paper experiments.

Usage::

    python -m repro                    # run all 22 experiments, print summary
    python -m repro E07 E21            # run a subset (space-separated)
    python -m repro E07,E21            # ...or comma-separated
    python -m repro --jobs 4           # fan out over 4 worker processes
    python -m repro --cache .cache     # reuse results across runs
    python -m repro --retries 2        # retry failing experiments twice
    python -m repro --timeout 60       # per-experiment timeout (seconds)
    python -m repro --verbose          # include each experiment's raw numbers
    python -m repro E07 --instrument   # also print kernel metrics/quantiles
    python -m repro E07 --trace        # span-trace the sweep's workers
    python -m repro E07 --profile      # + sampling sim-profiler

Experiments run through :mod:`repro.exec`: a raising, hanging, or
crashing experiment becomes a FAILED/TIMEOUT row and the sweep still
completes.  With ``--jobs N > 1`` the experiments run on N worker
processes (required for ``--timeout`` to interrupt a hung one).

Backends: ``--backend {serial,pool,socket,array}`` picks how the sweep
executes (default: serial, or ``pool`` with ``--jobs N > 1``).
``--backend pool`` spawns ``--jobs`` loopback socket workers and
replaces each one lost to a crash, timeout or hang; ``--backend
socket`` spawns them too, and external workers on other
hosts/terminals attach with::

    python -m repro workers --connect HOST:PORT [--count N] [--name W]

Subcommands::

    python -m repro resilience ...     # fleet-wide fault campaign
                                       # (see repro.resilience.campaign)
    python -m repro obs ...            # observability sweep + exporters
                                       # (see repro.obs.cli)
    python -m repro workers ...        # attach socket sweep workers
    python -m repro serve ...          # long-running experiment service
                                       # (see repro.serve.cli)
    python -m repro scenarios ...      # scenario library + championships
                                       # (see repro.scenarios.cli)
"""

from __future__ import annotations

import argparse
import sys


def _expand_ids(tokens: list[str]) -> list[str]:
    """Split comma-separated id lists: ``["E07,E21", "E03"]`` -> 3 ids."""
    return [tok for arg in tokens for tok in arg.split(",") if tok]


def _workers_main(argv: list[str]) -> int:
    """``python -m repro workers``: attach pull-model socket workers."""
    parser = argparse.ArgumentParser(
        prog="python -m repro workers",
        description=(
            "Attach elastic sweep workers to a running socket-backend "
            "coordinator (a sweep started with --backend socket).  Each "
            "worker connects over TCP, pulls jobs, and streams tagged "
            "heartbeat/telemetry/result frames back; workers may join "
            "and leave mid-sweep."
        ),
    )
    parser.add_argument(
        "--connect", required=True, metavar="HOST:PORT",
        help="coordinator address printed by the sweep (e.g. 127.0.0.1:45123)",
    )
    parser.add_argument(
        "--count", type=int, default=1, metavar="N",
        help="number of worker processes to run (default 1)",
    )
    parser.add_argument(
        "--name", default=None, metavar="W",
        help="worker name prefix for logs and frames (default: host-pid)",
    )
    args = parser.parse_args(argv)
    host, sep, port_text = args.connect.rpartition(":")
    if not sep or not host or not port_text.isdigit():
        parser.error(f"--connect must be HOST:PORT, got {args.connect!r}")
    if args.count < 1:
        parser.error("--count must be >= 1")
    address = (host, int(port_text))

    from .exec.backends.socket_worker import spawn_local_worker, worker_main

    if args.count == 1:
        return worker_main(address, name=args.name)
    procs = [
        spawn_local_worker(
            address,
            name=f"{args.name}-{i}" if args.name else None,
        )
        for i in range(args.count)
    ]
    code = 0
    for proc in procs:
        proc.join()
        code = code or (proc.exitcode or 0)
    return code


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] == "resilience":
        from .resilience.campaign import main as resilience_main

        return resilience_main(argv[1:])
    if argv and argv[0] == "obs":
        from .obs.cli import main as obs_main

        return obs_main(argv[1:])
    if argv and argv[0] == "workers":
        return _workers_main(argv[1:])
    if argv and argv[0] == "serve":
        from .serve.cli import main as serve_main

        return serve_main(argv[1:])
    if argv and argv[0] == "scenarios":
        from .scenarios.cli import main as scenarios_main

        return scenarios_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=(
            "Reproduce the quantitative claims of '21st Century Computer "
            "Architecture' (PPoPP 2014 keynote white paper)."
        ),
    )
    parser.add_argument(
        "experiments", nargs="*", metavar="EID",
        help="experiment ids (E01-E22), space- or comma-separated; default: all",
    )
    parser.add_argument(
        "--jobs", "-j", type=int, default=1, metavar="N",
        help="worker processes for the sweep (default 1 = serial in-process)",
    )
    parser.add_argument(
        "--backend", choices=("serial", "pool", "socket", "array"),
        default=None, metavar="B",
        help=(
            "execution backend: serial, pool (--jobs spawned socket "
            "workers, replaced when lost), socket (elastic TCP "
            "workers; --jobs sets how many loopback workers to spawn, "
            "attach more with 'python -m repro workers'), or array "
            "(batch array-task manifests); default: serial, or pool "
            "when --jobs > 1"
        ),
    )
    parser.add_argument(
        "--cache", metavar="DIR", default=None,
        help="content-addressed result cache directory; reruns become ~free",
    )
    parser.add_argument(
        "--retries", type=int, default=0, metavar="K",
        help="retry a failing experiment up to K times with backoff (default 0)",
    )
    parser.add_argument(
        "--timeout", type=float, default=None, metavar="S",
        help=(
            "per-experiment timeout in seconds; on worker processes "
            "(--jobs > 1) a hung experiment's worker is killed and, "
            "on pool, replaced"
        ),
    )
    parser.add_argument(
        "--verbose", "-v", action="store_true",
        help="print each experiment's measured values and the per-job report",
    )
    parser.add_argument(
        "--instrument", action="store_true",
        help=(
            "enable the session metrics registry: kernel-hosted "
            "simulators report per-component counters, gauges, and "
            "latency quantiles after the runs"
        ),
    )
    parser.add_argument(
        "--trace", action="store_true",
        help=(
            "capture span traces + metrics in every worker and print "
            "the merged per-experiment span summary after the sweep"
        ),
    )
    parser.add_argument(
        "--profile", action="store_true",
        help=(
            "also run the sampling sim-profiler in every worker "
            "(implies --trace) and print the top collapsed stacks"
        ),
    )
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    if args.retries < 0:
        parser.error("--retries must be >= 0")
    if args.timeout is not None and args.timeout <= 0:
        parser.error("--timeout must be positive")

    from .analysis import REGISTRY
    from .core import instrument

    if args.instrument:
        instrument.enable_session()
    telemetry = None
    if args.trace or args.profile:
        from .obs.telemetry import TelemetryOptions

        telemetry = TelemetryOptions(
            profile_period=16 if args.profile else 0,
        )

    runner = None
    if args.backend is not None:
        from .exec.backends import make_backend

        runner = make_backend(args.backend, jobs=args.jobs, cache_dir=args.cache)
        address = getattr(runner, "address", None)
        if address is not None:
            print(
                f"-- socket coordinator on {address[0]}:{address[1]} "
                f"(attach workers: python -m repro workers "
                f"--connect {address[0]}:{address[1]})"
            )

    only = _expand_ids(args.experiments) or None
    try:
        results = REGISTRY.run_all(
            only=only,
            jobs=args.jobs,
            cache_dir=args.cache,
            retries=args.retries,
            timeout_s=args.timeout,
            telemetry=telemetry,
            runner=runner,
        )
    except KeyError as exc:
        parser.error(str(exc))
        return 2
    print(REGISTRY.summary(results))
    report = REGISTRY.last_report
    if report is not None:
        print(f"-- exec: {report.one_line()}")
        if args.verbose:
            print("\nPer-job execution report:")
            print(report.summary())
    if args.instrument:
        metrics_report = instrument.default_registry().report()
        if metrics_report:
            print("\nKernel metrics (per component):")
            print(metrics_report)
    if telemetry is not None and report is not None and report.telemetry:
        from .obs.spans import span_stream_digest
        from .obs.telemetry import payload_spans

        merged = report.telemetry
        print("\nSpan traces (per experiment):")
        for job_id in sorted(merged["spans"]):
            records = payload_spans({"spans": merged["spans"][job_id]})
            digest = span_stream_digest(records)
            print(f"  {job_id:<6} {len(records):>6} spans  sha256 {digest[:16]}")
        if merged["spans_dropped"]:
            print(f"  ({merged['spans_dropped']} spans dropped at capacity)")
        if args.profile and merged["profile"]:
            top = sorted(merged["profile"].items(), key=lambda kv: -kv[1])[:10]
            print("\nTop profile stacks (samples):")
            for stack, count in top:
                print(f"  {count:>8}  {stack}")
        elif args.profile:
            print(
                "\nNo profile samples: the profiler samples event-kernel "
                "stacks and no selected claim runs the kernel; "
                "'python -m repro obs -v' samples kernel stacks."
            )
    if args.verbose:
        for eid in sorted(results):
            print(f"\n[{eid}] {REGISTRY.get(eid).claim}")
            for key, value in results[eid].items():
                if key == "holds":
                    continue
                print(f"  {key}: {value}")
    return 0 if all(r.get("holds") for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
