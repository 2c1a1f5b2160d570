"""``python -m repro serve`` — run (or selftest) the experiment service.

Foreground mode binds the HTTP/JSON API and serves until SIGTERM or
SIGINT, then drains gracefully: new submissions get 503, queued and
in-flight runs finish, every waiter is answered, the listener closes.

``--selftest`` boots the whole stack on an ephemeral port in-process,
submits one experiment plus one duplicate, asserts the duplicate
coalesced onto the original's backend job, exercises the drain path
(new work rejected with 503, in-flight work completed), checks that its
requests shared persistent connections, and exits 0 only if every
check passed — the smoke CI job and a fresh checkout's
sanity check share it.
"""

from __future__ import annotations

import argparse
import asyncio
import time
from typing import Optional

from .._cli import positive_float
from .boot import ServerThread, build_app
from .client import ServeClient

__all__ = ["main", "selftest"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description=(
            "Long-running experiment service: HTTP/JSON API with "
            "admission control and request coalescing over the "
            "multi-backend execution layer."
        ),
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=0, metavar="P",
        help="listen port (default 0 = ephemeral; the bound port is printed)",
    )
    parser.add_argument(
        "--backend", choices=("serial", "pool", "socket", "array"),
        default="serial", metavar="B",
        help="execution backend serving the traffic (default serial)",
    )
    parser.add_argument(
        "--jobs", "-j", type=int, default=1, metavar="N",
        help="backend parallelism (pool/socket worker count; default 1)",
    )
    parser.add_argument(
        "--cache", metavar="DIR", default=None,
        help=(
            "persistent result-cache directory (default: ephemeral "
            "temp dir — coalescing and hot repeats still work, nothing "
            "survives the process)"
        ),
    )
    parser.add_argument(
        "--max-queue", type=int, default=128, metavar="Q",
        help="admission queue bound; beyond it submissions shed with 429",
    )
    parser.add_argument(
        "--max-inflight", type=int, default=None, metavar="I",
        help="concurrent backend jobs (default: --jobs)",
    )
    parser.add_argument(
        "--timeout", type=positive_float, default=None, metavar="S",
        help="per-job timeout passed to the backend",
    )
    parser.add_argument(
        "--hedge-ms", type=positive_float, default=None, metavar="MS",
        help=(
            "tail-latency hedging: duplicate any request still running "
            "after MS milliseconds onto a free worker and take the "
            "first result (default: off)"
        ),
    )
    parser.add_argument(
        "--selftest", action="store_true",
        help="boot on an ephemeral port, verify coalescing + drain, exit",
    )
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.jobs < 1:
        raise SystemExit("--jobs must be >= 1")
    if args.selftest:
        return selftest(
            backend=args.backend, jobs=args.jobs, cache_dir=args.cache
        )
    app = build_app(
        backend=args.backend,
        jobs=args.jobs,
        cache_dir=args.cache,
        host=args.host,
        port=args.port,
        max_queue=args.max_queue,
        max_inflight=args.max_inflight,
        job_timeout_s=args.timeout,
        hedge_ms=args.hedge_ms,
    )

    async def _serve() -> None:
        await app.start()
        app.install_signal_handlers()
        host, port = app.address
        print(f"-- repro serve on http://{host}:{port} "
              f"(backend={args.backend}, jobs={args.jobs})")
        worker_addr = getattr(app.dispatcher.runner, "address", None)
        if worker_addr is not None:
            print(
                f"-- socket coordinator on {worker_addr[0]}:{worker_addr[1]} "
                f"(attach workers: python -m repro workers "
                f"--connect {worker_addr[0]}:{worker_addr[1]})"
            )
        print("-- SIGTERM/SIGINT drains in-flight runs, then exits")
        await app.serve_until_stopped()
        print("-- drained; bye")

    asyncio.run(_serve())
    return 0


def selftest(
    backend: str = "serial", jobs: int = 1, cache_dir: Optional[str] = None
) -> int:
    """End-to-end smoke: boot, coalesce a duplicate, drain cleanly."""
    checks: list[tuple[str, bool]] = []

    def check(name: str, ok: bool) -> None:
        checks.append((name, ok))
        print(f"  [{'ok' if ok else 'FAIL'}] {name}")

    app = build_app(
        backend=backend, jobs=jobs, cache_dir=cache_dir,
        max_inflight=max(1, jobs),
    )
    server = ServerThread(app)
    server.start()
    host, port = server.address
    print(f"selftest: serving on http://{host}:{port} (backend={backend})")
    client = ServeClient(host, port, timeout_s=30.0)
    try:
        health = client.healthz()
        check("healthz answers ok", health.get("status") == "ok")

        # A slow-ish design point, submitted twice: the duplicate must
        # ride the original's backend job, not dispatch its own.
        params = {"duration_s": 0.3, "tag": "selftest"}
        status_a, _, body_a = client.submit("spin", params)
        status_b, _, body_b = client.submit("spin", params)
        check("first submission accepted", status_a == 202)
        check("duplicate accepted", status_b in (200, 202))
        coalesced = bool(body_b.get("runs", [{}])[0].get("coalesced"))
        check("duplicate coalesced onto in-flight job", coalesced)
        check(
            "three requests rode fewer than three connections",
            app.metrics.counter("serve.connections").value < 3,
        )

        # Drain: launched concurrently so the 503 window is observable.
        fut = asyncio.run_coroutine_threadsafe(
            app.drain(timeout_s=20.0), server._loop  # noqa: SLF001
        )
        time.sleep(0.05)
        status_c, _, body_c = client.submit("spin", {"duration_s": 0.01})
        check("draining server rejects new work with 503", status_c == 503)
        drained = fut.result(timeout=25.0)
        check("drain completed in-flight runs", drained)

        rec_a = app.coalescer.get(body_a["run_id"])
        rec_b = app.coalescer.get(body_b["run_id"])
        both_done = (
            rec_a is not None and rec_a.status == "succeeded"
            and rec_b is not None and rec_b.status == "succeeded"
        )
        check("both waiters received results", both_done)
        check(
            "waiters share one result",
            both_done and rec_a.result == rec_b.result,
        )
        check(
            "backend executed the design point exactly once",
            app.dispatcher.dispatched == 1,
        )
        check(
            "exec.cache.coalesced counted the duplicate",
            app.cache.coalesced == 1,
        )
    finally:
        client.close()
        server.stop(drain=False)

    failed = [name for name, ok in checks if not ok]
    if failed:
        print(f"selftest: {len(failed)}/{len(checks)} checks FAILED")
        return 1
    print(f"selftest: all {len(checks)} checks passed")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
