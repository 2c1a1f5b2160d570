"""Tail-tolerant request techniques: hedged and tied requests.

The paper calls for "architectural innovations [that] can guarantee
strict worst-case latency requirements"; Dean & Barroso's hedged
requests are the canonical software mechanism, and reproducing their
effect (tail collapse for ~5% extra load) is experiment E07's second
half.

* **Hedged** — send a backup copy of a request if the primary hasn't
  answered within a trigger delay (typically the p95); take the first
  answer.
* **Tied** — send two immediately, cancel the loser on first dequeue;
  modeled as min-of-two with a small cancellation overhead and full 2x
  load.

Two implementations of hedging live here.  The vectorized Monte Carlo
(:func:`hedged_request_latencies`) is the closed-form-fast path; the
event path (:func:`kernel_hedged_latencies`) plays the same policy out
on the shared kernel — the hedge timer is a scheduled event, and
whichever reply loses the race is *actually cancelled* through the
kernel's :class:`~repro.core.events.CancelToken`, which is the
mechanism real tail-tolerant RPC layers need.  The two agree sample for
sample, which is the cross-validation.
"""

from __future__ import annotations


import numpy as np

from ..core.events import FunctionCheckpoint, Simulator
from ..core.rng import RngLike, resolve_rng
from .latency import LatencyDistribution


def hedged_request_latencies(
    dist: LatencyDistribution,
    n_requests: int,
    trigger_quantile: float = 0.95,
    rng: RngLike = None,
) -> dict[str, np.ndarray | float]:
    """Monte-Carlo hedged requests against one server distribution.

    A request's latency is ``min(primary, trigger + backup)``; the
    extra-load fraction is P(primary > trigger) — by construction
    1 - trigger_quantile.
    """
    if n_requests < 1:
        raise ValueError("need at least one request")
    if not 0.0 < trigger_quantile < 1.0:
        raise ValueError("trigger quantile must be in (0, 1)")
    gen = resolve_rng(rng)
    trigger = float(dist.quantile(trigger_quantile)[0])
    primary = dist.sample(n_requests, rng=gen)
    backup = dist.sample(n_requests, rng=gen)
    hedged = np.minimum(primary, trigger + backup)
    extra_load = float(np.mean(primary > trigger))
    return {
        "latencies": hedged,
        "baseline": primary,
        "extra_load_fraction": extra_load,
        "trigger_ms": trigger,
    }


def kernel_hedged_latencies(
    dist: LatencyDistribution,
    n_requests: int,
    trigger_quantile: float = 0.95,
    rng: RngLike = None,
    sim: Simulator | None = None,
) -> dict[str, np.ndarray | float]:
    """Hedged requests as real events on the shared kernel.

    Per request: the primary reply is a scheduled completion; a hedge
    timer fires at the trigger delay and, if the primary is still
    outstanding, launches a backup reply.  First completion wins and
    cancels both the loser's completion event and (if still pending)
    the hedge timer — exercising the kernel's lazy cancellation exactly
    the way a tail-tolerant RPC layer would.

    Draws primary and backup samples in the same stream order as
    :func:`hedged_request_latencies`, so the resulting latencies match
    the vectorized path sample for sample.
    """
    if n_requests < 1:
        raise ValueError("need at least one request")
    if not 0.0 < trigger_quantile < 1.0:
        raise ValueError("trigger quantile must be in (0, 1)")
    gen = resolve_rng(rng)
    trigger = float(dist.quantile(trigger_quantile)[0])
    primary = dist.sample(n_requests, rng=gen)
    backup = dist.sample(n_requests, rng=gen)

    kernel = sim if sim is not None else Simulator()
    stats = kernel.metrics.scoped("hedging")
    hedges_ctr = stats.counter("hedges_launched")
    cancel_ctr = stats.counter("losers_cancelled")
    lat_hist = stats.histogram("latency_ms")
    # Per-request spans are emitted completed at the winning reply, so
    # they carry the full arrival->completion interval and replay
    # identically after a checkpoint restore.
    tracer = getattr(kernel.metrics, "tracer", None)
    latencies = np.empty(n_requests)
    primary_t = primary.tolist()
    backup_t = backup.tolist()
    hedged_count = 0
    cancelled_count = 0

    class _Request:
        """Per-request race state: the three tokens in flight."""

        __slots__ = ("i", "start", "primary", "hedge", "backup")

    def finish_primary(s: Simulator, req: _Request) -> None:
        nonlocal cancelled_count
        latencies[req.i] = s.now - req.start
        hedged = req.hedge is None  # hedge timer already fired
        # Cancel the race loser still in flight (the hedge timer if it
        # has not fired, else the backup reply) through the kernel.
        if req.hedge is not None:
            req.hedge.cancel()
            req.hedge = None
            cancelled_count += 1
        elif req.backup is not None:
            req.backup.cancel()
            req.backup = None
            cancelled_count += 1
        if tracer is not None:
            tracer.emit("hedge.request", req.start, s.now,
                        i=req.i, winner="primary", hedged=hedged)

    def finish_backup(s: Simulator, req: _Request) -> None:
        nonlocal cancelled_count
        latencies[req.i] = s.now - req.start
        req.primary.cancel()
        req.primary = None
        cancelled_count += 1
        if tracer is not None:
            tracer.emit("hedge.request", req.start, s.now,
                        i=req.i, winner="backup", hedged=True)

    def hedge(s: Simulator, req: _Request) -> None:
        nonlocal hedged_count
        req.hedge = None
        hedged_count += 1
        req.backup = s.schedule(backup_t[req.i], finish_backup, req)

    # Live request objects in launch order; checkpoint state rolls their
    # token slots back (the tokens' cancelled flags are kernel state).
    requests: list[_Request] = []

    def launch(s: Simulator, i: int) -> None:
        req = _Request()
        req.i = i
        req.start = s.now
        req.backup = None
        req.hedge = None
        req.primary = s.schedule(primary_t[i], finish_primary, req)
        req.hedge = s.schedule(trigger, hedge, req)
        requests.append(req)

    # Requests are independent; stagger starts by the trigger so the
    # kernel interleaves many outstanding requests (a realistic load).
    # The launch train is nondecreasing, so it bulk-loads the kernel's
    # in-order lane in O(n).
    kernel.schedule_batch(
        [i * trigger for i in range(n_requests)],
        launch,
        payloads=range(n_requests),
    )

    def _ckpt_snapshot():
        return (
            hedged_count,
            cancelled_count,
            latencies.copy(),
            len(requests),
            [(r.primary, r.hedge, r.backup) for r in requests],
        )

    def _ckpt_restore(state):
        nonlocal hedged_count, cancelled_count
        hedged_count, cancelled_count = state[0], state[1]
        latencies[:] = state[2]
        # Requests launched after the snapshot are garbage (their events
        # were discarded by the kernel restore; replay recreates them);
        # pre-snapshot requests keep identity — pending events reference
        # them — and get their token slots rolled back.  The tokens'
        # cancelled flags themselves are restored by the kernel.
        del requests[state[3]:]
        for req, (primary, hedge_tok, backup) in zip(requests, state[4]):
            req.primary = primary
            req.hedge = hedge_tok
            req.backup = backup

    kernel.register_checkpointable(
        FunctionCheckpoint(_ckpt_snapshot, _ckpt_restore)
    )
    if tracer is not None:
        with tracer.span("hedging.run", sim=kernel, category="model",
                         requests=n_requests):
            kernel.run()
    else:
        kernel.run()
    hedges_ctr.inc(hedged_count)
    cancel_ctr.inc(cancelled_count)
    # Batched in request order (not completion order): same multiset of
    # observations, so reservoir quantiles agree for n <= capacity.
    lat_hist.observe_many(latencies)

    return {
        "latencies": latencies,
        "trigger_ms": trigger,
        "extra_load_fraction": hedged_count / n_requests,
    }


def tied_request_latencies(
    dist: LatencyDistribution,
    n_requests: int,
    cancellation_overhead_ms: float = 0.1,
    rng: RngLike = None,
) -> np.ndarray:
    """Tied requests: min of two immediate copies plus a small overhead."""
    if n_requests < 1:
        raise ValueError("need at least one request")
    if cancellation_overhead_ms < 0:
        raise ValueError("overhead must be non-negative")
    gen = resolve_rng(rng)
    a = dist.sample(n_requests, rng=gen)
    b = dist.sample(n_requests, rng=gen)
    return np.minimum(a, b) + cancellation_overhead_ms


def hedging_effectiveness(
    dist: LatencyDistribution,
    fanout: int = 100,
    n_requests: int = 5000,
    trigger_quantile: float = 0.95,
    rng: RngLike = None,
) -> dict[str, float]:
    """Full fan-out comparison: plain vs hedged leaves (E07's table).

    Each request fans to ``fanout`` leaves; with hedging, each *leaf*
    is hedged.  Reports p50/p99 of the request (max-of-leaves) latency
    for both, the tail reduction, and the extra load.
    """
    if fanout < 1 or n_requests < 1:
        raise ValueError("fanout and n_requests must be >= 1")
    gen = resolve_rng(rng)
    trigger = float(dist.quantile(trigger_quantile)[0])

    plain_draws = dist.sample(fanout * n_requests, rng=gen).reshape(
        n_requests, fanout
    )
    plain = plain_draws.max(axis=1)

    primary = dist.sample(fanout * n_requests, rng=gen).reshape(
        n_requests, fanout
    )
    backup = dist.sample(fanout * n_requests, rng=gen).reshape(
        n_requests, fanout
    )
    hedged_leaves = np.minimum(primary, trigger + backup)
    hedged = hedged_leaves.max(axis=1)

    return {
        "plain_p50": float(np.median(plain)),
        "plain_p99": float(np.percentile(plain, 99)),
        "hedged_p50": float(np.median(hedged)),
        "hedged_p99": float(np.percentile(hedged, 99)),
        "p99_reduction": float(
            1.0 - np.percentile(hedged, 99) / np.percentile(plain, 99)
        ),
        "extra_load_fraction": float(np.mean(primary > trigger)),
    }
