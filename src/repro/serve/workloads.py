"""Servable workloads: named, picklable design-point evaluators.

The experiment service accepts requests of the form ``{"workload": W,
"params": {...}}``.  A *workload* is a module-level function (picklable,
so the pool/socket backends can ship it to worker processes) that takes
one canonicalizable config dict and returns a JSON-able result dict.
The (workload name, canonical params) pair is the service's *design
point*: its identity is the exec cache key — derived through the shared
:func:`repro.exec.cache.cache_key` machinery — which is what lets the
request coalescer batch identical submissions into one backend job and
serve repeats straight from the result cache.

Catalog:

* ``cluster`` — the warehouse-scale queueing simulator (the paper's
  tail-at-scale model): Poisson arrivals over N FCFS servers, returns
  throughput and latency percentiles.
* ``experiment`` — one registry experiment (E01–E22) by id.
* ``spin`` — a calibrated busy-wait that returns after ``duration_s``;
  exists so tests and the load harness can shape service time exactly.
* ``straggler`` — a spin whose duration models a *transient* straggler
  (slow disk, noisy neighbor): a deterministic subset of tags stall on
  their first execution only, so a hedged duplicate deterministically
  finishes fast.  The hedging benchmark's workload.
* ``scenario`` — one named scenario from the standard library
  (:mod:`repro.scenarios`): generate its pinned trace and replay it,
  returning the deterministic digest — reproducible-by-name
  simulation over HTTP.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from typing import Any, Callable, Mapping, Optional

import numpy as np

from ..exec.cache import canonicalize

__all__ = [
    "WORKLOADS",
    "DesignPoint",
    "design_point",
    "run_cluster",
    "run_experiment",
    "run_scenario",
    "run_spin",
    "run_straggler",
]


def run_cluster(config: dict) -> dict:
    """One cluster design point: simulate, report throughput + tails."""
    from ..datacenter.cluster import Balancer, ClusterConfig, ClusterSimulator

    n_servers = int(config.get("n_servers", 8))
    arrival_rate = float(config.get("arrival_rate", 4.0))
    n_requests = int(config.get("n_requests", 2000))
    seed = int(config.get("seed", 0))
    balancer = Balancer(config.get("balancer", "random"))
    sim = ClusterSimulator(
        ClusterConfig(
            n_servers=n_servers,
            service_rate=float(config.get("service_rate", 1.0)),
            balancer=balancer,
            slow_server_fraction=float(config.get("slow_server_fraction", 0.0)),
        )
    )
    result = sim.run(arrival_rate, n_requests, rng=seed)
    lat = result.latencies
    # One partition for all three: ``np.percentile`` with a list of q
    # gives each the value it would give alone.
    p50, p95, p99 = np.percentile(lat, [50, 95, 99]).tolist()
    return {
        "requests": int(n_requests),
        "arrival_rate": arrival_rate,
        "mean_ms": float(lat.mean() * 1e3),
        "p50_ms": p50 * 1e3,
        "p95_ms": p95 * 1e3,
        "p99_ms": p99 * 1e3,
        "utilization": float(result.utilization),
    }


def run_experiment(config: dict) -> dict:
    """One registry experiment (E01–E22) by id, verdict included."""
    from ..analysis import REGISTRY

    eid = str(config.get("id", ""))
    return dict(REGISTRY.get(eid).execute())


def run_spin(config: dict) -> dict:
    """Hold a worker for ``duration_s`` (tests / load shaping).

    Sleeps in small slices so a serial in-process backend still yields
    to nothing but stays honest about wall time; returns the configured
    duration and an echo tag so duplicate detection is observable.
    """
    duration_s = float(config.get("duration_s", 0.01))
    if duration_s < 0 or duration_s > 60:
        raise ValueError("duration_s must be in [0, 60]")
    deadline = time.perf_counter() + duration_s
    while time.perf_counter() < deadline:
        time.sleep(min(0.005, max(0.0, deadline - time.perf_counter())))
    return {"duration_s": duration_s, "tag": config.get("tag", "")}


def _spin_for(duration_s: float) -> None:
    deadline = time.perf_counter() + duration_s
    while time.perf_counter() < deadline:
        time.sleep(min(0.005, max(0.0, deadline - time.perf_counter())))


def run_straggler(config: dict) -> dict:
    """A spin with deterministic, *transient* stragglers (hedging bait).

    Whether a tag is a straggler is decided by its SHA-256 (stable
    across processes — never Python's salted ``hash``): one in
    ``slow_every`` tags takes ``slow_s`` instead of ``base_s``.  The
    stall is transient: when ``scratch_dir`` is set, the first
    execution drops a marker there before stalling, and any *second*
    execution of the same tag (a hedged duplicate) sees the marker and
    runs fast — modeling the stall living in the unlucky placement
    (noisy neighbor, cold cache), not in the work.  The returned dict
    is identical either way, so hedging changes latency, never answers.
    """
    base_s = float(config.get("base_s", 0.02))
    slow_s = float(config.get("slow_s", 0.4))
    slow_every = int(config.get("slow_every", 10))
    tag = str(config.get("tag", ""))
    scratch_dir = config.get("scratch_dir")
    for name, value in (("base_s", base_s), ("slow_s", slow_s)):
        if value < 0 or value > 60:
            raise ValueError(f"{name} must be in [0, 60]")
    digest = hashlib.sha256(tag.encode()).hexdigest()
    straggles = slow_every > 0 and int(digest, 16) % slow_every == 0
    duration_s = base_s
    if straggles:
        marker = None
        if scratch_dir:
            marker = os.path.join(scratch_dir, f"straggle-{digest[:16]}")
        if marker is not None and os.path.exists(marker):
            pass  # second placement: the transient stall is gone
        else:
            if marker is not None:
                try:
                    os.makedirs(scratch_dir, exist_ok=True)
                    with open(marker, "w", encoding="utf-8"):
                        pass
                except OSError:
                    pass
            duration_s = slow_s
    _spin_for(duration_s)
    return {"tag": tag, "straggler": straggles}


def run_scenario(config: dict) -> dict:
    """One standard-library scenario by id (see ``repro.scenarios``)."""
    from ..scenarios import replay_scenario

    return replay_scenario(config)


WORKLOADS: dict[str, Callable[[dict], dict]] = {
    "cluster": run_cluster,
    "experiment": run_experiment,
    "scenario": run_scenario,
    "spin": run_spin,
    "straggler": run_straggler,
}


class DesignPoint:
    """A validated (workload, canonical params) unit of servable work."""

    __slots__ = ("workload", "fn", "config", "design_id")

    def __init__(
        self, workload: str, fn: Callable[[dict], dict],
        config: dict, design_id: str,
    ) -> None:
        self.workload = workload
        self.fn = fn
        self.config = config
        self.design_id = design_id


def design_point(
    workload: str, params: Optional[Mapping[str, Any]] = None
) -> DesignPoint:
    """Validate a request into a :class:`DesignPoint`.

    Raises ``ValueError`` for an unknown workload or un-canonicalizable
    params (the server maps both to HTTP 400).  The design id is a
    stable digest of the canonical params — two submissions that mean
    the same work always get the same id, which is the coalescer's
    whole premise.
    """
    try:
        fn = WORKLOADS[workload]
    except KeyError:
        raise ValueError(
            f"unknown workload {workload!r}; have {sorted(WORKLOADS)}"
        ) from None
    try:
        config = canonicalize(dict(params or {}))
    except TypeError as exc:
        raise ValueError(f"params not canonicalizable: {exc}") from None
    if workload == "experiment":
        # Fail unknown experiment ids at submission time (HTTP 400),
        # not inside a backend worker.
        from ..analysis import REGISTRY

        eid = str(config.get("id", ""))
        if eid not in REGISTRY.ids():
            raise ValueError(
                f"unknown experiment id {eid!r}; have {REGISTRY.ids()}"
            )
    if workload == "scenario":
        # Same policy for scenario ids: resolve at submission time so a
        # typo is a 400, not a failed backend job.  Resolution also
        # pins a bare name to its latest version *now*, making the
        # design id (and the cache key behind it) version-exact.
        from ..scenarios import get as get_scenario

        try:
            config["scenario"] = get_scenario(
                str(config.get("scenario", ""))
            ).id
        except KeyError as exc:
            raise ValueError(str(exc.args[0])) from None
        if "fastpath" in config:
            # The kernel has one drain path; a client still pinning a
            # mode learns so instead of having the key silently ignored.
            raise ValueError(
                "scenario config key 'fastpath' is retired: the event "
                "kernel has a single drain path"
            )
    body = json.dumps(config, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(f"{workload}:{body}".encode()).hexdigest()[:16]
    return DesignPoint(workload, fn, config, f"{workload}-{digest}")
