"""The standard scenario library: named, versioned workload bundles.

gem5 20.0+ made reproducible simulation a first-class feature by
shipping prebuilt, versioned resources resolvable by name; this module
is that idea for this codebase.  A :class:`Scenario` bundles everything
needed to reproduce one simulation end to end — generator profile +
seed + params (the trace), sink + params (the simulator), and the
interval-stats cadence — under a stable id ``name@version``
(``scenarios.get("noc-mesh-8x8@1")``).

Resolution rules: a full ``name@version`` id resolves exactly; a bare
``name`` resolves to the highest registered version.  Version bumps are
*append-only* — changing what an existing id means would silently
invalidate every pinned digest downstream, so edits ship as
``name@N+1`` while ``name@N`` keeps meaning what it always meant (the
golden determinism suite enforces this with sha256-pinned replay
digests per shipped id).

:func:`replay_scenario` is the engine-facing entry point: a plain
top-level function of one JSON-able config dict, picklable across
process and socket backends, so scenario sweeps run through
``run_jobs`` on any backend with ``RunReport.digest()`` parity.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, BinaryIO, Dict, List, Optional, Tuple, Union

import numpy as np

from ..traces.generators import PROFILES, generate
from ..traces.replay import SINKS, ReplayResult, replay

__all__ = [
    "Scenario",
    "build_trace",
    "get",
    "list_ids",
    "register",
    "replay_scenario",
    "run",
    "write_trace_file",
]

_ID_RE = re.compile(r"^(?P<name>[a-z0-9][a-z0-9-]*)@(?P<version>[1-9]\d*)$")


@dataclass(frozen=True)
class Scenario:
    """One reproducible simulation bundle, resolvable by id."""

    name: str
    version: int
    description: str
    profile: str
    sink: str
    seed: int = 0
    gen_params: Dict[str, Any] = field(default_factory=dict)
    sink_params: Dict[str, Any] = field(default_factory=dict)
    stats_interval: int = 1000
    tags: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not _ID_RE.match(f"{self.name}@{self.version}"):
            raise ValueError(
                f"bad scenario id {self.name!r}@{self.version}: name must "
                "be lowercase [a-z0-9-], version a positive integer"
            )
        if self.profile not in PROFILES:
            raise ValueError(f"unknown trace profile {self.profile!r}")
        if self.sink not in SINKS:
            raise ValueError(f"unknown replay sink {self.sink!r}")

    @property
    def id(self) -> str:
        return f"{self.name}@{self.version}"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "id": self.id,
            "description": self.description,
            "profile": self.profile,
            "seed": self.seed,
            "gen_params": dict(self.gen_params),
            "sink": self.sink,
            "sink_params": dict(self.sink_params),
            "stats_interval": self.stats_interval,
            "tags": list(self.tags),
        }


_REGISTRY: Dict[str, Scenario] = {}


def register(scenario: Scenario) -> Scenario:
    """Add a scenario to the registry; ids are write-once."""
    if scenario.id in _REGISTRY:
        raise ValueError(
            f"scenario id {scenario.id!r} already registered — bump the "
            "version instead of redefining it"
        )
    _REGISTRY[scenario.id] = scenario
    return scenario


def get(scenario_id: str) -> Scenario:
    """Resolve ``name@version`` exactly, or a bare name to its latest."""
    if scenario_id in _REGISTRY:
        return _REGISTRY[scenario_id]
    if "@" not in scenario_id:
        candidates = [
            s for s in _REGISTRY.values() if s.name == scenario_id
        ]
        if candidates:
            return max(candidates, key=lambda s: s.version)
    known = ", ".join(list_ids())
    raise KeyError(
        f"unknown scenario {scenario_id!r}; known ids: {known}"
    )


def list_ids(tag: Optional[str] = None) -> List[str]:
    ids = [
        s.id
        for s in _REGISTRY.values()
        if tag is None or tag in s.tags
    ]
    return sorted(ids)


def build_trace(scenario: Union[str, Scenario]) -> Tuple[int, np.ndarray]:
    """Generate the scenario's trace in memory: ``(kind, array)``."""
    s = get(scenario) if isinstance(scenario, str) else scenario
    return generate(s.profile, seed=s.seed, **s.gen_params)


def write_trace_file(
    scenario: Union[str, Scenario], target: Union[str, BinaryIO]
) -> int:
    """Materialize the scenario's trace as a trace file; count back."""
    from ..traces.format import TraceWriter

    s = get(scenario) if isinstance(scenario, str) else scenario
    kind, arr = build_trace(s)
    with TraceWriter(target, meta={"scenario": s.id}) as w:
        w.write_block(kind, arr)
        return w.records_written


def run(scenario: Union[str, Scenario]) -> ReplayResult:
    """Generate + replay one scenario; the library's one-call form."""
    s = get(scenario) if isinstance(scenario, str) else scenario
    kind, arr = build_trace(s)
    return replay(
        [(kind, arr)],
        sink=s.sink,
        sink_params=s.sink_params,
        stats_interval=s.stats_interval,
    )


def replay_scenario(config: Dict[str, Any]) -> Dict[str, Any]:
    """Engine entry point: replay ``config["scenario"]`` and return the
    result as a plain dict (digest included).

    Top-level and JSON-in/JSON-out, so an exec :class:`Job` can carry it
    through serial, pool, and socket backends alike —
    ``run_jobs`` digest parity across backends is gated on exactly this
    function.
    """
    scenario_id = config["scenario"]
    result = run(scenario_id)
    out = result.to_dict()
    out["scenario"] = get(scenario_id).id
    return out


# -- the shipped library ---------------------------------------------------
# Sizes are deliberately modest (a few thousand records): every id is
# replayed in CI across three backends, and
# golden digests make byte-level drift loud, not slow tests.

register(Scenario(
    name="web-steady-rr",
    version=1,
    description="Steady Poisson service traffic on an 8-server FCFS "
                "farm, round-robin dispatch — the M/M/c-flavored "
                "baseline every other service scenario is read against.",
    profile="steady-requests",
    seed=1001,
    gen_params={"n": 4000, "rate": 1200.0, "mean_service_us": 5000.0},
    sink="queue",
    sink_params={"n_servers": 8, "policy": "rr"},
    tags=("service", "queue"),
))

register(Scenario(
    name="web-burst",
    version=1,
    description="Flash-crowd traffic (two-state burst process) on the "
                "same 8-server farm with join-shortest-queue — the "
                "paper's always-on social/media shape.",
    profile="bursty-requests",
    seed=1002,
    gen_params={"n": 4000, "base_rate": 500.0, "burst_rate": 5000.0,
                "mean_service_us": 5000.0},
    sink="queue",
    sink_params={"n_servers": 8, "policy": "jsq"},
    tags=("service", "queue", "bursty"),
))

register(Scenario(
    name="tail-straggler",
    version=1,
    description="Mostly-fast requests with a 2% x25 straggler tail on "
                "16 servers — the tail-at-scale shape hedging exists "
                "for; p99 dwarfs the mean.",
    profile="straggler-requests",
    seed=1003,
    gen_params={"n": 4000, "rate": 1000.0, "mean_service_us": 4000.0},
    sink="queue",
    sink_params={"n_servers": 16, "policy": "target"},
    tags=("service", "queue", "tail"),
))

register(Scenario(
    name="noc-mesh-8x8",
    version=1,
    description="Uniform-random traffic on an 8x8 mesh, XY "
                "dimension-ordered routing — the standard NoC "
                "load/latency reference point.",
    profile="noc-uniform",
    seed=1004,
    gen_params={"n": 2500, "nodes": 64, "rate": 2500.0},
    sink="noc",
    sink_params={"width": 8, "height": 8, "routing": "xy"},
    tags=("noc",),
))

register(Scenario(
    name="noc-hotspot-4x4",
    version=1,
    description="Hotspot traffic (40% of packets to node 0) on a 4x4 "
                "mesh — the congestion shape that separates routing "
                "policies.",
    profile="noc-hotspot",
    seed=1005,
    gen_params={"n": 2500, "nodes": 16, "rate": 2500.0,
                "hot_fraction": 0.4},
    sink="noc",
    sink_params={"width": 4, "height": 4, "routing": "xy"},
    tags=("noc", "hotspot"),
))

register(Scenario(
    name="mem-kv-zipf",
    version=1,
    description="Zipf(1.1) key/value references, 10% writes, through "
                "the default cache hierarchy — the in-memory store "
                "shape from the paper's data-centric argument.",
    profile="kv-zipf",
    seed=1006,
    gen_params={"n": 20000, "keys": 1 << 14},
    sink="memory",
    sink_params={},
    stats_interval=5000,
    tags=("memory",),
))

register(Scenario(
    name="mem-graph-scan",
    version=1,
    description="Graph-analytics references (sequential edge runs + "
                "random vertex jumps) through the default hierarchy — "
                "the scan/gather mix of PageRank-style codes.",
    profile="graph-scan",
    seed=1007,
    gen_params={"n": 20000},
    sink="memory",
    sink_params={},
    stats_interval=5000,
    tags=("memory", "graph"),
))

register(Scenario(
    name="wear-hotline",
    version=1,
    description="NVM write-hammering (80% of writes to 8 hot lines) "
                "under Start-Gap wear leveling — the adversarial "
                "lifetime shape from the paper's NVM discussion.",
    profile="wear-hotline",
    seed=1008,
    gen_params={"n": 10000},
    sink="wear",
    sink_params={"leveler": "start-gap"},
    tags=("memory", "nvm", "wear"),
))

register(Scenario(
    name="cpu-mix",
    version=1,
    description="A 55/30/15 ALU/mem/branch instruction mix through the "
                "in-order scoreboard — load-use stalls and branch "
                "bubbles set the IPC.",
    profile="instr-mix",
    seed=1009,
    gen_params={"n": 20000},
    sink="cpu",
    sink_params={},
    stats_interval=5000,
    tags=("cpu",),
))
