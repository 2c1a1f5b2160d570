"""Championship harness: fixed traces, plug-in policies, scored board.

ChampSim's insight — and the reason branch-prediction and prefetching
championships moved whole subfields — is that policies only compare
fairly when everything else is frozen: same trace, same model, same
scoring rule.  Each :class:`Championship` here freezes a shipped
scenario's trace and varies exactly one policy axis:

* ``scheduling``    — queue dispatch policy (rr / target / client /
  jsq) on the flash-crowd trace; score = p99 latency (s).
* ``noc-routing``   — route function (xy / yx) on the hotspot mesh;
  score = p99 packet latency (cycles).
* ``wear-leveling`` — leveler (none / start-gap / table) on the
  write-hammer trace; score = max line wear (lower = longer life).
* ``hedging``       — hedge trigger (none / p95 / p99 / 2x-mean) on
  the straggler trace; score = p99 latency (s), hedges modeled as a
  mirrored backup issued when the primary exceeds the trigger.

Scores are deterministic simulation outputs — the leaderboard is an
*artifact*: :func:`run_all` produces a canonical dict whose sha256
digest is stable across runs and backends, and CI
diffs fresh scores against the committed baseline so a policy change
that silently reshuffles a board fails the build.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from ..exec.cache import canonicalize
from ..traces.replay import replay
from .library import build_trace, get

__all__ = [
    "COMPETITIONS",
    "Championship",
    "leaderboard_digest",
    "run_all",
    "run_championship",
]


@dataclass(frozen=True)
class Championship:
    """One frozen-trace, one-policy-axis competition."""

    name: str
    scenario: str  # shipped scenario id whose trace is the fixture
    metric: str  # what the score is, for humans
    #: policy name -> runner(kind, arr) -> (score, metrics)
    entries: Dict[str, Callable[..., Tuple[float, Dict[str, Any]]]]

    def run(self) -> Dict[str, Any]:
        kind, arr = build_trace(self.scenario)
        rows = []
        for policy in sorted(self.entries):
            score, metrics = self.entries[policy](kind, arr)
            rows.append(
                {"policy": policy, "score": float(score),
                 "metrics": metrics}
            )
        # Lower is better in every competition; ties break by name so
        # the board is a total order (digest-stable).
        rows.sort(key=lambda r: (r["score"], r["policy"]))
        for rank, row in enumerate(rows, start=1):
            row["rank"] = rank
        return {
            "championship": self.name,
            "scenario": get(self.scenario).id,
            "metric": self.metric,
            "entries": rows,
        }


def _queue_entry(policy: str):
    def _run(kind, arr):
        r = replay(
            [(kind, arr)],
            sink="queue",
            sink_params={"n_servers": 8, "policy": policy},
        )
        lat = r.outputs["latency_s"]
        return lat["p99"], {
            "mean_latency_s": lat["mean"],
            "max_latency_s": lat["max"],
            "utilization": r.outputs["utilization"],
        }

    return _run


def _routing_entry(routing: str):
    def _run(kind, arr):
        r = replay(
            [(kind, arr)],
            sink="noc",
            sink_params={"width": 4, "height": 4, "routing": routing},
        )
        lat = r.outputs["latency_cycles"]
        return lat["p99"], {
            "mean_latency_cycles": lat["mean"],
            "delivered": r.outputs["delivered"],
            "dropped": r.outputs["dropped"],
            "mean_hops": r.outputs["mean_hops"],
        }

    return _run


def _wear_entry(leveler: str):
    def _run(kind, arr):
        # 256 lines + a fast gap: small enough that the rotation-based
        # levelers complete several laps within the 10k-write fixture,
        # so the board separates policies instead of measuring warm-up.
        r = replay(
            [(kind, arr)],
            sink="wear",
            sink_params={"leveler": leveler, "n_lines": 256,
                         "gap_interval": 8},
        )
        return r.outputs["max_wear"], {
            "mean_wear": r.outputs["mean_wear"],
            "lines_touched": r.outputs["lines_touched"],
            "migration_writes": r.outputs["migration_writes"],
        }

    return _run


def _hedge_entry(trigger: Optional[str]):
    def _run(kind, arr):
        # Hedging is modeled directly on the service-demand stream (no
        # queueing): the primary runs; if it is still in flight at the
        # trigger latency, a backup of the *mirrored* request (index
        # n-1-i — a fixed, seed-independent pairing) is issued and the
        # faster of the two wins.  This is the paper's tail argument in
        # its purest form: a tiny duplicate budget collapses p99.
        service = arr["service_us"] * 1e-6
        n = len(service)
        if trigger is None:
            lat = service.copy()
            fired = 0
        else:
            if trigger == "p95":
                t = float(np.percentile(service, 95))
            elif trigger == "p99":
                t = float(np.percentile(service, 99))
            else:  # "mean2x"
                t = 2.0 * float(np.mean(service))
            backup = service[::-1]
            hedged = np.minimum(service, t + backup)
            slow = service > t
            lat = np.where(slow, hedged, service)
            fired = int(np.count_nonzero(slow))
        return float(np.percentile(lat, 99)), {
            "mean_latency_s": float(np.mean(lat)),
            "max_latency_s": float(np.max(lat)),
            "hedges_fired": fired,
            "hedge_rate": fired / n if n else 0.0,
        }

    return _run


COMPETITIONS: Dict[str, Championship] = {
    "scheduling": Championship(
        name="scheduling",
        scenario="web-burst@1",
        metric="p99 request latency (s), lower is better",
        entries={p: _queue_entry(p)
                 for p in ("rr", "target", "client", "jsq")},
    ),
    "noc-routing": Championship(
        name="noc-routing",
        scenario="noc-hotspot-4x4@1",
        metric="p99 packet latency (cycles), lower is better",
        entries={r: _routing_entry(r) for r in ("xy", "yx")},
    ),
    "wear-leveling": Championship(
        name="wear-leveling",
        scenario="wear-hotline@1",
        metric="max line wear (writes), lower is better",
        entries={w: _wear_entry(w)
                 for w in ("none", "start-gap", "table")},
    ),
    "hedging": Championship(
        name="hedging",
        scenario="tail-straggler@1",
        metric="p99 request latency (s), lower is better",
        entries={
            "no-hedge": _hedge_entry(None),
            "hedge-p95": _hedge_entry("p95"),
            "hedge-p99": _hedge_entry("p99"),
            "hedge-mean2x": _hedge_entry("mean2x"),
        },
    ),
}


def leaderboard_digest(board: Dict[str, Any]) -> str:
    """sha256 over the canonical board, digest field excluded."""
    payload = {k: v for k, v in board.items() if k != "digest"}
    blob = json.dumps(
        canonicalize(payload), sort_keys=True, separators=(",", ":"),
        allow_nan=False,
    ).encode()
    return hashlib.sha256(blob).hexdigest()


def run_championship(name: str) -> Dict[str, Any]:
    try:
        champ = COMPETITIONS[name]
    except KeyError:
        raise ValueError(
            f"unknown championship {name!r}; choose from "
            f"{', '.join(sorted(COMPETITIONS))}"
        ) from None
    return champ.run()


def run_all() -> Dict[str, Any]:
    """The leaderboard artifact: every championship, one digest."""
    board: Dict[str, Any] = {
        "championships": {
            name: run_championship(name)
            for name in sorted(COMPETITIONS)
        },
    }
    board["digest"] = leaderboard_digest(board)
    return board
