"""Availability math — "five 9's" (paper Table A.2, experiment E13).

"While current mainframes and medical devices strive for five 9's or
99.999% availability (all but five minutes per year), achieving this
goal can cost millions of dollars.  Tomorrow's solutions demand this
same availability at the many levels, some where the cost is only a few
dollars."

Standard series/parallel/k-of-n availability algebra, plus a cost model
that prices the redundancy needed to climb each "nine" — reproducing
the exponential cost-of-nines curve behind the quoted sentence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np


def _check_avail(a: float) -> None:
    if not 0.0 <= a <= 1.0:
        raise ValueError(f"availability must be in [0, 1], got {a}")


def series_availability(components: Sequence[float]) -> float:
    """All components required: availabilities multiply."""
    if not components:
        raise ValueError("need at least one component")
    result = 1.0
    for a in components:
        _check_avail(a)
        result *= a
    return result


def parallel_availability(components: Sequence[float]) -> float:
    """Any one suffices: 1 - prod(unavailabilities)."""
    if not components:
        raise ValueError("need at least one component")
    miss = 1.0
    for a in components:
        _check_avail(a)
        miss *= 1.0 - a
    return 1.0 - miss


def k_of_n_availability(k: int, n: int, a: float) -> float:
    """System up when >= k of n identical components are up."""
    _check_avail(a)
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    from scipy import stats

    return float(stats.binom.sf(k - 1, n, a))


def replicas_for_target(
    target: float, component_availability: float
) -> int:
    """Minimum 1-of-n replicas to reach ``target`` availability."""
    _check_avail(target)
    _check_avail(component_availability)
    if component_availability == 0.0:
        if target > 0:
            raise ValueError("cannot reach a positive target with dead parts")
        return 1
    if component_availability >= target:
        return 1
    if component_availability == 1.0:
        return 1
    n = math.log(1.0 - target) / math.log(1.0 - component_availability)
    return int(math.ceil(n - 1e-12))


def nines(availability: float) -> float:
    """Availability expressed in 'nines' (0.999 -> 3.0)."""
    _check_avail(availability)
    if availability == 1.0:
        return float("inf")
    return -math.log10(1.0 - availability)


def availability_from_nines(n: float) -> float:
    if n < 0:
        raise ValueError("nines must be non-negative")
    return 1.0 - 10.0 ** (-n)


@dataclass(frozen=True)
class RedundancyCostModel:
    """Price of climbing the nines with replicated servers.

    ``component_availability`` per replica, ``unit_cost`` dollars per
    replica, plus a fixed coordination overhead per extra replica
    (failover logic, consistency).
    """

    component_availability: float = 0.99
    unit_cost_usd: float = 3000.0
    coordination_cost_usd: float = 1000.0

    def __post_init__(self) -> None:
        _check_avail(self.component_availability)
        if self.unit_cost_usd < 0 or self.coordination_cost_usd < 0:
            raise ValueError("costs must be non-negative")

    def cost_for_target(self, target: float) -> dict[str, float]:
        n = replicas_for_target(target, self.component_availability)
        cost = n * self.unit_cost_usd + max(0, n - 1) * self.coordination_cost_usd
        achieved = parallel_availability(
            [self.component_availability] * n
        )
        return {
            "replicas": float(n),
            "cost_usd": float(cost),
            "achieved": achieved,
            "achieved_nines": nines(achieved),
        }

    def cost_of_nines_curve(
        self, nines_targets: Sequence[float]
    ) -> dict[str, np.ndarray]:
        """Dollars per nine — the exponential staircase (E13)."""
        if not nines_targets:
            raise ValueError("need at least one target")
        targets = [availability_from_nines(x) for x in nines_targets]
        records = [self.cost_for_target(t) for t in targets]
        return {
            "nines": np.asarray(nines_targets, dtype=float),
            "replicas": np.array([r["replicas"] for r in records]),
            "cost_usd": np.array([r["cost_usd"] for r in records]),
        }


def downtime_minutes_per_year(availability: float) -> float:
    """Yearly downtime implied by an availability level [minutes]."""
    _check_avail(availability)
    return (1.0 - availability) * 365.25 * 24 * 60


def paper_five_nines_check() -> dict[str, float]:
    """The Table A.2 sentence: five 9's = 'all but five minutes per year'."""
    a = availability_from_nines(5.0)
    return {
        "availability": a,
        "downtime_minutes_per_year": downtime_minutes_per_year(a),
        "paper_value_minutes": 5.0,
    }
