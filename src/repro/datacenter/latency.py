"""Request latency distributions for datacenter modeling.

The tail-at-scale analysis needs per-server latency distributions with
heavy-ish tails.  :class:`LatencyDistribution` wraps a sampler plus
closed-form quantiles where available; the built-ins cover the standard
modeling choices (exponential, lognormal, Pareto-tailed mixture).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ..core.rng import RngLike, resolve_rng


@dataclass(frozen=True)
class LatencyDistribution:
    """A named latency distribution with sampling and quantiles."""

    name: str
    sampler: Callable[[np.random.Generator, int], np.ndarray]
    quantile_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def sample(self, n: int, rng: RngLike = None) -> np.ndarray:
        if n < 0:
            raise ValueError("n must be non-negative")
        gen = resolve_rng(rng)
        out = self.sampler(gen, n)
        if np.any(out < 0):
            raise ValueError("latency samples must be non-negative")
        return out

    def quantile(self, q) -> np.ndarray:
        """Closed-form quantile; falls back to a large-sample estimate."""
        q_arr = np.atleast_1d(np.asarray(q, dtype=float))
        if np.any((q_arr < 0) | (q_arr > 1)):
            raise ValueError("quantiles must be in [0, 1]")
        if self.quantile_fn is not None:
            return self.quantile_fn(q_arr)
        sample = self.sample(200_000, rng=12345)
        return np.quantile(sample, q_arr)


def exponential_latency(mean_ms: float = 10.0) -> LatencyDistribution:
    if mean_ms <= 0:
        raise ValueError("mean must be positive")

    def quantile(q):
        from scipy import stats

        return stats.expon.ppf(q, scale=mean_ms)

    return LatencyDistribution(
        name=f"exponential(mean={mean_ms}ms)",
        sampler=lambda gen, n: gen.exponential(mean_ms, size=n),
        quantile_fn=quantile,
    )


def lognormal_latency(
    median_ms: float = 10.0, sigma: float = 0.5
) -> LatencyDistribution:
    if median_ms <= 0 or sigma <= 0:
        raise ValueError("median and sigma must be positive")
    mu = np.log(median_ms)

    def quantile(q):
        from scipy import stats

        return stats.lognorm.ppf(q, sigma, scale=median_ms)

    return LatencyDistribution(
        name=f"lognormal(median={median_ms}ms, sigma={sigma})",
        sampler=lambda gen, n: gen.lognormal(mu, sigma, size=n),
        quantile_fn=quantile,
    )


def straggler_mixture(
    base_median_ms: float = 10.0,
    base_sigma: float = 0.3,
    straggler_prob: float = 0.01,
    straggler_factor: float = 10.0,
) -> LatencyDistribution:
    """Mostly-fast servers with occasional order-of-magnitude stragglers
    (GC pauses, queueing, background daemons) — Dean & Barroso's world.
    """
    if not 0.0 <= straggler_prob <= 1.0:
        raise ValueError("straggler_prob must be in [0, 1]")
    if straggler_factor < 1.0:
        raise ValueError("straggler_factor must be >= 1")
    base = lognormal_latency(base_median_ms, base_sigma)

    def sampler(gen: np.random.Generator, n: int) -> np.ndarray:
        fast = gen.lognormal(np.log(base_median_ms), base_sigma, size=n)
        slow_mask = gen.random(n) < straggler_prob
        fast[slow_mask] *= straggler_factor
        return fast

    return LatencyDistribution(
        name=(
            f"straggler(base={base.name}, p={straggler_prob}, "
            f"x{straggler_factor})"
        ),
        sampler=sampler,
    )
