"""Hardware prefetchers (paper Section 2.2: "support for streaming data").

Two classic designs layered over the cache simulator:

* :class:`NextLinePrefetcher` — on every miss, fetch the next line.
* :class:`StreamPrefetcher` — detect per-PC-free stride streams from
  the miss-address sequence and run a configurable prefetch ahead
  distance once a stream is confirmed (the classic tagged stream
  buffer, simplified to line granularity).

:func:`prefetched_run` drives a cache + prefetcher over a trace and
reports coverage (fraction of would-be misses eliminated) and accuracy
(fraction of prefetches used before eviction) — the two canonical
prefetcher metrics — plus the energy cost of useless prefetches,
keeping the analysis energy-first.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .cache import Cache, CacheConfig, address_array


class Prefetcher(ABC):
    """Observation/prediction interface over line addresses."""

    @abstractmethod
    def observe(self, line_addr: int, was_hit: bool) -> list[int]:
        """See one demand access; return line addresses to prefetch."""


class NextLinePrefetcher(Prefetcher):
    """Fetch line+1 on every demand miss."""

    def __init__(self, line_bytes: int = 64, degree: int = 1) -> None:
        if line_bytes < 1 or degree < 1:
            raise ValueError("bad prefetcher parameters")
        self.line_bytes = line_bytes
        self.degree = degree

    def observe(self, line_addr: int, was_hit: bool) -> list[int]:
        if was_hit:
            return []
        return [
            line_addr + self.line_bytes * k
            for k in range(1, self.degree + 1)
        ]


class StreamPrefetcher(Prefetcher):
    """Stride-stream detector with confirmation and prefetch degree.

    Tracks up to ``n_streams`` candidate streams; a stream whose stride
    repeats ``confirm`` times starts issuing ``degree`` lines ahead.
    """

    def __init__(
        self,
        line_bytes: int = 64,
        n_streams: int = 8,
        confirm: int = 2,
        degree: int = 4,
    ) -> None:
        if min(line_bytes, n_streams, confirm, degree) < 1:
            raise ValueError("bad prefetcher parameters")
        self.line_bytes = line_bytes
        self.n_streams = n_streams
        self.confirm = confirm
        self.degree = degree
        # Each stream: [last_addr, stride, confidence, lru_stamp]
        self._streams: list[list[int]] = []
        self._clock = 0

    def observe(self, line_addr: int, was_hit: bool) -> list[int]:
        self._clock += 1
        # Match an existing stream by predicted next address (within
        # one stride of its last address).
        for stream in self._streams:
            last, stride, confidence, _ = stream
            delta = line_addr - last
            if delta == 0:
                stream[3] = self._clock
                return []
            if stride != 0 and delta == stride:
                stream[0] = line_addr
                stream[2] = confidence + 1
                stream[3] = self._clock
                if stream[2] >= self.confirm:
                    return [
                        line_addr + stride * k
                        for k in range(1, self.degree + 1)
                    ]
                return []
            if stride == 0 and abs(delta) <= 16 * self.line_bytes:
                stream[1] = delta
                stream[0] = line_addr
                stream[2] = 1
                stream[3] = self._clock
                return []
        # New candidate stream (evict LRU if full).
        if len(self._streams) >= self.n_streams:
            lru = min(range(len(self._streams)), key=lambda i: self._streams[i][3])
            self._streams.pop(lru)
        self._streams.append([line_addr, 0, 0, self._clock])
        return []


@dataclass
class PrefetchReport:
    demand_accesses: int
    demand_misses: int
    baseline_misses: int
    prefetches_issued: int
    useful_prefetches: int

    @property
    def coverage(self) -> float:
        """Fraction of baseline misses eliminated."""
        if self.baseline_misses == 0:
            return float("nan")
        return 1.0 - self.demand_misses / self.baseline_misses

    @property
    def accuracy(self) -> float:
        """Fraction of issued prefetches that were used."""
        if self.prefetches_issued == 0:
            return float("nan")
        return self.useful_prefetches / self.prefetches_issued

    def energy_overhead_j(self, energy_per_fill_j: float = 2e-9) -> float:
        """Wasted fill energy from inaccurate prefetches."""
        if energy_per_fill_j < 0:
            raise ValueError("energy must be non-negative")
        useless = self.prefetches_issued - self.useful_prefetches
        return useless * energy_per_fill_j


def prefetched_run(
    addresses: np.ndarray,
    config: CacheConfig = CacheConfig(size_bytes=32 * 1024, associativity=8),
    prefetcher: Optional[Prefetcher] = None,
) -> PrefetchReport:
    """Run a trace through (cache + prefetcher) and score it.

    The baseline miss count comes from an identical cache without
    prefetching.  Usefulness is tracked by marking prefetched lines and
    crediting the first demand hit on each.
    """
    addrs = address_array(addresses)
    baseline = Cache(config)
    baseline_stats = baseline.run_trace(addrs)

    cache = Cache(config)
    pf = prefetcher if prefetcher is not None else StreamPrefetcher(
        line_bytes=config.line_bytes
    )
    line_mask = ~(config.line_bytes - 1)
    prefetched_pending: set[int] = set()
    issued = 0
    useful = 0
    misses = 0
    for a in addrs.tolist():
        line = a & line_mask
        hit = cache.access(a)
        if not hit:
            misses += 1
        elif line in prefetched_pending:
            useful += 1
            prefetched_pending.discard(line)
        for target in pf.observe(line, hit):
            if target < 0:
                continue
            tline = target & line_mask
            # Install without counting stats as demand traffic.
            if not cache.access(tline):
                issued += 1
                prefetched_pending.add(tline)
    return PrefetchReport(
        demand_accesses=len(addrs),
        demand_misses=misses,
        baseline_misses=baseline_stats.misses,
        prefetches_issued=issued,
        useful_prefetches=useful,
    )


def prefetcher_comparison(
    n: int = 20_000,
) -> dict[str, dict[str, float]]:
    """Coverage/accuracy of each prefetcher on streaming vs random
    traces — the expected shape: streams love prefetching, random
    traffic defeats it (and wastes energy)."""
    from ..processor.program import random_addresses, sequential_addresses

    traces = {
        "sequential": sequential_addresses(n, stride=64),
        "strided": sequential_addresses(n, stride=256),
        "random": random_addresses(n, footprint_bytes=1 << 26, rng=0),
    }
    out: dict[str, dict[str, float]] = {}
    for tname, trace in traces.items():
        for pname, maker in (
            ("next_line", lambda: NextLinePrefetcher()),
            ("stream", lambda: StreamPrefetcher()),
        ):
            report = prefetched_run(trace, prefetcher=maker())
            out[f"{tname}/{pname}"] = {
                "coverage": report.coverage,
                "accuracy": report.accuracy,
                "wasted_fill_j": report.energy_overhead_j(),
            }
    return out
