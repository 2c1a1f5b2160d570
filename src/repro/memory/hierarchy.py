"""Multi-level memory hierarchy with latency and energy accounting.

Composes :class:`repro.memory.cache.Cache` levels over a DRAM backstop,
computing average memory access time (AMAT) and charging every access to
an :class:`~repro.core.energy.EnergyLedger` — the machinery behind the
paper's "memory hierarchies ... usually optimized for performance first"
critique, experiment E17 (energy-efficient hierarchies) and the
``memory`` trace-replay sink.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from ..core.energy import EnergyLedger
from .cache import Cache, CacheConfig, address_array


@dataclass(frozen=True)
class LevelSpec:
    """One cache level plus its latency/energy parameters."""

    name: str
    config: CacheConfig
    latency_cycles: int
    energy_per_access_j: float

    def __post_init__(self) -> None:
        if self.latency_cycles < 0:
            raise ValueError("latency must be non-negative")
        if self.energy_per_access_j < 0:
            raise ValueError("energy must be non-negative")


@dataclass(frozen=True)
class MemorySpec:
    """The DRAM/NVM backstop."""

    name: str = "dram"
    latency_cycles: int = 200
    energy_per_access_j: float = 16e-9

    def __post_init__(self) -> None:
        if self.latency_cycles < 0 or self.energy_per_access_j < 0:
            raise ValueError("latency and energy must be non-negative")


#: A typical three-level 2012-era hierarchy.
def default_hierarchy() -> list[LevelSpec]:
    return [
        LevelSpec(
            "l1",
            CacheConfig(size_bytes=32 * 1024, associativity=8),
            latency_cycles=4,
            energy_per_access_j=10e-12,
        ),
        LevelSpec(
            "l2",
            CacheConfig(size_bytes=256 * 1024, associativity=8),
            latency_cycles=12,
            energy_per_access_j=40e-12,
        ),
        LevelSpec(
            "l3",
            CacheConfig(size_bytes=8 * 1024 * 1024, associativity=16),
            latency_cycles=40,
            energy_per_access_j=100e-12,
        ),
    ]


@dataclass
class HierarchyResult:
    """Aggregate statistics from one trace run."""

    accesses: int
    total_cycles: int
    level_hits: dict[str, int]
    memory_accesses: int
    ledger: EnergyLedger = field(default_factory=EnergyLedger)

    @property
    def amat_cycles(self) -> float:
        if self.accesses == 0:
            return float("nan")
        return self.total_cycles / self.accesses

    @property
    def energy_per_access_j(self) -> float:
        if self.accesses == 0:
            return float("nan")
        return self.ledger.total() / self.accesses


class MemoryHierarchy:
    """Non-inclusive multi-level hierarchy (fill on miss at every level).

    An access probes the levels in order until one hits.  Writebacks
    charge one access at the next level but are never sent there, so a
    cache's state depends only on the ordered accesses reaching it, and
    :meth:`run_trace` runs one level at a time with :meth:`Cache.misses`.
    """

    def __init__(
        self,
        levels: Optional[Sequence[LevelSpec]] = None,
        memory: MemorySpec = MemorySpec(),
    ) -> None:
        self.specs = list(levels) if levels is not None else default_hierarchy()
        if not self.specs:
            raise ValueError("need at least one cache level")
        names = [s.name for s in self.specs]
        if len(set(names)) != len(names):
            raise ValueError("level names must be unique")
        self.memory = memory
        self.caches = [Cache(s.config) for s in self.specs]

    def reset(self) -> None:
        for cache in self.caches:
            cache.reset()

    def run_trace(
        self,
        addresses: np.ndarray,
        writes: Optional[np.ndarray] = None,
    ) -> HierarchyResult:
        """Each level filters the misses of the one above; a level's
        latency, energy and writebacks are charged once per trace."""
        addrs = address_array(addresses)
        if writes is None:
            writes = np.zeros(len(addrs), dtype=bool)
        accesses = len(addrs)
        ledger = EnergyLedger()
        level_hits = {}
        total_cycles = 0
        below = [s.energy_per_access_j for s in self.specs[1:]]
        below.append(self.memory.energy_per_access_j)
        for spec, cache, writeback_j in zip(self.specs, self.caches, below):
            reached = len(addrs)
            before_wb = cache.stats.writebacks
            addrs, writes = cache.misses(addrs, writes)
            level_hits[spec.name] = reached - len(addrs)
            total_cycles += spec.latency_cycles * reached
            if reached:
                ledger.charge(f"cache.{spec.name}",
                              spec.energy_per_access_j * reached, ops=reached)
            wb = cache.stats.writebacks - before_wb
            if wb:
                ledger.charge(f"cache.{spec.name}.writeback", writeback_j * wb)
        memory_accesses = len(addrs)
        total_cycles += self.memory.latency_cycles * memory_accesses
        if memory_accesses:
            ledger.charge(
                f"memory.{self.memory.name}",
                self.memory.energy_per_access_j * memory_accesses,
                ops=memory_accesses,
            )
        return HierarchyResult(
            accesses=accesses,
            total_cycles=total_cycles,
            level_hits=level_hits,
            memory_accesses=memory_accesses,
            ledger=ledger,
        )


def amat(
    hit_rates: Sequence[float],
    latencies: Sequence[float],
    memory_latency: float,
) -> float:
    """Closed-form AMAT for per-level *local* hit rates.

    AMAT = L1_lat + m1*(L2_lat + m2*(L3_lat + m3*mem_lat)) ... the
    classic recursive formula; cross-checks the simulator.
    """
    if len(hit_rates) != len(latencies):
        raise ValueError("hit_rates and latencies must match in length")
    for h in hit_rates:
        if not 0.0 <= h <= 1.0:
            raise ValueError("hit rates must be in [0, 1]")
    if any(l < 0 for l in latencies) or memory_latency < 0:
        raise ValueError("latencies must be non-negative")
    total = 0.0
    miss_product = 1.0
    for h, lat in zip(hit_rates, latencies):
        total += miss_product * lat
        miss_product *= 1.0 - h
    total += miss_product * memory_latency
    return total


def energy_per_access(
    hit_rates: Sequence[float],
    energies: Sequence[float],
    memory_energy: float,
) -> float:
    """Closed-form expected energy per access (same recursion as AMAT)."""
    if len(hit_rates) != len(energies):
        raise ValueError("hit_rates and energies must match in length")
    total = 0.0
    miss_product = 1.0
    for h, e in zip(hit_rates, energies):
        if not 0.0 <= h <= 1.0:
            raise ValueError("hit rates must be in [0, 1]")
        if e < 0:
            raise ValueError("energies must be non-negative")
        total += miss_product * e
        miss_product *= 1.0 - h
    if memory_energy < 0:
        raise ValueError("memory energy must be non-negative")
    total += miss_product * memory_energy
    return total
