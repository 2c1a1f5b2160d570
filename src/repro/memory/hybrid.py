"""Hybrid DRAM + NVM memory/storage stack (paper Section 2.3).

"Emerging non-volatile storage technologies ... promise to disrupt the
current design dichotomy between volatile memory and non-volatile,
long-term storage."  This module models the canonical response: a small
DRAM cache/tier in front of a large NVM tier, with hot-page placement
and migration, compared against pure-DRAM and pure-NVM organizations on
latency, power, and endurance pressure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..core.rng import RngLike, resolve_rng
from .cache import address_array
from .nvm import NVMDevice, get_device

PAGE_BYTES = 4096


@dataclass(frozen=True)
class HybridConfig:
    """A two-tier main memory."""

    dram_pages: int
    nvm_pages: int
    fast: NVMDevice = None  # type: ignore[assignment]
    slow: NVMDevice = None  # type: ignore[assignment]
    migration_threshold: int = 4  # accesses before promotion
    migration_cost_accesses: int = 64  # page move = this many line ops

    def __post_init__(self) -> None:
        if self.dram_pages < 0 or self.nvm_pages < 1:
            raise ValueError("bad tier sizes")
        if self.migration_threshold < 1 or self.migration_cost_accesses < 0:
            raise ValueError("bad migration parameters")
        object.__setattr__(
            self, "fast", self.fast if self.fast is not None else get_device("dram")
        )
        object.__setattr__(
            self, "slow", self.slow if self.slow is not None else get_device("pcm")
        )


@dataclass
class HybridResult:
    accesses: int
    fast_hits: int
    migrations: int
    total_latency_ns: float
    total_energy_j: float
    nvm_writes: int

    @property
    def fast_hit_rate(self) -> float:
        return self.fast_hits / self.accesses if self.accesses else float("nan")

    @property
    def mean_latency_ns(self) -> float:
        return (
            self.total_latency_ns / self.accesses if self.accesses else float("nan")
        )

    @property
    def energy_per_access_j(self) -> float:
        return (
            self.total_energy_j / self.accesses if self.accesses else float("nan")
        )


class HybridMemory:
    """Hot-page-promoting two-tier memory.

    Pages live in the slow tier by default; pages whose access counter
    crosses ``migration_threshold`` are promoted into the fast tier
    (LRU eviction, demotion writes back if dirty).  Line-granularity
    latency/energy are taken from the tier devices; migrations charge
    ``migration_cost_accesses`` line transfers on both tiers.
    """

    def __init__(self, config: HybridConfig) -> None:
        self.config = config
        self._in_fast: dict[int, int] = {}  # page -> last-use stamp
        self._dirty: set[int] = set()
        self._counts: dict[int, int] = {}
        self._clock = 0
        self.result = HybridResult(0, 0, 0, 0.0, 0.0, 0)

    def reset(self) -> None:
        self._in_fast.clear()
        self._dirty.clear()
        self._counts.clear()
        self._clock = 0
        self.result = HybridResult(0, 0, 0, 0.0, 0.0, 0)

    def _charge(self, device: NVMDevice, is_write: bool, n: int = 1) -> None:
        if is_write:
            self.result.total_latency_ns += device.write_latency_ns * n
            self.result.total_energy_j += device.write_energy_j * n
        else:
            self.result.total_latency_ns += device.read_latency_ns * n
            self.result.total_energy_j += device.read_energy_j * n

    def access(self, address: int, is_write: bool = False) -> bool:
        """Access one line; returns True if served from the fast tier."""
        if address < 0:
            raise ValueError("address must be non-negative")
        cfg = self.config
        page = address // PAGE_BYTES
        self._clock += 1
        self.result.accesses += 1

        if page in self._in_fast:
            self._in_fast[page] = self._clock
            if is_write:
                self._dirty.add(page)
            self._charge(cfg.fast, is_write)
            self.result.fast_hits += 1
            return True

        self._charge(cfg.slow, is_write)
        if is_write:
            self.result.nvm_writes += 1
        self._counts[page] = self._counts.get(page, 0) + 1
        if cfg.dram_pages > 0 and self._counts[page] >= cfg.migration_threshold:
            self._promote(page)
        return False

    def _promote(self, page: int) -> None:
        cfg = self.config
        if len(self._in_fast) >= cfg.dram_pages:
            victim = min(self._in_fast, key=self._in_fast.get)  # LRU
            del self._in_fast[victim]
            if victim in self._dirty:
                self._dirty.discard(victim)
                # Demotion writeback into NVM.
                self._charge(cfg.slow, True, cfg.migration_cost_accesses)
                self.result.nvm_writes += cfg.migration_cost_accesses
        # Copy page up: read slow, write fast.
        self._charge(cfg.slow, False, cfg.migration_cost_accesses)
        self._charge(cfg.fast, True, cfg.migration_cost_accesses)
        self._in_fast[page] = self._clock
        self._counts[page] = 0
        self.result.migrations += 1

    def run_trace(
        self, addresses: np.ndarray, writes: Optional[np.ndarray] = None
    ) -> HybridResult:
        addrs = address_array(addresses)
        writes_arr = (
            np.zeros(len(addrs), dtype=bool)
            if writes is None
            else np.asarray(writes, dtype=bool)
        )
        if len(writes_arr) != len(addrs):
            raise ValueError("writes must match addresses in length")
        for a, w in zip(addrs.tolist(), writes_arr.tolist()):
            self.access(a, w)
        return self.result


def idle_power_comparison(
    capacity_gb: float,
    dram_fraction: float = 0.125,
) -> dict[str, float]:
    """Idle (refresh/standby) power: pure DRAM vs hybrid vs pure NVM.

    The headline NVM win: PCM needs no refresh, so a mostly-NVM memory
    slashes the idle power that dominates datacenter memory budgets.
    """
    if capacity_gb <= 0:
        raise ValueError("capacity must be positive")
    if not 0.0 <= dram_fraction <= 1.0:
        raise ValueError("dram_fraction must be in [0, 1]")
    dram = get_device("dram")
    pcm = get_device("pcm")
    pure_dram = dram.idle_power_w_per_gb * capacity_gb
    pure_nvm = pcm.idle_power_w_per_gb * capacity_gb
    hybrid = (
        dram.idle_power_w_per_gb * capacity_gb * dram_fraction
        + pcm.idle_power_w_per_gb * capacity_gb * (1 - dram_fraction)
    )
    return {
        "pure_dram_w": pure_dram,
        "hybrid_w": hybrid,
        "pure_nvm_w": pure_nvm,
        "hybrid_saving_fraction": 1.0 - hybrid / pure_dram,
    }


def compare_organizations(
    n_accesses: int = 30000,
    working_pages: int = 512,
    hot_fraction: float = 0.9,
    write_fraction: float = 0.3,
    dram_pages: int = 64,
    rng: RngLike = 0,
) -> dict[str, dict[str, float]]:
    """Run the same skewed trace against pure-DRAM, pure-NVM, and hybrid.

    The expected shape (experiment E11/E17 support): hybrid approaches
    pure-DRAM latency at a fraction of its idle power, while slashing
    NVM write pressure versus pure-NVM.
    """
    gen = resolve_rng(rng)
    hot_pages = max(1, working_pages // 16)
    hot = gen.random(n_accesses) < hot_fraction
    pages = np.where(
        hot,
        gen.integers(0, hot_pages, size=n_accesses),
        gen.integers(0, working_pages, size=n_accesses),
    )
    addrs = pages * PAGE_BYTES + (
        gen.integers(0, PAGE_BYTES // 64, size=n_accesses) * 64
    )
    writes = gen.random(n_accesses) < write_fraction

    organizations = {
        "pure_dram": HybridConfig(
            dram_pages=working_pages, nvm_pages=working_pages,
            slow=get_device("dram"),
        ),
        "hybrid": HybridConfig(dram_pages=dram_pages, nvm_pages=working_pages),
        "pure_nvm": HybridConfig(dram_pages=0, nvm_pages=working_pages),
    }
    out: dict[str, dict[str, float]] = {}
    for name, cfg in organizations.items():
        mem = HybridMemory(cfg)
        res = mem.run_trace(addrs, writes)
        out[name] = {
            "mean_latency_ns": res.mean_latency_ns,
            "energy_per_access_j": res.energy_per_access_j,
            "fast_hit_rate": res.fast_hit_rate,
            "nvm_writes": float(res.nvm_writes),
            "migrations": float(res.migrations),
        }
    return out
