"""DRAM bank/row-buffer timing and energy model.

"Memory and storage systems consume an increasing fraction of the total
data center power budget, which one might combat with new interfaces
(beyond the JEDEC standards)" (Section 2.1).  This model captures the
JEDEC-shaped behaviour those new interfaces would replace: banked arrays,
open-row policy, activate/precharge energy dominating streaming reads,
and a refresh tax that grows with density.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..core.energy import EnergyLedger
from .cache import address_array


@dataclass(frozen=True)
class DRAMConfig:
    """Timing (in ns) and energy (J) parameters, DDR3-1600-like."""

    n_banks: int = 8
    row_bytes: int = 8192
    t_rcd_ns: float = 13.75  # activate -> column
    t_cas_ns: float = 13.75  # column -> data
    t_rp_ns: float = 13.75  # precharge
    energy_activate_j: float = 2.0e-9
    energy_rw_j: float = 1.0e-9  # column read/write burst
    energy_precharge_j: float = 1.0e-9
    background_power_w: float = 0.15  # per-rank idle/refresh power
    open_row_policy: bool = True

    def __post_init__(self) -> None:
        if self.n_banks < 1:
            raise ValueError("need at least one bank")
        if self.row_bytes < 1:
            raise ValueError("row_bytes must be positive")
        if min(self.t_rcd_ns, self.t_cas_ns, self.t_rp_ns) < 0:
            raise ValueError("timings must be non-negative")
        if min(self.energy_activate_j, self.energy_rw_j,
               self.energy_precharge_j, self.background_power_w) < 0:
            raise ValueError("energies must be non-negative")


@dataclass
class DRAMStats:
    accesses: int = 0
    row_hits: int = 0
    row_misses: int = 0
    row_conflicts: int = 0  # miss requiring precharge of an open row

    @property
    def row_hit_rate(self) -> float:
        if self.accesses == 0:
            return float("nan")
        return self.row_hits / self.accesses


class DRAMBankModel:
    """Open-row DRAM model: per-access latency depends on the row state.

    * row hit: t_cas
    * row empty (closed): t_rcd + t_cas
    * row conflict: t_rp + t_rcd + t_cas
    """

    def __init__(self, config: DRAMConfig = DRAMConfig()) -> None:
        self.config = config
        self._open_rows: np.ndarray = np.full(config.n_banks, -1, dtype=np.int64)
        self.stats = DRAMStats()
        self.ledger = EnergyLedger()
        self._busy_time_ns = 0.0

    def reset(self) -> None:
        self._open_rows[:] = -1
        self.stats = DRAMStats()
        self.ledger = EnergyLedger()
        self._busy_time_ns = 0.0

    def _map(self, address: int) -> tuple[int, int]:
        row_id = address // self.config.row_bytes
        bank = row_id % self.config.n_banks
        row = row_id // self.config.n_banks
        return bank, row

    def access(self, address: int, is_write: bool = False) -> float:
        """One access; returns its latency in ns."""
        if address < 0:
            raise ValueError("address must be non-negative")
        cfg = self.config
        bank, row = self._map(address)
        self.stats.accesses += 1

        open_row = self._open_rows[bank]
        if cfg.open_row_policy and open_row == row:
            latency = cfg.t_cas_ns
            self.stats.row_hits += 1
        elif open_row == -1 or not cfg.open_row_policy:
            latency = cfg.t_rcd_ns + cfg.t_cas_ns
            self.stats.row_misses += 1
            self.ledger.charge("dram.activate", cfg.energy_activate_j)
        else:
            latency = cfg.t_rp_ns + cfg.t_rcd_ns + cfg.t_cas_ns
            self.stats.row_conflicts += 1
            self.ledger.charge("dram.precharge", cfg.energy_precharge_j)
            self.ledger.charge("dram.activate", cfg.energy_activate_j)
        self._open_rows[bank] = row if cfg.open_row_policy else -1

        kind = "write" if is_write else "read"
        self.ledger.charge(f"dram.{kind}", cfg.energy_rw_j, ops=1)
        self._busy_time_ns += latency
        return latency

    def run_trace(
        self, addresses: np.ndarray, writes: Optional[np.ndarray] = None
    ) -> dict[str, float]:
        addrs = address_array(addresses)
        writes_arr = (
            np.zeros(len(addrs), dtype=bool)
            if writes is None
            else np.asarray(writes, dtype=bool)
        )
        if len(writes_arr) != len(addrs):
            raise ValueError("writes must match addresses in length")
        total_ns = 0.0
        for a, w in zip(addrs.tolist(), writes_arr.tolist()):
            total_ns += self.access(a, w)
        background = self.config.background_power_w * total_ns * 1e-9
        self.ledger.charge("dram.background", background)
        return {
            "total_ns": total_ns,
            "mean_latency_ns": total_ns / max(len(addrs), 1),
            "row_hit_rate": self.stats.row_hit_rate,
            "energy_j": self.ledger.total(),
            "energy_per_access_j": self.ledger.total() / max(len(addrs), 1),
        }


def streaming_vs_random_summary(
    n: int = 20000, rng=None
) -> dict[str, dict[str, float]]:
    """The canonical DRAM contrast: sequential streams ride the row
    buffer; random access pays activate+precharge almost every time."""
    from ..processor.program import random_addresses, sequential_addresses

    stream = DRAMBankModel()
    seq = stream.run_trace(sequential_addresses(n, stride=64))
    rand_model = DRAMBankModel()
    rand = rand_model.run_trace(
        random_addresses(n, footprint_bytes=1 << 28, align=64, rng=rng)
    )
    return {"sequential": seq, "random": rand}
