"""Tests for the memory hierarchy and DRAM models."""

import numpy as np
import pytest

from repro.memory import (
    CacheConfig,
    DRAMBankModel,
    DRAMConfig,
    LevelSpec,
    MemoryHierarchy,
    MemorySpec,
    amat,
    energy_per_access,
    streaming_vs_random_summary,
)
from repro.processor import (
    random_addresses,
    sequential_addresses,
    zipf_addresses,
)


class TestAMATFormula:
    def test_single_level(self):
        # 90% hits at 4 cycles, misses pay 4 + 200.
        assert amat([0.9], [4.0], 200.0) == pytest.approx(4.0 + 0.1 * 200.0)

    def test_two_levels(self):
        value = amat([0.9, 0.5], [4.0, 12.0], 200.0)
        assert value == pytest.approx(4.0 + 0.1 * (12.0 + 0.5 * 200.0))

    def test_perfect_cache(self):
        assert amat([1.0], [4.0], 200.0) == pytest.approx(4.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            amat([0.9], [4.0, 12.0], 200.0)
        with pytest.raises(ValueError):
            amat([1.5], [4.0], 200.0)
        with pytest.raises(ValueError):
            amat([0.5], [-1.0], 200.0)

    def test_energy_formula_mirrors_amat(self):
        e = energy_per_access([0.5], [10e-12], 1e-9)
        assert e == pytest.approx(10e-12 + 0.5 * 1e-9)
        with pytest.raises(ValueError):
            energy_per_access([0.5], [-1.0], 1e-9)


class TestMemoryHierarchy:
    def test_small_working_set_stays_in_l1(self):
        h = MemoryHierarchy()
        addrs = np.tile(sequential_addresses(64, stride=64), 20)
        res = h.run_trace(addrs)
        assert res.level_hits["l1"] > 0.9 * res.accesses
        assert res.memory_accesses <= 64

    def test_huge_random_set_reaches_memory(self):
        h = MemoryHierarchy()
        addrs = random_addresses(5000, footprint_bytes=1 << 30, rng=0)
        res = h.run_trace(addrs)
        assert res.memory_accesses > 0.8 * res.accesses
        assert res.amat_cycles > 150  # dominated by DRAM latency

    def test_energy_tracks_hit_level(self):
        h = MemoryHierarchy()
        near = h.run_trace(np.tile(sequential_addresses(16, stride=64), 50))
        h2 = MemoryHierarchy()
        far = h2.run_trace(random_addresses(800, footprint_bytes=1 << 30, rng=1))
        assert far.energy_per_access_j > 10 * near.energy_per_access_j

    def test_simulated_amat_matches_closed_form(self):
        h = MemoryHierarchy()
        addrs = zipf_addresses(20000, unique=50000, rng=2)
        res = h.run_trace(addrs)
        # Recompute closed-form AMAT from simulated local hit rates.
        hits = [res.level_hits[s.name] for s in h.specs]
        reached = []
        remaining = res.accesses
        local_rates = []
        for hcount in hits:
            local_rates.append(hcount / remaining if remaining else 0.0)
            remaining -= hcount
        closed = amat(
            local_rates,
            [s.latency_cycles for s in h.specs],
            h.memory.latency_cycles,
        )
        assert res.amat_cycles == pytest.approx(closed, rel=1e-9)

    def test_writebacks_charge_energy(self):
        h = MemoryHierarchy()
        # Write-heavy thrash to force dirty evictions.
        addrs = np.tile(sequential_addresses(2048, stride=64), 3)
        writes = np.ones(len(addrs), dtype=bool)
        res = h.run_trace(addrs, writes)
        assert res.ledger.total("cache.l1.writeback") > 0

    def test_addresses_from_2_63_run_as_unsigned(self):
        addrs = zipf_addresses(3000, unique=4096, rng=3).astype(np.uint64)
        writes = np.random.default_rng(3).random(len(addrs)) < 0.3
        low = MemoryHierarchy().run_trace(addrs, writes)
        high = MemoryHierarchy().run_trace(addrs + np.uint64(2**63), writes)
        assert (high.level_hits, high.memory_accesses, high.total_cycles) \
            == (low.level_hits, low.memory_accesses, low.total_cycles)
        assert high.ledger.total() == low.ledger.total()

    def test_validation(self):
        with pytest.raises(ValueError):
            MemoryHierarchy(levels=[])
        spec = LevelSpec(
            "x", CacheConfig(size_bytes=1024, associativity=2), 1, 1e-12
        )
        with pytest.raises(ValueError):
            MemoryHierarchy(levels=[spec, spec])  # duplicate names
        with pytest.raises(ValueError):
            LevelSpec("bad", CacheConfig(size_bytes=1024, associativity=2),
                      latency_cycles=-1, energy_per_access_j=0.0)
        with pytest.raises(ValueError):
            MemorySpec(latency_cycles=-5)
        h = MemoryHierarchy()
        with pytest.raises(ValueError):
            h.run_trace(np.zeros(2, dtype=np.int64),
                        writes=np.zeros(3, dtype=bool))


class TestDRAM:
    def test_sequential_rides_row_buffer(self):
        model = DRAMBankModel()
        out = model.run_trace(sequential_addresses(4000, stride=64))
        assert out["row_hit_rate"] > 0.95

    def test_random_pays_activates(self):
        model = DRAMBankModel()
        out = model.run_trace(
            random_addresses(4000, footprint_bytes=1 << 28, align=64, rng=0)
        )
        assert out["row_hit_rate"] < 0.1
        seq = DRAMBankModel().run_trace(sequential_addresses(4000, stride=64))
        assert out["mean_latency_ns"] > 2 * seq["mean_latency_ns"]
        assert out["energy_per_access_j"] > 2 * seq["energy_per_access_j"]

    def test_closed_row_policy_never_hits(self):
        model = DRAMBankModel(DRAMConfig(open_row_policy=False))
        out = model.run_trace(sequential_addresses(1000, stride=64))
        assert model.stats.row_hits == 0

    def test_latency_components(self):
        cfg = DRAMConfig()
        model = DRAMBankModel(cfg)
        first = model.access(0)  # closed row -> RCD + CAS
        second = model.access(64)  # same row -> CAS
        assert first == pytest.approx(cfg.t_rcd_ns + cfg.t_cas_ns)
        assert second == pytest.approx(cfg.t_cas_ns)
        # conflict: same bank, different row
        conflict = model.access(cfg.row_bytes * cfg.n_banks)
        assert conflict == pytest.approx(
            cfg.t_rp_ns + cfg.t_rcd_ns + cfg.t_cas_ns
        )

    def test_summary_contrast(self):
        out = streaming_vs_random_summary(n=2000, rng=0)
        assert (
            out["random"]["mean_latency_ns"]
            > out["sequential"]["mean_latency_ns"]
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            DRAMConfig(n_banks=0)
        with pytest.raises(ValueError):
            DRAMConfig(t_cas_ns=-1.0)
        model = DRAMBankModel()
        with pytest.raises(ValueError):
            model.access(-5)

    def test_reset(self):
        model = DRAMBankModel()
        model.access(0)
        model.reset()
        assert model.stats.accesses == 0
