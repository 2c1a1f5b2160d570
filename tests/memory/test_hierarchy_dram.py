"""Tests for the memory hierarchy and DRAM models.

``MemoryHierarchy.run_trace`` runs one level at a time, each level
filtering the previous level's misses with ``Cache.misses``.  The
reference below is the per-access walk it replaced, one
``Cache.access`` call per level per access; random hierarchies of 1–3
small levels under every write policy, with any write fraction, must
give equal hits, cycles, memory accesses, ledger accounts and ops, and
joules to rounding.  The hypothesis differential test does not shrink
a failure, so it reports the example as generated.
"""

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from repro.core.energy import EnergyLedger
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


def reference_run_trace(h, addresses, writes=None):
    """The per-access hierarchy walk: each access probes the levels in
    order until one hits, charging every level it reaches one access and
    a dirty eviction one access of the level below."""
    addrs = np.asarray(addresses, dtype=np.uint64)
    if writes is None:
        writes = np.zeros(len(addrs), dtype=bool)
    below = [s.energy_per_access_j for s in h.specs[1:]]
    below.append(h.memory.energy_per_access_j)
    ledger = EnergyLedger()
    level_hits = {s.name: 0 for s in h.specs}
    total_cycles = 0
    memory_accesses = 0
    for addr, w in zip(addrs.tolist(), np.asarray(writes, bool).tolist()):
        for spec, cache, writeback_j in zip(h.specs, h.caches, below):
            before_wb = cache.stats.writebacks
            hit = cache.access(addr, is_write=w)
            total_cycles += spec.latency_cycles
            ledger.charge(f"cache.{spec.name}", spec.energy_per_access_j,
                          ops=1)
            if cache.stats.writebacks - before_wb:
                ledger.charge(f"cache.{spec.name}.writeback", writeback_j)
            if hit:
                level_hits[spec.name] += 1
                break
        else:
            memory_accesses += 1
            total_cycles += h.memory.latency_cycles
            ledger.charge(f"memory.{h.memory.name}",
                          h.memory.energy_per_access_j, ops=1)
    return level_hits, total_cycles, memory_accesses, ledger


@st.composite
def hierarchy_traces(draw):
    """1–3 small levels, each under any write policy, and a trace over a
    footprint a few times the largest level, with any write fraction."""
    specs = []
    for i in range(draw(st.integers(1, 3))):
        line = draw(st.sampled_from([16, 64]))
        assoc = draw(st.sampled_from([1, 2, 4]))
        sets = draw(st.sampled_from([1, 2, 4, 8]))
        specs.append(LevelSpec(
            f"l{i + 1}",
            CacheConfig(size_bytes=line * assoc * sets, line_bytes=line,
                        associativity=assoc, write_back=draw(st.booleans()),
                        write_allocate=draw(st.booleans())),
            latency_cycles=draw(st.integers(0, 40)),
            energy_per_access_j=draw(st.sampled_from([0.0, 1e-12, 3e-11])),
        ))
    memory = MemorySpec(latency_cycles=draw(st.integers(0, 200)),
                        energy_per_access_j=draw(st.sampled_from(
                            [0.0, 7e-10, 1.6e-8])))
    n = draw(st.integers(0, 300))
    footprint = draw(st.sampled_from([256, 2048, 16384]))
    addrs = np.array(draw(st.lists(st.integers(0, footprint - 1),
                                   min_size=n, max_size=n)), dtype=np.uint64)
    write_fraction = draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]))
    writes = np.array(draw(st.lists(st.floats(0, 1), min_size=n,
                                    max_size=n))) < write_fraction
    return specs, memory, addrs, writes


@settings(max_examples=200,
          phases=tuple(p for p in Phase if p is not Phase.shrink))
@given(hierarchy_traces())
def test_run_trace_matches_the_per_access_walk(case):
    specs, memory, addrs, writes = case
    got = MemoryHierarchy(specs, memory).run_trace(addrs, writes)
    hits, cycles, mem, ledger = reference_run_trace(
        MemoryHierarchy(specs, memory), addrs, writes)
    assert got.accesses == len(addrs)
    assert (got.level_hits, got.total_cycles, got.memory_accesses) \
        == (hits, cycles, mem)
    joules, want = got.ledger.as_dict(), ledger.as_dict()
    assert sorted(joules) == sorted(want)
    assert {a: got.ledger.ops(a) for a in joules} \
        == {a: ledger.ops(a) for a in want}
    for account, energy in want.items():
        assert joules[account] == pytest.approx(energy, rel=1e-12)


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

    def test_addresses_from_2_63_run_as_unsigned(self):
        addrs = random_addresses(2000, footprint_bytes=1 << 20, align=64,
                                 rng=6).astype(np.uint64)
        writes = np.random.default_rng(6).random(len(addrs)) < 0.3
        low = DRAMBankModel().run_trace(addrs, writes)
        high = DRAMBankModel().run_trace(addrs + np.uint64(2**63), writes)
        assert high == low
        assert 0 < low["row_hit_rate"] < 1

    @pytest.mark.parametrize("addrs", [np.array([64, -64]),
                                       np.array([0.0, 64.0])],
                             ids=["negative", "float"])
    def test_a_negative_or_float_address_is_a_value_error(self, addrs):
        with pytest.raises(ValueError, match="address"):
            DRAMBankModel().run_trace(addrs)

    def test_reset(self):
        model = DRAMBankModel()
        model.access(0)
        model.reset()
        assert model.stats.accesses == 0
