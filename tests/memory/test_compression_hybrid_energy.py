"""Tests for compression, hybrid memory, and the Keckler energy table."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory import (
    HybridConfig,
    HybridMemory,
    PAGE_BYTES,
    bandwidth_energy_savings,
    bdi_compressed_bits,
    communication_vs_computation_series,
    compare_organizations,
    compress_lines,
    effective_capacity_gb,
    energy_table,
    fpc_compressed_bits,
    get_device,
    idle_power_comparison,
    integer_array_data,
    keckler_claim,
    pointer_array_data,
    random_data,
)


class TestKecklerClaim:
    def test_dram_operand_fetch_one_to_two_orders(self):
        # The paper's exact sentence: operand fetch from memory costs
        # "one to two orders of magnitude more energy" than the FMA.
        claim = keckler_claim("45nm")
        assert 10.0 <= claim["ratio_dram"] <= 300.0

    def test_hierarchy_ratios_ordered(self):
        claim = keckler_claim("45nm")
        assert (
            claim["ratio_regfile"]
            < claim["ratio_l1"]
            < claim["ratio_l2"]
            < claim["ratio_l3"]
            < claim["ratio_dram"]
        )

    def test_register_fetch_cheaper_than_op(self):
        assert keckler_claim("45nm")["ratio_regfile"] < 1.0

    def test_movement_energy_linear(self):
        table = energy_table("45nm")
        one = table.movement_energy_j(64, 1.0)
        assert table.movement_energy_j(64, 10.0) == pytest.approx(10 * one)
        assert table.movement_energy_j(128, 1.0) == pytest.approx(2 * one)
        with pytest.raises(ValueError):
            table.movement_energy_j(-1, 1.0)

    def test_ratio_worsens_with_scaling(self):
        # Wires don't scale; compute does => ratio grows across nodes.
        series = communication_vs_computation_series()
        ratios = series["ratio"]
        assert ratios[-1] > ratios[0]

    def test_compute_energy_falls_across_nodes(self):
        older = energy_table("90nm").compute["fma64"]
        newer = energy_table("22nm").compute["fma64"]
        assert newer < older

    def test_unknown_keys(self):
        table = energy_table()
        with pytest.raises(KeyError):
            table.operand_fetch_ratio(op="quantum")
        with pytest.raises(KeyError):
            table.operand_fetch_ratio(source="akashic")


class TestCompression:
    def test_zero_line_highly_compressible(self):
        line = np.zeros(64, dtype=np.uint8)
        assert fpc_compressed_bits(line) < 64
        assert bdi_compressed_bits(line) < 64

    def test_random_data_incompressible(self):
        report_fpc = compress_lines(random_data(4096, rng=0), "fpc")
        report_bdi = compress_lines(random_data(4096, rng=0), "bdi")
        assert report_fpc.ratio < 1.1
        assert report_bdi.ratio < 1.1

    def test_small_ints_compress_well(self):
        data = integer_array_data(4096, magnitude=50, rng=0)
        assert compress_lines(data, "fpc").ratio > 2.0
        assert compress_lines(data, "bdi").ratio > 1.5

    def test_pointers_favor_bdi(self):
        data = pointer_array_data(4096, rng=0)
        bdi = compress_lines(data, "bdi").ratio
        fpc = compress_lines(data, "fpc").ratio
        assert bdi > fpc

    def test_compressed_never_larger_than_raw_plus_tag(self):
        for maker in (integer_array_data, pointer_array_data, random_data):
            data = maker(1024, rng=1)
            for alg, fn in (("fpc", fpc_compressed_bits),
                            ("bdi", bdi_compressed_bits)):
                line = data[:64]
                assert fn(line) <= 64 * 8 + 64  # raw + tag overhead

    @given(st.binary(min_size=64, max_size=64))
    @settings(max_examples=40)
    def test_property_size_bounds(self, raw):
        line = np.frombuffer(raw, dtype=np.uint8)
        for fn in (fpc_compressed_bits, bdi_compressed_bits):
            size = fn(line)
            assert 0 < size <= 64 * 8 + 64

    def test_validation(self):
        with pytest.raises(KeyError):
            compress_lines(np.zeros(64, dtype=np.uint8), "zip")
        with pytest.raises(ValueError):
            compress_lines(np.zeros(60, dtype=np.uint8), "fpc")
        with pytest.raises(ValueError):
            fpc_compressed_bits(np.zeros(3, dtype=np.uint8))
        with pytest.raises(ValueError):
            integer_array_data(6)
        with pytest.raises(ValueError):
            pointer_array_data(12)

    def test_capacity_and_bandwidth_arithmetic(self):
        assert effective_capacity_gb(8.0, 2.0) == pytest.approx(16.0)
        out = bandwidth_energy_savings(
            ratio=2.0, link_energy_per_bit_j=1e-12, bits_moved_raw=1e9
        )
        assert out["saving_j"] > 0
        assert 0 < out["saving_fraction"] < 0.5 + 1e-9
        with pytest.raises(ValueError):
            effective_capacity_gb(8.0, 0.5)
        with pytest.raises(ValueError):
            bandwidth_energy_savings(0.5, 1e-12, 1e9)


class TestHybridMemory:
    def make(self, dram_pages=4):
        return HybridMemory(
            HybridConfig(dram_pages=dram_pages, nvm_pages=64,
                         migration_threshold=2, migration_cost_accesses=4)
        )

    def test_hot_page_promoted(self):
        mem = self.make()
        addr = 3 * PAGE_BYTES
        assert mem.access(addr) is False
        assert mem.access(addr) is False  # hits threshold, promotes
        assert mem.access(addr) is True  # now in fast tier
        assert mem.result.migrations == 1

    def test_lru_demotion(self):
        mem = self.make(dram_pages=1)
        for page in (0, 1):
            for _ in range(2):
                mem.access(page * PAGE_BYTES)
        # page 1 promoted second, evicting page 0.
        assert mem.access(1 * PAGE_BYTES) is True
        assert mem.access(0 * PAGE_BYTES) is False

    def test_no_fast_tier_never_hits(self):
        mem = HybridMemory(HybridConfig(dram_pages=0, nvm_pages=16))
        for _ in range(10):
            mem.access(0)
        assert mem.result.fast_hits == 0

    def test_writes_tracked_for_endurance(self):
        mem = self.make(dram_pages=0)
        for i in range(5):
            mem.access(i * 64, is_write=True)
        assert mem.result.nvm_writes == 5

    def test_addresses_from_2_63_run_as_unsigned(self):
        gen = np.random.default_rng(4)
        addrs = gen.integers(0, 16 * PAGE_BYTES, 500).astype(np.uint64)
        writes = gen.random(500) < 0.3
        low = self.make().run_trace(addrs, writes)
        high = self.make().run_trace(addrs + np.uint64(2**63), writes)
        assert high == low
        assert low.migrations > 0

    @pytest.mark.parametrize("addrs", [np.array([64, -64]),
                                       np.array([0.0, 64.0])],
                             ids=["negative", "float"])
    def test_a_negative_or_float_address_is_a_value_error(self, addrs):
        with pytest.raises(ValueError, match="address"):
            self.make().run_trace(addrs)

    def test_organization_ordering(self):
        out = compare_organizations(n_accesses=6000, rng=0)
        # Latency: pure DRAM <= hybrid <= pure NVM.
        assert (
            out["pure_dram"]["mean_latency_ns"]
            <= out["hybrid"]["mean_latency_ns"]
            <= out["pure_nvm"]["mean_latency_ns"]
        )
        # Hybrid absorbs most writes in DRAM vs pure NVM.
        assert out["hybrid"]["nvm_writes"] < out["pure_nvm"]["nvm_writes"]

    def test_idle_power_headline(self):
        out = idle_power_comparison(capacity_gb=256.0)
        assert out["pure_nvm_w"] < out["hybrid_w"] < out["pure_dram_w"]
        assert out["hybrid_saving_fraction"] > 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            HybridConfig(dram_pages=-1, nvm_pages=4)
        with pytest.raises(ValueError):
            HybridConfig(dram_pages=1, nvm_pages=4, migration_threshold=0)
        mem = self.make()
        with pytest.raises(ValueError):
            mem.access(-1)
        with pytest.raises(ValueError):
            idle_power_comparison(0.0)
        with pytest.raises(ValueError):
            idle_power_comparison(10.0, dram_fraction=2.0)

    def test_reset(self):
        mem = self.make()
        mem.access(0)
        mem.reset()
        assert mem.result.accesses == 0
