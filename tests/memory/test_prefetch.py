"""Tests for the hardware prefetchers."""

import numpy as np
import pytest

from repro.memory import (
    CacheConfig,
    NextLinePrefetcher,
    StreamPrefetcher,
    prefetched_run,
    prefetcher_comparison,
)
from repro.processor import random_addresses, sequential_addresses


class TestNextLine:
    def test_issues_on_miss_only(self):
        pf = NextLinePrefetcher(line_bytes=64)
        assert pf.observe(0, was_hit=True) == []
        assert pf.observe(0, was_hit=False) == [64]

    def test_degree(self):
        pf = NextLinePrefetcher(line_bytes=64, degree=3)
        assert pf.observe(128, was_hit=False) == [192, 256, 320]

    def test_validation(self):
        with pytest.raises(ValueError):
            NextLinePrefetcher(degree=0)


class TestStream:
    def test_confirms_then_runs_ahead(self):
        pf = StreamPrefetcher(line_bytes=64, confirm=2, degree=2)
        assert pf.observe(0, False) == []  # new candidate
        assert pf.observe(64, False) == []  # stride learned (conf 1)
        out = pf.observe(128, False)  # stride repeats (conf 2): confirmed
        assert out == [192, 256]  # degree 2 ahead
        assert pf.observe(192, False) == [256, 320]  # stays confirmed

    def test_detects_non_unit_strides(self):
        pf = StreamPrefetcher(line_bytes=64, confirm=2, degree=1)
        for addr in (0, 256, 512, 768):
            out = pf.observe(addr, False)
        assert out == [1024]

    def test_random_traffic_never_confirms(self):
        pf = StreamPrefetcher(line_bytes=64)
        rng = np.random.default_rng(0)
        issued = []
        for addr in rng.integers(0, 1 << 30, size=500) * 64:
            issued.extend(pf.observe(int(addr), False))
        assert len(issued) < 25  # essentially nothing

    def test_stream_table_evicts_lru(self):
        pf = StreamPrefetcher(line_bytes=64, n_streams=2)
        pf.observe(0, False)
        pf.observe(1 << 20, False)
        pf.observe(1 << 24, False)  # evicts the oldest
        assert len(pf._streams) == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            StreamPrefetcher(n_streams=0)


class TestPrefetchedRun:
    def test_stream_prefetcher_covers_sequential(self):
        report = prefetched_run(sequential_addresses(5000, stride=64))
        assert report.coverage > 0.9
        assert report.accuracy > 0.9

    def test_next_line_half_covers_sequential(self):
        report = prefetched_run(
            sequential_addresses(5000, stride=64),
            prefetcher=NextLinePrefetcher(),
        )
        assert 0.4 <= report.coverage <= 0.6

    def test_random_defeats_prefetching(self):
        report = prefetched_run(
            random_addresses(5000, footprint_bytes=1 << 26, rng=0)
        )
        assert abs(report.coverage) < 0.05

    def test_wasted_prefetch_energy(self):
        # next-line on a 4-line stride: all prefetches useless.
        report = prefetched_run(
            sequential_addresses(3000, stride=256),
            prefetcher=NextLinePrefetcher(),
        )
        assert report.accuracy < 0.05
        assert report.energy_overhead_j() > 0
        with pytest.raises(ValueError):
            report.energy_overhead_j(-1.0)

    def test_addresses_from_2_63_run_as_unsigned(self):
        addrs = np.arange(200, dtype=np.uint64) * np.uint64(64)
        high = prefetched_run(addrs + np.uint64(2**63))
        assert high == prefetched_run(addrs)
        assert high.baseline_misses == 200

    @pytest.mark.parametrize("addrs", [np.array([64, -64]),
                                       np.array([0.0, 64.0])],
                             ids=["negative", "float"])
    def test_a_negative_or_float_address_is_a_value_error(self, addrs):
        with pytest.raises(ValueError, match="address"):
            prefetched_run(addrs)

    def test_comparison_table_shapes(self):
        out = prefetcher_comparison(n=4000)
        assert out["sequential/stream"]["coverage"] > 0.9
        assert out["random/stream"]["coverage"] < 0.05
