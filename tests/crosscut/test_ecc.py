"""Tests for the SECDED codec."""

from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crosscut import SECDED, random_word, residual_error_rate


@pytest.fixture(scope="module")
def code():
    return SECDED(64)


class TestGeometry:
    def test_standard_72_64(self, code):
        assert code.hamming_parity_bits == 7
        assert code.code_bits == 72
        assert code.overhead_fraction == pytest.approx(0.125)

    def test_small_codes(self):
        # Hamming(7,4) + overall parity = SECDED(8,4).
        c4 = SECDED(4)
        assert c4.hamming_parity_bits == 3
        assert c4.code_bits == 8

    def test_validation(self):
        with pytest.raises(ValueError):
            SECDED(0)


class TestRoundTrip:
    def test_clean_round_trip(self, code):
        for seed in range(10):
            data = random_word(rng=seed)
            decoded, status = code.decode(code.encode(data))
            assert status == "clean"
            np.testing.assert_array_equal(decoded, data)

    def test_single_error_corrected_every_position(self, code):
        data = random_word(rng=0)
        word = code.encode(data)
        for pos in range(code.code_bits):
            corrupted = word.copy()
            corrupted[pos] = ~corrupted[pos]
            decoded, status = code.decode(corrupted)
            assert status == "corrected", pos
            np.testing.assert_array_equal(decoded, data)

    def test_double_errors_detected(self, code):
        data = random_word(rng=1)
        word = code.encode(data)
        rng = np.random.default_rng(2)
        for _ in range(50):
            i, j = rng.choice(code.code_bits, size=2, replace=False)
            corrupted = word.copy()
            corrupted[[i, j]] = ~corrupted[[i, j]]
            _, status = code.decode(corrupted)
            assert status == "detected_uncorrectable", (i, j)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_property_encode_decode_identity(self, seed):
        c = SECDED(64)
        data = random_word(rng=seed)
        decoded, status = c.inject_and_decode(data, 0, rng=seed)
        assert status == "clean"
        np.testing.assert_array_equal(decoded, data)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_property_single_flip_always_corrected(self, seed):
        c = SECDED(64)
        data = random_word(rng=seed)
        decoded, status = c.inject_and_decode(data, 1, rng=seed)
        assert status == "corrected"
        np.testing.assert_array_equal(decoded, data)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_property_double_flip_always_detected(self, seed):
        c = SECDED(64)
        data = random_word(rng=seed)
        _, status = c.inject_and_decode(data, 2, rng=seed)
        assert status == "detected_uncorrectable"

    def test_shape_validation(self, code):
        with pytest.raises(ValueError):
            code.encode(np.zeros(32, dtype=bool))
        with pytest.raises(ValueError):
            code.decode(np.zeros(64, dtype=bool))
        with pytest.raises(ValueError):
            code.inject_and_decode(random_word(rng=0), -1)


class TestResidualRates:
    def test_low_ber_mostly_clean(self):
        out = residual_error_rate(1e-9)
        assert out["clean_or_corrected"] > 1 - 1e-12
        assert out["potentially_silent"] < 1e-20

    def test_rates_sum_to_one(self):
        out = residual_error_rate(1e-3)
        total = (
            out["clean_or_corrected"] + out["detected"]
            + out["potentially_silent"]
        )
        assert total == pytest.approx(1.0)

    def test_silent_rate_grows_with_ber(self):
        low = residual_error_rate(1e-6)["potentially_silent"]
        high = residual_error_rate(1e-3)["potentially_silent"]
        assert high > low

    def test_validation(self):
        with pytest.raises(ValueError):
            residual_error_rate(2.0)

    @pytest.mark.parametrize("ber", [1e-9, 1e-6, 1e-3])
    def test_silent_rate_is_the_exact_tail(self, ber):
        # The k >= 3 tail summed in rationals at the exact float input;
        # 1 - P(k <= 2) in floats is 1.5% low at 1e-6 by cancellation.
        p, n = Fraction(ber), SECDED(64).code_bits
        exact = sum(comb(n, k) * p**k * (1 - p) ** (n - k)
                    for k in range(3, n + 1))
        got = residual_error_rate(ber)["potentially_silent"]
        assert got == pytest.approx(float(exact), rel=1e-12)
