"""Hamming SECDED error-correcting code (paper Table 1 row 3).

A real codec, not a coverage factor: encode 64-bit words into 72-bit
SECDED codewords (the DRAM-standard geometry), correct any single-bit
error, detect any double-bit error.  The reliability models and the
verification experiments (E03/E19) exercise it with injected faults.

Implementation: classic Hamming construction with parity bits at
power-of-two positions plus one overall parity bit, vectorized over
bit arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..core.rng import RngLike, resolve_rng


def _parity_positions(n_code_bits: int) -> list[int]:
    """1-based positions of Hamming parity bits (powers of two)."""
    out = []
    p = 1
    while p <= n_code_bits:
        out.append(p)
        p <<= 1
    return out


@dataclass(frozen=True)
class SECDED:
    """Single-error-correct, double-error-detect Hamming code.

    ``data_bits`` payload per word; the codeword holds data + r Hamming
    parity bits (2^r >= data_bits + r + 1) + 1 overall parity bit.
    For data_bits=64: r=7, codeword=72 (the DRAM ECC standard).
    """

    data_bits: int = 64

    def __post_init__(self) -> None:
        if self.data_bits < 1:
            raise ValueError("data_bits must be >= 1")

    @property
    def hamming_parity_bits(self) -> int:
        r = 0
        while (1 << r) < self.data_bits + r + 1:
            r += 1
        return r

    @property
    def code_bits(self) -> int:
        return self.data_bits + self.hamming_parity_bits + 1

    # -- bit layout ----------------------------------------------------------

    def _data_positions(self) -> np.ndarray:
        """1-based positions (within the Hamming part) holding data."""
        n = self.data_bits + self.hamming_parity_bits
        parity = set(_parity_positions(n))
        return np.array(
            [p for p in range(1, n + 1) if p not in parity], dtype=int
        )

    # -- encode / decode ------------------------------------------------------

    def encode(self, data: np.ndarray) -> np.ndarray:
        """Encode a boolean data vector into a codeword vector."""
        bits = np.asarray(data, dtype=bool)
        if bits.shape != (self.data_bits,):
            raise ValueError(
                f"expected {self.data_bits} data bits, got {bits.shape}"
            )
        n = self.data_bits + self.hamming_parity_bits
        word = np.zeros(n + 1, dtype=bool)  # 1-based: index 0 unused here
        hamming = np.zeros(n + 1, dtype=bool)
        hamming[self._data_positions()] = bits
        for p in _parity_positions(n):
            covered = [i for i in range(1, n + 1) if i & p and i != p]
            hamming[p] = np.logical_xor.reduce(hamming[covered]) if covered else False
        codeword = hamming[1:]
        overall = np.logical_xor.reduce(codeword)
        return np.concatenate([codeword, [overall]])

    def decode(self, codeword: np.ndarray) -> Tuple[np.ndarray, str]:
        """Decode; returns (data, status).

        status is one of ``"clean"``, ``"corrected"``, or
        ``"detected_uncorrectable"`` (double error).  For uncorrectable
        words the best-effort data extraction is still returned.
        """
        bits = np.asarray(codeword, dtype=bool)
        if bits.shape != (self.code_bits,):
            raise ValueError(
                f"expected {self.code_bits} code bits, got {bits.shape}"
            )
        n = self.data_bits + self.hamming_parity_bits
        hamming = np.zeros(n + 1, dtype=bool)
        hamming[1:] = bits[:n]
        stored_overall = bool(bits[n])

        syndrome = 0
        for p in _parity_positions(n):
            covered = [i for i in range(1, n + 1) if i & p]
            if np.logical_xor.reduce(hamming[covered]):
                syndrome |= p
        overall_ok = (
            np.logical_xor.reduce(bits[:n]) == stored_overall
        )

        status = "clean"
        if syndrome == 0 and overall_ok:
            status = "clean"
        elif syndrome != 0 and not overall_ok:
            # Single error inside the Hamming part: flip it.
            if syndrome <= n:
                hamming[syndrome] = ~hamming[syndrome]
            status = "corrected"
        elif syndrome == 0 and not overall_ok:
            # Error in the overall parity bit itself.
            status = "corrected"
        else:
            # syndrome != 0 and overall parity consistent: double error.
            status = "detected_uncorrectable"
        return hamming[self._data_positions()], status

    # -- convenience -----------------------------------------------------------

    def inject_and_decode(
        self,
        data: np.ndarray,
        n_flips: int,
        rng: RngLike = None,
    ) -> Tuple[np.ndarray, str]:
        """Encode, flip ``n_flips`` distinct random bits, decode."""
        if n_flips < 0:
            raise ValueError("n_flips must be non-negative")
        gen = resolve_rng(rng)
        word = self.encode(data)
        if n_flips:
            positions = gen.choice(self.code_bits, size=n_flips, replace=False)
            word[positions] = ~word[positions]
        return self.decode(word)

    @property
    def overhead_fraction(self) -> float:
        """Storage overhead of the code (8/64 = 12.5% for SECDED-72)."""
        return (self.code_bits - self.data_bits) / self.data_bits


def random_word(data_bits: int = 64, rng: RngLike = None) -> np.ndarray:
    gen = resolve_rng(rng)
    return gen.random(data_bits) < 0.5


def residual_error_rate(
    raw_bit_error_prob: float, data_bits: int = 64
) -> dict[str, float]:
    """Word-level outcome probabilities under independent bit errors.

    P(0 or 1 flips) -> fine; P(2 flips) -> detected; P(>=3) may escape.
    Closed-form binomial arithmetic for the E03 analysis.  The escape
    probability is summed as the tail itself: ``1 - P(<=2)`` would lose
    most of its digits to cancellation at low error rates.
    """
    if not 0.0 <= raw_bit_error_prob <= 1.0:
        raise ValueError("probability must be in [0, 1]")
    code = SECDED(data_bits)
    n = code.code_bits
    from scipy import stats

    k = np.arange(0, 5)
    pmf = stats.binom.pmf(k, n, raw_bit_error_prob)
    return {
        "clean_or_corrected": float(pmf[0] + pmf[1]),
        "detected": float(pmf[2]),
        "potentially_silent": float(stats.binom.sf(2, n, raw_bit_error_prob)),
    }
