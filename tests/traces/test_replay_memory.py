"""Boundary tests for the ``memory`` replay sink.

The sink walks its records directly, without the event kernel, so it
must keep the order and the input checks the kernel used to give it:
records run in stable timestamp order, and a timestamp before 0 is a
``ValueError``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.fastpath import MODES
from repro.traces.format import KIND_MEMORY
from repro.traces.generators import generate
from repro.traces.replay import replay

# Digest of ``_shuffled_block()`` through the memory sink, recorded
# when the sink still drained its records through the event kernel.
SHUFFLED_DIGEST = (
    "0e08bf0c326a527237c0b6e5b935f0daf4a61ac9bf21dcb12695f138dd4d8539"
)


def _shuffled_block() -> np.ndarray:
    """A kv-zipf block with coarse, tied timestamps in shuffled order.

    Rounding to 0.1 ms leaves about 100 records per timestamp, so the
    order within a tie decides hits and misses; the shuffle makes the
    block out of order, as a decoded iterable may be.
    """
    _, arr = generate("kv-zipf", seed=11, n=3000, keys=1 << 10,
                      write_fraction=0.3)
    arr = arr.copy()
    arr["ts"] = np.floor(arr["ts"] * 1e4) / 1e4
    perm = np.random.default_rng(5).permutation(len(arr))
    return arr[perm]


def _digest(arr: np.ndarray, fastpath=None) -> str:
    return replay([(KIND_MEMORY, arr)], sink="memory",
                  fastpath=fastpath).digest()


def test_shuffled_block_replays_like_its_stable_sorted_copy():
    arr = _shuffled_block()
    assert (np.diff(arr["ts"]) < 0).any()
    in_order = arr[np.argsort(arr["ts"], kind="stable")]
    assert _digest(arr) == _digest(in_order)


def test_shuffled_block_digest_is_pinned():
    assert _digest(_shuffled_block()) == SHUFFLED_DIGEST


def test_negative_timestamp_is_rejected():
    arr = _shuffled_block()[:10].copy()
    arr["ts"][3] = -1.0
    with pytest.raises(ValueError, match="before time 0"):
        _digest(arr)


@pytest.mark.parametrize("mode", MODES)
def test_every_fastpath_mode_is_accepted_and_agrees(mode):
    arr = _shuffled_block()
    result = replay([(KIND_MEMORY, arr)], sink="memory", fastpath=mode)
    assert result.fastpath == mode
    assert result.digest() == _digest(arr, "off")
