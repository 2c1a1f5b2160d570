"""Differential and boundary tests for the ``memory`` replay sink.

The sink runs the cache hierarchy one level at a time: L1 filters the
whole ordered stream, L2 gets L1's misses, and so on.  The reference
below is the per-record level walk it replaced, one
:meth:`~repro.memory.cache.Cache.access` call per level per record;
random blocks with tied, shuffled timestamps and any write fraction
must give equal outputs.  The sink walks its records without the event
kernel, so it keeps the order and input checks the kernel used to give
it: records run in stable timestamp order, and a timestamp before 0 is
a ``ValueError``.
"""

from __future__ import annotations

from typing import Any, Dict, List

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory.hierarchy import MemoryHierarchy, default_hierarchy
from repro.traces.format import KIND_MEMORY, TraceFormatError
from repro.traces.generators import generate
from repro.traces.replay import replay


def reference_memory(blocks: List[np.ndarray]) -> Dict[str, Any]:
    """The per-record sink: each record walks L1 -> L2 -> L3 -> memory."""
    specs = default_hierarchy()
    hierarchy = MemoryHierarchy(specs)
    caches = hierarchy.caches
    latencies = [s.latency_cycles for s in specs]
    mem_latency = hierarchy.memory.latency_cycles
    n_levels = len(specs)

    arr = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
    arr = arr[np.argsort(arr["ts"], kind="stable")]
    n = len(arr)
    addrs = [int(a) for a in arr["addr"]]
    writes = (arr["op"] != 0).tolist()

    level_hits = [0] * n_levels
    cycles = 0
    memory_accesses = 0
    for addr, w in zip(addrs, writes):
        for lvl in range(n_levels):
            cycles += latencies[lvl]
            if caches[lvl].access(addr, w):
                level_hits[lvl] += 1
                break
        else:
            memory_accesses += 1
            cycles += mem_latency

    return {
        "accesses": n,
        "level_hits": {
            specs[i].name: level_hits[i] for i in range(n_levels)
        },
        "memory_accesses": memory_accesses,
        "total_cycles": cycles,
        "amat_cycles": cycles / n,
    }


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


def _digest(arr: np.ndarray) -> str:
    return replay([(KIND_MEMORY, arr)], sink="memory").digest()


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


@st.composite
def memory_blocks(draw) -> np.ndarray:
    """A kv-zipf or graph-scan block with any write fraction, coarse
    tied timestamps, and possibly shuffled order."""
    n = draw(st.integers(0, 3000))
    seed = draw(st.integers(0, 2**16))
    if draw(st.booleans()):
        _, arr = generate("kv-zipf", seed=seed, n=n,
                          keys=1 << draw(st.integers(4, 16)))
    else:
        _, arr = generate("graph-scan", seed=seed, n=n,
                          vertices=1 << draw(st.integers(4, 15)),
                          seq_run=draw(st.integers(1, 64)))
    arr = arr.copy()
    rng = np.random.default_rng(seed)
    arr["op"] = rng.random(n) < draw(st.floats(0.0, 1.0))
    # Timestamps run at ~1 us per record; a 10 us to 10 ms grid ties
    # runs of 10 to 10,000 records.
    grid = 10.0 ** -draw(st.integers(2, 5))
    arr["ts"] = np.floor(arr["ts"] / grid) * grid
    if draw(st.booleans()):
        arr = arr[rng.permutation(n)]
    return arr


@given(memory_blocks())
@settings(max_examples=60, deadline=None)
def test_level_by_level_matches_the_per_record_walk(arr):
    if len(arr) == 0:
        with pytest.raises(TraceFormatError, match="no memory records"):
            replay([(KIND_MEMORY, arr)], sink="memory")
        return
    out = replay([(KIND_MEMORY, arr)], sink="memory").outputs
    assert out == reference_memory([arr])
    assert (sum(out["level_hits"].values()) + out["memory_accesses"]
            == out["accesses"] == len(arr))


def test_multiple_blocks_match_the_per_record_walk():
    arr = _shuffled_block()
    parts = [arr[:1000], arr[1000:1001], arr[1001:]]
    out = replay([(KIND_MEMORY, p) for p in parts], sink="memory").outputs
    assert out == reference_memory(parts)


def test_addresses_at_and_above_2_63_replay_as_unsigned():
    arr = _shuffled_block()
    high = arr.copy()
    high["addr"] += np.uint64(2**63)
    assert int(high["addr"].min()) >= 2**63
    assert (replay([(KIND_MEMORY, high)], sink="memory").outputs
            == replay([(KIND_MEMORY, arr)], sink="memory").outputs)
