"""Set-associative cache simulator.

Trace-driven, exact LRU, write-back/write-allocate by default — the
standard teaching/research abstraction, sufficient for every cache
question the paper raises (locality management, energy of data movement,
hierarchy design for E17).

Implementation notes: each set is one insertion-ordered ``dict`` mapping
a resident line to its dirty flag, least recently used first.  A hit
pops the line and re-inserts it at the back; the victim is the first
key.  An access is a few dict operations on plain Python ints, with no
per-access NumPy calls, whose overhead would dominate a scalar lookup.

:meth:`Cache.access` is the scalar API.  :meth:`Cache.misses` is the one
batch loop: it runs a whole ordered stream through the same rules with
the geometry and policy held in locals, adds its counts to the stats
once at the end, and returns the misses in order.  A cache's state
depends only on the ordered stream it receives, so a hierarchy whose
levels are non-inclusive and send no writebacks down can run one level
at a time, each level filtering the previous level's misses; the
``memory`` replay sink does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np


def _is_pow2(x: int) -> bool:
    return x > 0 and (x & (x - 1)) == 0


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and policy for one cache level."""

    size_bytes: int
    line_bytes: int = 64
    associativity: int = 8
    write_back: bool = True
    write_allocate: bool = True

    def __post_init__(self) -> None:
        if not _is_pow2(self.line_bytes):
            raise ValueError("line_bytes must be a power of two")
        if self.associativity < 1:
            raise ValueError("associativity must be >= 1")
        if self.size_bytes < self.line_bytes * self.associativity:
            raise ValueError("cache smaller than one set")
        if self.size_bytes % (self.line_bytes * self.associativity) != 0:
            raise ValueError("size must be a multiple of line*assoc")
        n_sets = self.size_bytes // (self.line_bytes * self.associativity)
        if not _is_pow2(n_sets):
            raise ValueError("number of sets must be a power of two")

    @property
    def n_sets(self) -> int:
        return self.size_bytes // (self.line_bytes * self.associativity)


@dataclass
class CacheStats:
    """Hit/miss/writeback counters."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0

    @property
    def hit_rate(self) -> float:
        if self.accesses == 0:
            return float("nan")
        return self.hits / self.accesses

    @property
    def miss_rate(self) -> float:
        if self.accesses == 0:
            return float("nan")
        return self.misses / self.accesses


class Cache:
    """One level of set-associative cache with true-LRU replacement.

    >>> c = Cache(CacheConfig(size_bytes=1024, line_bytes=64,
    ...                       associativity=2))
    >>> c.access(0)       # cold miss
    False
    >>> c.access(0)       # hit
    True
    """

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self._sets: list[dict[int, bool]] = [
            {} for _ in range(config.n_sets)
        ]
        self._set_mask = config.n_sets - 1
        self._line_shift = config.line_bytes.bit_length() - 1
        self.stats = CacheStats()

    def reset(self) -> None:
        for ways in self._sets:
            ways.clear()
        self.stats = CacheStats()

    def access(self, address: int, is_write: bool = False) -> bool:
        """Access one address; returns True on hit.

        Write policy: write-back/write-allocate marks lines dirty on
        write hits and allocates on write misses; write-through/no-
        allocate counts write misses without filling.
        """
        if address < 0:
            raise ValueError("address must be non-negative")
        line = address >> self._line_shift
        ways = self._sets[line & self._set_mask]
        stats = self.stats
        stats.accesses += 1
        config = self.config

        dirty = ways.pop(line, None)
        if dirty is not None:
            # Re-insert at the back: most recently used.
            ways[line] = True if is_write and config.write_back else dirty
            stats.hits += 1
            return True

        stats.misses += 1
        if is_write and not config.write_allocate:
            return False
        if len(ways) == config.associativity:
            stats.evictions += 1
            if ways.pop(next(iter(ways))):
                stats.writebacks += 1
        ways[line] = bool(is_write and config.write_back)
        return False

    def misses(
        self, addresses: List[int], writes: List[bool]
    ) -> Tuple[List[int], List[bool]]:
        """Run an ordered stream of accesses; returns its misses in order.

        ``addresses`` and ``writes`` are plain lists of equal length.
        Each access follows exactly the rules of :meth:`access`; the
        returned ``(miss_addresses, miss_writes)`` are the accesses for
        which it would have returned False.  A negative address raises
        the same ``ValueError`` as :meth:`access`, before any state
        changes.
        """
        if len(writes) != len(addresses):
            raise ValueError("writes must match addresses in length")
        if addresses and min(addresses) < 0:
            raise ValueError("address must be non-negative")
        config = self.config
        sets = self._sets
        mask = self._set_mask
        shift = self._line_shift
        assoc = config.associativity
        write_back = config.write_back
        write_allocate = config.write_allocate
        miss_addresses: List[int] = []
        miss_writes: List[bool] = []
        add_address = miss_addresses.append
        add_write = miss_writes.append
        evictions = writebacks = 0
        for address, is_write in zip(addresses, writes):
            line = address >> shift
            ways = sets[line & mask]
            dirty = ways.pop(line, None)
            if dirty is not None:
                # Re-insert at the back: most recently used.
                ways[line] = dirty or (is_write and write_back)
                continue
            add_address(address)
            add_write(is_write)
            if is_write and not write_allocate:
                continue
            if len(ways) == assoc:
                evictions += 1
                if ways.pop(next(iter(ways))):
                    writebacks += 1
            ways[line] = is_write and write_back

        stats = self.stats
        n, n_miss = len(addresses), len(miss_addresses)
        stats.accesses += n
        stats.hits += n - n_miss
        stats.misses += n_miss
        stats.evictions += evictions
        stats.writebacks += writebacks
        return miss_addresses, miss_writes

    def run_trace(
        self,
        addresses: np.ndarray,
        writes: Optional[np.ndarray] = None,
    ) -> CacheStats:
        """Process a whole address trace; returns the updated stats."""
        addrs = np.asarray(addresses, dtype=np.int64).tolist()
        if writes is None:
            writes_list = [False] * len(addrs)
        else:
            writes_list = np.asarray(writes, dtype=bool).tolist()
        self.misses(addrs, writes_list)
        return self.stats

    def contents(self) -> set[int]:
        """Set of resident line base-addresses (for invariant tests)."""
        shift = self._line_shift
        return {line << shift for ways in self._sets for line in ways}


def stack_distance_hit_rate(
    addresses: np.ndarray, capacity_lines: int, line_bytes: int = 64
) -> float:
    """Hit rate of a fully-associative LRU cache via stack distances.

    Exact for full associativity; a useful analytic cross-check for the
    set-associative simulator (they agree closely when conflict misses
    are rare).  O(n log n) using an order-statistics-free approach:
    positions tracked in a dict, distances counted with a Fenwick tree.
    """
    if capacity_lines <= 0:
        raise ValueError("capacity must be positive")
    lines = (
        np.asarray(addresses, dtype=np.int64) >> int(np.log2(line_bytes))
    ).tolist()
    n = len(lines)
    if n == 0:
        return float("nan")
    # Fenwick tree over access positions marking "still most recent".
    tree = [0] * (n + 1)

    def update(i: int, delta: int) -> None:
        i += 1
        while i <= n:
            tree[i] += delta
            i += i & (-i)

    def query(i: int) -> int:
        i += 1
        s = 0
        while i > 0:
            s += tree[i]
            i -= i & (-i)
        return s

    last_pos: dict[int, int] = {}
    hits = 0
    for pos, line in enumerate(lines):
        if line in last_pos:
            prev = last_pos[line]
            distinct = query(pos - 1) - query(prev)
            if distinct < capacity_lines:
                hits += 1
            update(prev, -1)
        update(pos, +1)
        last_pos[line] = pos
    return hits / n
