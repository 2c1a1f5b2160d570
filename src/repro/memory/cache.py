"""Set-associative cache simulator.

Trace-driven, exact LRU, write-back/write-allocate by default — the
standard teaching/research abstraction, sufficient for every cache
question the paper raises (locality management, energy of data movement,
hierarchy design for E17).

Implementation notes: each set is one insertion-ordered ``dict`` mapping
a resident line to its dirty flag, least recently used first.  A hit
pops the line and re-inserts it at the back; the victim is the first
key.  An access is a few dict operations on plain Python ints.

:meth:`Cache.access` is the scalar API.  :meth:`Cache.misses` is the one
batch loop: it takes a whole ordered stream as NumPy arrays, computes
line numbers and set ids once, folds out the same-line repeats that
cannot change anything but a dirty flag, runs the rest with the
geometry and policy held in locals, adds its counts to the stats once,
and returns the misses in order, as arrays.  A cache's state depends
only on the ordered stream it receives, so a hierarchy whose levels are
non-inclusive and send no writebacks down can run one level at a time,
each level filtering the previous level's misses;
:meth:`repro.memory.hierarchy.MemoryHierarchy.run_trace` does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

from ..core.units import is_integer

if TYPE_CHECKING:
    from numpy.typing import ArrayLike


def _is_pow2(x: int) -> bool:
    return x > 0 and (x & (x - 1)) == 0


def address_array(addresses: ArrayLike) -> np.ndarray:
    """``addresses`` as a ``uint64`` array, rejecting what is no address.

    A list is converted with an explicit ``uint64`` dtype: inferring one
    would turn ``[2**63, 5]`` into ``float64``.  A negative address
    raises ``ValueError`` before anything converts it, since ``astype``
    would wrap it silently; so does one of ``2**64`` or more.
    """
    if isinstance(addresses, np.ndarray):
        kind = addresses.dtype.kind
        if kind not in "iu":
            raise ValueError(
                f"addresses must be integers, got dtype {addresses.dtype}")
        if kind == "i" and addresses.size and addresses.min() < 0:
            raise ValueError("address must be non-negative")
        return addresses.astype(np.uint64, copy=False)
    if len(addresses) and min(addresses) < 0:
        raise ValueError("address must be non-negative")
    try:
        return np.array(addresses, dtype=np.uint64)
    except OverflowError:
        raise ValueError("address must be below 2**64") from None


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and policy for one cache level."""

    size_bytes: int
    line_bytes: int = 64
    associativity: int = 8
    write_back: bool = True
    write_allocate: bool = True

    def __post_init__(self) -> None:
        for name in ("size_bytes", "line_bytes", "associativity"):
            value = getattr(self, name)
            if isinstance(value, bool) or not is_integer(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
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
        self._set_mask = int(config.n_sets) - 1
        self._line_shift = int(config.line_bytes).bit_length() - 1
        self._set_dtype = np.min_scalar_type(self._set_mask)
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
        self, addresses: ArrayLike, writes: ArrayLike
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Run an ordered stream of accesses; returns its misses in order.

        ``addresses`` and ``writes`` are arrays or lists of equal length;
        addresses go through :func:`address_array`, so a negative one
        raises the same ``ValueError`` as :meth:`access`, before any
        state changes.  Each access follows exactly the rules of
        :meth:`access`; the returned ``(miss_addresses, miss_writes)``
        are ``uint64`` and ``bool`` arrays of the accesses for which it
        would have returned False, in order, each with its own write flag.

        An access to the line that the previous access to its set
        touched hits the most recently used way: it changes no LRU
        order and no count but ``hits``.  Such repeats skip the loop,
        and their writes are OR-ed into the dirty flag the first access
        of their run leaves.  Under ``write_allocate=False`` a write miss
        does not fill its line, so the next access to it can miss, and
        nothing is skipped.
        """
        addresses = address_array(addresses)
        writes = np.asarray(writes, dtype=bool)
        if writes.shape != addresses.shape:
            raise ValueError("writes must match addresses in length")
        n = len(addresses)
        if n == 0:
            return addresses, writes
        config = self.config
        lines = addresses >> np.uint64(self._line_shift)
        set_ids = (lines & np.uint64(self._set_mask)).astype(self._set_dtype)
        # Stable, so each set keeps its accesses in stream order; set ids
        # of at most 16 bits get NumPy's radix sort.  Sets share no
        # state, so the loop may run them one after another.
        order = np.argsort(set_ids, kind="stable")
        by_set = lines[order]
        first = np.ones(n, dtype=bool)
        if config.write_allocate:
            np.not_equal(by_set[1:], by_set[:-1], out=first[1:])
        starts = np.flatnonzero(first)
        flags = np.logical_or.reduceat(writes[order], starts)

        sets = self._sets
        mask = self._set_mask
        assoc = config.associativity
        write_back = config.write_back
        write_allocate = config.write_allocate
        # One byte per access, set at each miss: cheaper than a list of
        # indices turned back into an array.
        missed = bytearray(n)
        evictions = writebacks = 0
        for i, line, is_write in zip(
            order[starts].tolist(), by_set[starts].tolist(), flags.tolist()
        ):
            ways = sets[line & mask]
            dirty = ways.pop(line, None)
            if dirty is not None:
                # Re-insert at the back: most recently used.
                ways[line] = dirty or (is_write and write_back)
                continue
            missed[i] = 1
            if is_write and not write_allocate:
                continue
            if len(ways) == assoc:
                evictions += 1
                if ways.pop(next(iter(ways))):
                    writebacks += 1
            ways[line] = is_write and write_back

        stats = self.stats
        miss = np.frombuffer(missed, dtype=bool)
        n_miss = int(np.count_nonzero(miss))
        stats.accesses += n
        stats.hits += n - n_miss
        stats.misses += n_miss
        stats.evictions += evictions
        stats.writebacks += writebacks
        return addresses[miss], writes[miss]

    def run_trace(
        self,
        addresses: ArrayLike,
        writes: Optional[ArrayLike] = None,
    ) -> CacheStats:
        """Process a whole address trace; returns the updated stats."""
        if writes is None:
            writes = np.zeros(len(addresses), dtype=bool)
        self.misses(addresses, writes)
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
        address_array(addresses) >> np.uint64(int(np.log2(line_bytes)))
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
