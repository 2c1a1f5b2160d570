"""Tests for the set-associative cache simulator."""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory import Cache, CacheConfig, stack_distance_hit_rate
from repro.processor import sequential_addresses, zipf_addresses


def small_cache(size=1024, assoc=2, line=64):
    return Cache(CacheConfig(size_bytes=size, associativity=assoc, line_bytes=line))


class TestConfig:
    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            CacheConfig(size_bytes=100, line_bytes=64)  # not multiple
        with pytest.raises(ValueError):
            CacheConfig(size_bytes=1024, line_bytes=60)  # not pow2
        with pytest.raises(ValueError):
            CacheConfig(size_bytes=64, line_bytes=64, associativity=2)
        with pytest.raises(ValueError):
            CacheConfig(size_bytes=3 * 64, line_bytes=64, associativity=1)

    @pytest.mark.parametrize("field,value", [
        ("size_bytes", 4096.0), ("line_bytes", 64.0),
        ("associativity", 2.0), ("associativity", True),
        ("line_bytes", np.float64(64)),
    ], ids=["size-float", "line-float", "assoc-float", "assoc-bool",
            "line-numpy-float"])
    def test_geometry_must_be_integers(self, field, value):
        kwargs = dict(size_bytes=4096, line_bytes=64, associativity=2)
        kwargs[field] = value
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            CacheConfig(**kwargs)

    def test_numpy_integer_geometry_is_valid(self):
        cfg = CacheConfig(size_bytes=np.int64(4096), line_bytes=np.uint32(64),
                          associativity=np.int16(2))
        assert cfg.n_sets == 32
        assert Cache(cfg).misses([0, 4096, 0], [False] * 3)[0].tolist() \
            == [0, 4096]

    def test_n_sets(self):
        cfg = CacheConfig(size_bytes=32 * 1024, line_bytes=64, associativity=8)
        assert cfg.n_sets == 64


class TestBasicBehaviour:
    def test_cold_miss_then_hit(self):
        c = small_cache()
        assert c.access(0) is False
        assert c.access(0) is True
        assert c.access(63) is True  # same line
        assert c.access(64) is False  # next line

    def test_lru_eviction(self):
        # 2-way set: fill both ways, touch the first, insert a third;
        # the second (LRU) must be evicted.
        c = small_cache(size=1024, assoc=2, line=64)  # 8 sets
        set_stride = 8 * 64  # same set every 512 bytes
        a, b, d = 0, set_stride, 2 * set_stride
        c.access(a)
        c.access(b)
        c.access(a)  # refresh a
        c.access(d)  # evicts b
        assert c.access(a) is True
        assert c.access(b) is False

    def test_writeback_on_dirty_eviction(self):
        c = small_cache(size=1024, assoc=1, line=64)  # direct-mapped, 16 sets
        stride = 16 * 64
        c.access(0, is_write=True)  # dirty
        c.access(stride)  # evicts dirty line
        assert c.stats.writebacks == 1

    def test_clean_eviction_no_writeback(self):
        c = small_cache(size=1024, assoc=1, line=64)
        stride = 16 * 64
        c.access(0, is_write=False)
        c.access(stride)
        assert c.stats.writebacks == 0

    def test_write_no_allocate(self):
        cfg = CacheConfig(
            size_bytes=1024, associativity=2, write_back=False,
            write_allocate=False,
        )
        c = Cache(cfg)
        c.access(0, is_write=True)  # miss, no fill
        assert c.access(0, is_write=False) is False

    def test_negative_address_rejected(self):
        with pytest.raises(ValueError):
            small_cache().access(-1)

    def test_reset(self):
        c = small_cache()
        c.access(0)
        c.reset()
        assert c.stats.accesses == 0
        assert c.access(0) is False  # cold again


class TestTraceRuns:
    def test_sequential_within_capacity_hits_after_warmup(self):
        c = Cache(CacheConfig(size_bytes=4096, line_bytes=64, associativity=4))
        addrs = np.tile(sequential_addresses(64, stride=64), 10)
        stats = c.run_trace(addrs)
        # 64 lines exactly fill the cache: 64 cold misses, rest hits.
        assert stats.misses == 64
        assert stats.hits == 64 * 9

    def test_thrashing_working_set(self):
        c = Cache(CacheConfig(size_bytes=4096, line_bytes=64, associativity=4))
        # 128 lines > 64-line capacity, cyclic: pure LRU thrashing.
        addrs = np.tile(sequential_addresses(128, stride=64), 5)
        stats = c.run_trace(addrs)
        assert stats.hit_rate == 0.0

    def test_writes_length_mismatch(self):
        c = small_cache()
        with pytest.raises(ValueError):
            c.run_trace(np.zeros(3, dtype=np.int64), writes=np.zeros(2, dtype=bool))

    def test_hit_rate_increases_with_size(self):
        addrs = zipf_addresses(20000, unique=4096, rng=0)
        rates = []
        for size_kb in (4, 16, 64, 256):
            c = Cache(CacheConfig(size_bytes=size_kb * 1024, associativity=8))
            rates.append(c.run_trace(addrs).hit_rate)
        assert all(a <= b + 1e-9 for a, b in zip(rates, rates[1:]))


class TestInvariants:
    def test_hits_plus_misses_equals_accesses(self):
        c = small_cache()
        addrs = zipf_addresses(5000, rng=1)
        stats = c.run_trace(addrs)
        assert stats.hits + stats.misses == stats.accesses == 5000

    def test_contents_bounded_by_capacity(self):
        c = Cache(CacheConfig(size_bytes=2048, line_bytes=64, associativity=2))
        c.run_trace(zipf_addresses(3000, rng=2))
        assert len(c.contents()) <= 2048 // 64

    def test_resident_line_always_hits(self):
        c = small_cache(size=2048, assoc=4)
        c.run_trace(zipf_addresses(1000, rng=3))
        for line_addr in list(c.contents())[:10]:
            assert c.access(line_addr) is True

    @given(
        st.lists(st.integers(min_value=0, max_value=1 << 20), min_size=1,
                 max_size=300),
        st.sampled_from([1, 2, 4]),
    )
    @settings(max_examples=30, deadline=None)
    def test_property_accounting_and_capacity(self, addresses, assoc):
        c = Cache(CacheConfig(size_bytes=64 * 8 * assoc,
                              line_bytes=64, associativity=assoc))
        for a in addresses:
            c.access(a)
        assert c.stats.hits + c.stats.misses == len(addresses)
        assert len(c.contents()) <= 8 * assoc
        # Unique lines touched bounds the number of misses from below.
        unique_lines = len({a >> 6 for a in addresses})
        assert c.stats.misses >= min(unique_lines, 1)


class _ReferenceLRU:
    """Test-only model: one Python list per set, LRU order by position.

    Index 0 is the least recently used line; each entry is
    ``[line, dirty]``.  Written for obviousness, not speed.
    """

    def __init__(self, cfg: CacheConfig) -> None:
        self.cfg = cfg
        self.sets = [[] for _ in range(cfg.n_sets)]
        self.counts = dict(accesses=0, hits=0, misses=0, evictions=0,
                           writebacks=0)

    def access(self, address: int, is_write: bool) -> bool:
        line = address // self.cfg.line_bytes
        ways = self.sets[line % self.cfg.n_sets]
        self.counts["accesses"] += 1
        for pos, entry in enumerate(ways):
            if entry[0] == line:
                ways.append(ways.pop(pos))
                if is_write and self.cfg.write_back:
                    entry[1] = True
                self.counts["hits"] += 1
                return True
        self.counts["misses"] += 1
        if is_write and not self.cfg.write_allocate:
            return False
        if len(ways) == self.cfg.associativity:
            _, dirty = ways.pop(0)
            self.counts["evictions"] += 1
            if dirty:
                self.counts["writebacks"] += 1
        ways.append([line, is_write and self.cfg.write_back])
        return False

    def contents(self) -> set:
        return {line * self.cfg.line_bytes
                for ways in self.sets for line, _ in ways}


@st.composite
def run_heavy_streams(draw):
    """Streams made of same-line runs, the repeats ``misses`` skips.

    Segments: one line repeated k times at any offsets; an 8-byte scan
    of one line; two runs in different lines interleaved, so each set
    sees its own run; a write followed by reads of the same line (the
    case ``write_allocate=False`` must not skip).  Chunk cuts drawn
    over such a stream land inside runs.
    """
    stream = []
    for _ in range(draw(st.integers(min_value=0, max_value=24))):
        kind = draw(st.sampled_from(
            ["repeat", "scan", "interleave", "write-then-read"]))
        line = draw(st.integers(min_value=0, max_value=255)) * 64
        k = draw(st.integers(min_value=1, max_value=10))
        if kind == "repeat":
            stream += [(line + draw(st.integers(0, 63)), draw(st.booleans()))
                       for _ in range(k)]
        elif kind == "scan":
            write = draw(st.booleans())
            stream += [(line + offset, write) for offset in range(0, 64, 8)]
        elif kind == "interleave":
            other = draw(st.integers(min_value=0, max_value=255)) * 64
            for j in range(k):
                stream += [(line + 8 * (j % 8), draw(st.booleans())),
                           (other + 8 * (j % 8), draw(st.booleans()))]
        else:
            stream += [(line, True)] + [(line + 8 * (j % 8), False)
                                        for j in range(1, k + 1)]
    return stream


def as_input(addresses, form):
    if form == "list":
        return list(addresses)
    return np.array(addresses, dtype=form)


def check_chunks_against_reference(cfg, stream, cuts, form):
    """Feed ``stream`` to ``misses`` in chunks; compare after each."""
    cache, ref = Cache(cfg), _ReferenceLRU(cfg)
    bounds = sorted({0, len(stream), *(c for c in cuts
                                       if c <= len(stream))})
    for lo, hi in zip(bounds, bounds[1:]):
        chunk = stream[lo:hi]
        addresses = as_input([a for a, _ in chunk], form)
        writes = [w for _, w in chunk]
        if form != "list":
            writes = np.array(writes, dtype=bool)
        want = [(a, w) for a, w in chunk if not ref.access(a, w)]
        got_addresses, got_writes = cache.misses(addresses, writes)
        assert got_addresses.dtype == np.uint64
        assert got_writes.dtype == bool
        assert list(zip(got_addresses.tolist(),
                        got_writes.tolist())) == want
        s = cache.stats
        assert dict(accesses=s.accesses, hits=s.hits, misses=s.misses,
                    evictions=s.evictions,
                    writebacks=s.writebacks) == ref.counts
        assert cache.contents() == ref.contents()


INPUT_FORMS = st.sampled_from(["uint64", "int64", "list"])


class TestDifferentialAgainstReference:
    @given(
        st.sampled_from([1, 2, 4, 8]),
        st.sampled_from([1, 2, 4, 16]),
        st.booleans(),
        st.booleans(),
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=(1 << 13) - 1),
                      st.booleans()),
            min_size=1,
            max_size=400,
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_on_every_access(
        self, assoc, n_sets, write_back, write_allocate, stream
    ):
        cfg = CacheConfig(size_bytes=64 * assoc * n_sets, line_bytes=64,
                          associativity=assoc, write_back=write_back,
                          write_allocate=write_allocate)
        cache, ref = Cache(cfg), _ReferenceLRU(cfg)
        for address, is_write in stream:
            assert cache.access(address, is_write) == ref.access(
                address, is_write)
            s = cache.stats
            assert dict(accesses=s.accesses, hits=s.hits, misses=s.misses,
                        evictions=s.evictions,
                        writebacks=s.writebacks) == ref.counts
            assert cache.contents() == ref.contents()

    @given(
        st.sampled_from([1, 2, 4, 8]),
        st.sampled_from([1, 2, 4, 16]),
        st.booleans(),
        st.booleans(),
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=(1 << 13) - 1),
                      st.booleans()),
            max_size=400,
        ),
        st.lists(st.integers(min_value=0, max_value=400), max_size=8),
        INPUT_FORMS,
    )
    @settings(max_examples=150, deadline=None)
    def test_misses_matches_reference_over_chained_chunks(
        self, assoc, n_sets, write_back, write_allocate, stream, cuts, form
    ):
        cfg = CacheConfig(size_bytes=64 * assoc * n_sets, line_bytes=64,
                          associativity=assoc, write_back=write_back,
                          write_allocate=write_allocate)
        check_chunks_against_reference(cfg, stream, cuts, form)

    @pytest.mark.parametrize("write_back", [True, False],
                             ids=["write-back", "write-through"])
    @pytest.mark.parametrize("write_allocate", [True, False],
                             ids=["allocate", "no-allocate"])
    @given(
        st.sampled_from([1, 2, 4, 8]),
        st.sampled_from([1, 2, 4, 16]),
        run_heavy_streams(),
        st.lists(st.integers(min_value=0, max_value=400), max_size=8),
        INPUT_FORMS,
    )
    @settings(max_examples=60, deadline=None)
    def test_misses_matches_reference_on_run_heavy_streams(
        self, write_back, write_allocate, assoc, n_sets, stream, cuts, form
    ):
        cfg = CacheConfig(size_bytes=64 * assoc * n_sets, line_bytes=64,
                          associativity=assoc, write_back=write_back,
                          write_allocate=write_allocate)
        check_chunks_against_reference(cfg, stream, cuts, form)

    def test_misses_rejects_a_negative_address_before_any_change(self):
        cache = small_cache()
        cache.misses([0, 64, 128], [True, False, True])
        stats, contents = dataclasses.replace(cache.stats), cache.contents()
        for form in ("list", "int64"):
            with pytest.raises(ValueError, match="non-negative"):
                cache.misses(as_input([192, 256, -64, 320], form),
                             [False] * 4)
        assert cache.stats == stats
        assert cache.contents() == contents

    def test_misses_rejects_an_address_of_2_64_before_any_change(self):
        cache = small_cache()
        cache.misses([0, 64], [True, False])
        stats, contents = dataclasses.replace(cache.stats), cache.contents()
        with pytest.raises(ValueError, match="below 2"):
            cache.misses([192, 2**64], [False, False])
        with pytest.raises(ValueError, match="integers"):
            cache.misses(np.array([192.0, 256.0]), [False, False])
        assert cache.stats == stats
        assert cache.contents() == contents

    def test_misses_keeps_a_list_with_addresses_from_2_63_unsigned(self):
        cfg = CacheConfig(size_bytes=1024, associativity=2)
        cache, ref = Cache(cfg), _ReferenceLRU(cfg)
        stream = [(2**63, True), (5, False), (2**64 - 1, False),
                  (2**63 + 8, False), (2**63 + 1024, True), (5, True)]
        want = [(a, w) for a, w in stream if not ref.access(a, w)]
        got_addresses, got_writes = cache.misses(
            [a for a, _ in stream], [w for _, w in stream])
        assert list(zip(got_addresses.tolist(), got_writes.tolist())) == want
        assert cache.contents() == ref.contents()
        assert cache.stats.writebacks == ref.counts["writebacks"]

    @pytest.mark.parametrize("addresses,writes", [
        ([], []),
        (np.array([], dtype=np.uint64), np.array([], dtype=bool)),
        (np.array([], dtype=np.int64), []),
    ], ids=["lists", "uint64", "int64"])
    def test_misses_of_an_empty_stream(self, addresses, writes):
        cache = small_cache()
        got_addresses, got_writes = cache.misses(addresses, writes)
        assert got_addresses.dtype == np.uint64 and got_addresses.size == 0
        assert got_writes.dtype == bool and got_writes.size == 0
        assert cache.stats == type(cache.stats)()
        assert cache.contents() == set()

    def test_run_trace_matches_per_access_calls(self):
        addrs = zipf_addresses(4000, unique=1024, rng=4)
        writes = np.random.default_rng(4).random(len(addrs)) < 0.3
        for write_back, write_allocate in itertools.product((True, False),
                                                            repeat=2):
            cfg = CacheConfig(size_bytes=4096, associativity=4,
                              write_back=write_back,
                              write_allocate=write_allocate)
            bulk, single = Cache(cfg), Cache(cfg)
            bulk.run_trace(addrs, writes)
            for a, w in zip(addrs.tolist(), writes.tolist()):
                single.access(a, w)
            assert bulk.stats == single.stats, cfg
            assert bulk.contents() == single.contents(), cfg

    def test_run_trace_keeps_addresses_from_2_63_unsigned(self):
        addrs = zipf_addresses(2000, unique=512, rng=5).astype(np.uint64)
        writes = np.random.default_rng(5).random(len(addrs)) < 0.3
        cfg = CacheConfig(size_bytes=4096, associativity=4)
        low, high = Cache(cfg), Cache(cfg)
        low.run_trace(addrs, writes)
        high.run_trace(addrs + np.uint64(2**63), writes)
        assert high.stats == low.stats
        assert high.contents() == {a + 2**63 for a in low.contents()}


class TestStackDistance:
    def test_agrees_with_fully_associative_simulator(self):
        addrs = zipf_addresses(8000, unique=512, rng=0)
        capacity = 128  # lines
        c = Cache(
            CacheConfig(size_bytes=capacity * 64, line_bytes=64,
                        associativity=capacity)  # fully associative
        )
        sim_rate = c.run_trace(addrs).hit_rate
        analytic = stack_distance_hit_rate(addrs, capacity_lines=capacity)
        assert analytic == pytest.approx(sim_rate, abs=1e-9)

    def test_repeat_stream_all_hits_after_first(self):
        addrs = np.zeros(100, dtype=np.int64)
        assert stack_distance_hit_rate(addrs, 16) == pytest.approx(0.99)

    def test_validation(self):
        with pytest.raises(ValueError):
            stack_distance_hit_rate(np.zeros(3, dtype=np.int64), 0)

    def test_addresses_from_2_63_run_as_unsigned(self):
        addrs = zipf_addresses(3000, unique=512, rng=5).astype(np.uint64)
        low = stack_distance_hit_rate(addrs, 64)
        assert stack_distance_hit_rate(addrs + np.uint64(2**63), 64) == low
        assert 0 < low < 1

    @pytest.mark.parametrize("addrs", [np.array([64, -64]),
                                       np.array([0.0, 64.0])],
                             ids=["negative", "float"])
    def test_a_negative_or_float_address_is_a_value_error(self, addrs):
        with pytest.raises(ValueError, match="address"):
            stack_distance_hit_rate(addrs, 16)
