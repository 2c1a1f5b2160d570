"""Synthetic trace generators for the paper's emerging-app profiles.

The paper's Table A.1/A.2 argument is that 21st-century workloads —
always-on social/media services, personalized medicine scans, ML
serving, graph analytics over NVM — stress architectures differently
than SPEC-era batch jobs.  These generators reproduce those stresses
as replayable traces: each profile is a seeded, closed-form recipe that
produces one structured record array (see :mod:`repro.traces.format`)
with nondecreasing timestamps, ready for :class:`TraceWriter.write_block`.

Every profile is a pure function of ``(seed, params)`` using
``numpy.random.default_rng`` (PCG64), so the same name + seed + params
yields byte-identical traces on every platform — the property the
scenario library (:mod:`repro.scenarios`) and its golden digests build
on.  Profiles are registered in :data:`PROFILES` and driven by
:func:`generate`; ``python -m repro scenarios gen`` exposes them on the
command line.
"""

from __future__ import annotations

from typing import Any, BinaryIO, Callable, Dict, Tuple, Union

import numpy as np

from .format import (
    KIND_INSTRUCTION,
    KIND_MEMORY,
    KIND_REQUEST,
    TraceWriter,
    dtype_for,
)

__all__ = [
    "PROFILES",
    "generate",
    "generate_trace",
    "profile_names",
]


def _request_array(
    ts: np.ndarray,
    service_us: np.ndarray,
    size: np.ndarray,
    client: np.ndarray,
    target: np.ndarray,
    op: np.ndarray,
) -> np.ndarray:
    arr = np.empty(len(ts), dtype=dtype_for(KIND_REQUEST))
    arr["ts"] = ts
    arr["service_us"] = service_us
    arr["size"] = size
    arr["client"] = client
    arr["target"] = target
    arr["op"] = op
    return arr


def _memory_array(
    ts: np.ndarray,
    addr: np.ndarray,
    size: np.ndarray,
    op: np.ndarray,
    tier: np.ndarray,
) -> np.ndarray:
    arr = np.empty(len(ts), dtype=dtype_for(KIND_MEMORY))
    arr["ts"] = ts
    arr["addr"] = addr
    arr["size"] = size
    arr["op"] = op
    arr["tier"] = tier
    return arr


# -- request profiles ------------------------------------------------------


def steady_requests(
    rng: np.random.Generator,
    n: int = 10_000,
    rate: float = 1000.0,
    mean_service_us: float = 500.0,
    clients: int = 64,
    targets: int = 8,
) -> Tuple[int, np.ndarray]:
    """Open-loop Poisson service traffic with lognormal demand.

    The baseline always-on service: exponential inter-arrivals at
    ``rate`` req/s, lognormal service demand (sigma 0.5) around
    ``mean_service_us`` — the same traffic family ``repro.serve``'s
    load harness draws, recorded instead of drawn live.
    """
    ts = np.cumsum(rng.exponential(1.0 / rate, n))
    sigma = 0.5
    mu = np.log(mean_service_us) - sigma * sigma / 2.0
    service = rng.lognormal(mu, sigma, n)
    size = rng.integers(128, 8192, n).astype(np.uint32)
    client = rng.integers(0, clients, n).astype(np.uint16)
    target = rng.integers(0, targets, n).astype(np.uint16)
    op = rng.integers(0, 4, n).astype(np.uint8)
    return KIND_REQUEST, _request_array(ts, service, size, client, target, op)


def bursty_requests(
    rng: np.random.Generator,
    n: int = 10_000,
    base_rate: float = 400.0,
    burst_rate: float = 4000.0,
    burst_fraction: float = 0.2,
    mean_burst: int = 200,
    mean_service_us: float = 500.0,
    clients: int = 64,
    targets: int = 8,
) -> Tuple[int, np.ndarray]:
    """Two-state on/off (MMPP-style) burst traffic.

    Flash-crowd shape from the paper's social/media examples: long
    quiet stretches at ``base_rate`` punctuated by bursts at
    ``burst_rate``.  ``burst_fraction`` of the requests arrive inside
    bursts of geometric mean length ``mean_burst``.
    """
    in_burst = np.zeros(n, dtype=bool)
    i = 0
    while i < n:
        burst = rng.random() < burst_fraction
        run = 1 + int(rng.geometric(1.0 / mean_burst))
        in_burst[i:i + run] = burst
        i += run
    gaps = np.where(
        in_burst,
        rng.exponential(1.0 / burst_rate, n),
        rng.exponential(1.0 / base_rate, n),
    )
    ts = np.cumsum(gaps)
    sigma = 0.6
    mu = np.log(mean_service_us) - sigma * sigma / 2.0
    service = rng.lognormal(mu, sigma, n)
    size = rng.integers(128, 65536, n).astype(np.uint32)
    client = rng.integers(0, clients, n).astype(np.uint16)
    target = rng.integers(0, targets, n).astype(np.uint16)
    op = rng.integers(0, 4, n).astype(np.uint8)
    return KIND_REQUEST, _request_array(ts, service, size, client, target, op)


def straggler_requests(
    rng: np.random.Generator,
    n: int = 5_000,
    rate: float = 800.0,
    mean_service_us: float = 400.0,
    straggler_fraction: float = 0.02,
    straggler_factor: float = 25.0,
    clients: int = 32,
    targets: int = 8,
) -> Tuple[int, np.ndarray]:
    """Mostly-fast traffic with a heavy straggler tail.

    The tail-at-scale shape the hedging layer (PR9) exists for: a
    ``straggler_fraction`` of requests take ``straggler_factor``× the
    mean demand, dominating p99 while barely moving the mean.
    """
    ts = np.cumsum(rng.exponential(1.0 / rate, n))
    service = rng.exponential(mean_service_us, n)
    slow = rng.random(n) < straggler_fraction
    service[slow] *= straggler_factor
    size = rng.integers(256, 4096, n).astype(np.uint32)
    client = rng.integers(0, clients, n).astype(np.uint16)
    target = rng.integers(0, targets, n).astype(np.uint16)
    op = np.zeros(n, dtype=np.uint8)
    return KIND_REQUEST, _request_array(ts, service, size, client, target, op)


def noc_uniform_requests(
    rng: np.random.Generator,
    n: int = 4_000,
    nodes: int = 64,
    rate: float = 2000.0,
) -> Tuple[int, np.ndarray]:
    """Uniform-random node-to-node packets for NoC replay.

    ``client``/``target`` carry source/destination node ids; the NoC
    replay sink maps them onto mesh coordinates.  Self-sends are
    remapped to the next node so every packet actually traverses links.
    """
    ts = np.cumsum(rng.exponential(1.0 / rate, n))
    src = rng.integers(0, nodes, n)
    dst = rng.integers(0, nodes, n)
    same = src == dst
    dst[same] = (dst[same] + 1) % nodes
    service = np.ones(n)
    size = np.full(n, 64, dtype=np.uint32)
    return KIND_REQUEST, _request_array(
        ts, service, size,
        src.astype(np.uint16), dst.astype(np.uint16),
        np.zeros(n, dtype=np.uint8),
    )


def noc_hotspot_requests(
    rng: np.random.Generator,
    n: int = 4_000,
    nodes: int = 16,
    rate: float = 2000.0,
    hotspot: int = 0,
    hot_fraction: float = 0.4,
) -> Tuple[int, np.ndarray]:
    """Hotspot traffic: ``hot_fraction`` of packets target one node."""
    ts = np.cumsum(rng.exponential(1.0 / rate, n))
    src = rng.integers(0, nodes, n)
    dst = rng.integers(0, nodes, n)
    hot = rng.random(n) < hot_fraction
    dst[hot] = hotspot
    same = src == dst
    dst[same] = (dst[same] + 1) % nodes
    service = np.ones(n)
    size = np.full(n, 64, dtype=np.uint32)
    return KIND_REQUEST, _request_array(
        ts, service, size,
        src.astype(np.uint16), dst.astype(np.uint16),
        np.zeros(n, dtype=np.uint8),
    )


# -- memory profiles -------------------------------------------------------


def kv_zipf_memory(
    rng: np.random.Generator,
    n: int = 50_000,
    keys: int = 1 << 16,
    alpha: float = 1.1,
    write_fraction: float = 0.1,
    line: int = 64,
    rate: float = 1e6,
) -> Tuple[int, np.ndarray]:
    """Key/value-store references: Zipf-popular keys, mostly reads.

    The in-memory k/v shape from the paper's data-centric section: a
    small hot set absorbs most references (Zipf ``alpha``), writes are
    a ``write_fraction`` minority, accesses land on 64-byte lines.
    """
    ts = np.cumsum(rng.exponential(1.0 / rate, n))
    # Bounded Zipf via inverse-CDF on the harmonic weights: exact,
    # deterministic, no rejection loop (np.random.zipf is unbounded).
    ranks = np.arange(1, keys + 1, dtype=np.float64)
    cdf = np.cumsum(ranks ** -alpha)
    cdf /= cdf[-1]
    key = np.searchsorted(cdf, rng.random(n))
    # Scatter hot ranks across the address space so popularity is not
    # spatial adjacency.
    perm = rng.permutation(keys)
    addr = (perm[key].astype(np.uint64) * np.uint64(line))
    size = np.full(n, line, dtype=np.uint16)
    op = (rng.random(n) < write_fraction).astype(np.uint8)
    tier = np.zeros(n, dtype=np.uint8)
    return KIND_MEMORY, _memory_array(ts, addr, size, op, tier)


def graph_scan_memory(
    rng: np.random.Generator,
    n: int = 50_000,
    vertices: int = 1 << 14,
    edge_bytes: int = 8,
    seq_run: int = 16,
    rate: float = 1e6,
) -> Tuple[int, np.ndarray]:
    """Graph-analytics references: sequential edge-list runs broken by
    random vertex jumps (the scan/gather mix of PageRank-style codes)."""
    runs = max(1, n // seq_run)
    starts = rng.integers(0, vertices, runs).astype(np.uint64) * np.uint64(
        64
    )
    lens = np.minimum(
        1 + rng.geometric(1.0 / seq_run, runs), 8 * seq_run
    )
    total = int(np.sum(lens))
    offsets = np.concatenate([np.arange(l, dtype=np.uint64) for l in lens])
    bases = np.repeat(starts, lens)
    addr = (bases + offsets * np.uint64(edge_bytes))[:n]
    if len(addr) < n:
        pad = np.full(n - len(addr), addr[-1] if len(addr) else 0,
                      dtype=np.uint64)
        addr = np.concatenate([addr, pad])
    ts = np.cumsum(rng.exponential(1.0 / rate, n))
    size = np.full(n, edge_bytes, dtype=np.uint16)
    op = np.zeros(n, dtype=np.uint8)
    op[rng.random(n) < 0.05] = 1
    tier = np.zeros(n, dtype=np.uint8)
    return KIND_MEMORY, _memory_array(ts, addr, size, op, tier)


def wear_hotline_memory(
    rng: np.random.Generator,
    n: int = 20_000,
    lines: int = 4096,
    hot_lines: int = 8,
    hot_fraction: float = 0.8,
    line: int = 64,
    rate: float = 1e5,
) -> Tuple[int, np.ndarray]:
    """NVM write-hammering: a handful of hot lines take most writes.

    The adversarial shape wear leveling exists for — without
    remapping, ``hot_lines`` cells absorb ``hot_fraction`` of all
    writes and die orders of magnitude early.
    """
    ts = np.cumsum(rng.exponential(1.0 / rate, n))
    hot = rng.random(n) < hot_fraction
    line_idx = np.where(
        hot,
        rng.integers(0, hot_lines, n),
        rng.integers(0, lines, n),
    ).astype(np.uint64)
    addr = line_idx * np.uint64(line)
    size = np.full(n, line, dtype=np.uint16)
    op = np.ones(n, dtype=np.uint8)  # all writes: wear is the point
    tier = np.full(n, 2, dtype=np.uint8)  # NVM tier
    return KIND_MEMORY, _memory_array(ts, addr, size, op, tier)


# -- instruction profiles --------------------------------------------------


def instr_mix(
    rng: np.random.Generator,
    n: int = 30_000,
    alu_fraction: float = 0.55,
    mem_fraction: float = 0.30,
    branch_fraction: float = 0.15,
    regs: int = 32,
    rate: float = 1e9,
) -> Tuple[int, np.ndarray]:
    """A dynamic instruction stream with a fixed ALU/mem/branch mix.

    PCs advance sequentially (4-byte) and jump on taken branches —
    enough structure to exercise the processor-side interval stats
    without modeling a real ISA.  ``op``: 0 ALU, 1 load, 2 store,
    3 branch.
    """
    fractions = np.array(
        [alu_fraction, mem_fraction * 0.7, mem_fraction * 0.3,
         branch_fraction]
    )
    fractions = fractions / fractions.sum()
    op = rng.choice(4, size=n, p=fractions).astype(np.uint8)
    taken = (op == 3) & (rng.random(n) < 0.6)
    step = np.full(n, 4, dtype=np.int64)
    step[taken] = rng.integers(-2048, 2048, int(taken.sum())) * 4
    pc = (np.uint64(0x400000) + np.cumsum(step).astype(np.int64).astype(
        np.uint64
    ))
    ts = np.cumsum(rng.exponential(1.0 / rate, n))
    dst = rng.integers(0, regs, n).astype(np.uint8)
    src1 = rng.integers(0, regs, n).astype(np.uint8)
    src2 = rng.integers(0, regs, n).astype(np.uint8)
    imm = rng.integers(-(1 << 15), 1 << 15, n).astype(np.int32)
    arr = np.empty(n, dtype=dtype_for(KIND_INSTRUCTION))
    arr["ts"] = ts
    arr["pc"] = pc
    arr["op"] = op
    arr["dst"] = dst
    arr["src1"] = src1
    arr["src2"] = src2
    arr["imm"] = imm
    return KIND_INSTRUCTION, arr


#: name -> generator.  Each takes (rng, **params) and returns
#: (kind, structured array) with nondecreasing timestamps.
PROFILES: Dict[str, Callable[..., Tuple[int, np.ndarray]]] = {
    "steady-requests": steady_requests,
    "bursty-requests": bursty_requests,
    "straggler-requests": straggler_requests,
    "noc-uniform": noc_uniform_requests,
    "noc-hotspot": noc_hotspot_requests,
    "kv-zipf": kv_zipf_memory,
    "graph-scan": graph_scan_memory,
    "wear-hotline": wear_hotline_memory,
    "instr-mix": instr_mix,
}


def profile_names() -> Tuple[str, ...]:
    return tuple(sorted(PROFILES))


def generate(
    profile: str, seed: int = 0, **params: Any
) -> Tuple[int, np.ndarray]:
    """Run one registered profile; returns ``(kind, array)``."""
    try:
        fn = PROFILES[profile]
    except KeyError:
        raise ValueError(
            f"unknown trace profile {profile!r}; "
            f"choose from {', '.join(profile_names())}"
        ) from None
    rng = np.random.default_rng(seed)
    return fn(rng, **params)


def generate_trace(
    target: Union[str, BinaryIO],
    profile: str,
    seed: int = 0,
    **params: Any,
) -> int:
    """Generate a profile straight into a trace file; returns count."""
    kind, arr = generate(profile, seed=seed, **params)
    meta = {
        "profile": profile,
        "seed": seed,
        "params": {k: v for k, v in sorted(params.items())},
    }
    with TraceWriter(target, meta=meta) as w:
        w.write_block(kind, arr)
        return w.records_written
