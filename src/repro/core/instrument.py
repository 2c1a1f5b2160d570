"""Cross-layer instrumentation: counters, gauges and quantile histograms
shared by every simulator.

The paper's agenda ("21st Century Computer Architecture") leans on
event-driven simulation for its quantitative claims, and the lesson of
long-lived architecture simulators (gem5's unified stats/probe system)
is that a *single* metrics substrate — not per-model ad-hoc counters —
is what keeps a growing simulator trustworthy.  This module provides
that substrate:

* :class:`Counter` — monotonically increasing event counts.
* :class:`Gauge` — last-value samples (queue depths, stored energy).
* :class:`Histogram` — streaming distribution summary with bounded
  memory: exact count/sum/min/max plus a fixed-size deterministic
  reservoir for quantiles.
* :class:`MetricsRegistry` — the factory/namespace that owns them all.

**Near-zero overhead when disabled**: a disabled registry hands out
shared null instruments whose mutators are empty methods, so model code
can instrument unconditionally (``self.stats.requests.inc()``) without
guarding every call site.  The event kernel's hot path adds only a
single attribute check per event (see :mod:`repro.core.events`).

A process-wide *session* registry supports the CLI's ``--instrument``
flag: models default to :func:`default_registry`, which is the shared
null registry unless a session has been enabled.
"""

from __future__ import annotations

import math
import zlib
from typing import Any, Dict, Iterable, Optional

import numpy as np

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "current_session",
    "default_registry",
    "disable_session",
    "enable_session",
    "install_session",
]


class Counter:
    """Monotonic event counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def snapshot(self) -> dict:
        return {"type": "counter", "value": self.value}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name}={self.value})"


class Gauge:
    """Last-value metric (queue depth, stored joules, fleet size)."""

    __slots__ = ("name", "value", "samples")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = float("nan")
        self.samples = 0

    def set(self, value: float) -> None:
        self.value = float(value)
        self.samples += 1

    def snapshot(self) -> dict:
        return {"type": "gauge", "value": self.value, "samples": self.samples}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Gauge({self.name}={self.value})"


class Histogram:
    """Streaming distribution summary with bounded memory.

    Tracks exact ``count``/``sum``/``min``/``max`` and keeps a
    fixed-size uniform random reservoir (Vitter's algorithm R) for
    quantile estimates.  The reservoir's RNG is a private xorshift64
    seeded from the metric name, so identical runs produce identical
    quantile estimates without touching any NumPy stream the models
    depend on for their own reproducibility.
    """

    __slots__ = (
        "name", "count", "total", "min", "max", "_reservoir", "_capacity",
        "_rng_state", "_sorted_cache",
    )

    def __init__(self, name: str, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._capacity = capacity
        self._reservoir: list[float] = []
        # Seed from the name so streams are stable per metric.  crc32,
        # not hash(): str hashes are salted per process.
        self._rng_state = zlib.crc32(name.encode()) or 0x9E3779B97F4A7C15
        self._sorted_cache: Optional[list[float]] = None

    def _next_rand(self) -> int:
        x = self._rng_state
        x ^= (x << 13) & 0xFFFFFFFFFFFFFFFF
        x ^= x >> 7
        x ^= (x << 17) & 0xFFFFFFFFFFFFFFFF
        self._rng_state = x
        return x

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self._sorted_cache = None
        if len(self._reservoir) < self._capacity:
            self._reservoir.append(value)
        else:
            j = self._next_rand() % self.count
            if j < self._capacity:
                self._reservoir[j] = value

    def observe_many(self, values) -> None:
        """Vectorized bulk :meth:`observe` for models that batch.

        Matches the scalar loop exactly for ``count``, ``min``/``max``,
        and the quantile reservoir (same xorshift stream, same
        replacement decisions); ``total`` is accumulated with one
        vectorized sum, which can differ from sequential scalar adds in
        the last ulp.
        """
        arr = np.asarray(values, dtype=float).ravel()
        n = arr.size
        if n == 0:
            return
        self._sorted_cache = None
        self.total += float(arr.sum())
        lo = float(arr.min())
        hi = float(arr.max())
        if lo < self.min:
            self.min = lo
        if hi > self.max:
            self.max = hi
        res = self._reservoir
        cap = self._capacity
        start = 0
        if len(res) < cap:
            # Fill phase draws no randomness, exactly like observe().
            take = min(cap - len(res), n)
            res.extend(arr[:take].tolist())
            self.count += take
            start = take
        if start < n:
            count = self.count
            nr = self._next_rand
            for v in arr[start:].tolist():
                count += 1
                j = nr() % count
                if j < cap:
                    res[j] = v
            self.count = count

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else float("nan")

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile from the reservoir."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self._reservoir:
            return float("nan")
        if self._sorted_cache is None:
            self._sorted_cache = sorted(self._reservoir)
        data = self._sorted_cache
        idx = q * (len(data) - 1)
        lo = int(math.floor(idx))
        hi = int(math.ceil(idx))
        if lo == hi:
            return data[lo]
        frac = idx - lo
        return data[lo] * (1.0 - frac) + data[hi] * frac

    def snapshot(self) -> dict:
        return {
            "type": "histogram",
            "count": self.count,
            "mean": self.mean,
            "min": self.min if self.count else float("nan"),
            "max": self.max if self.count else float("nan"),
            "p50": self.quantile(0.5),
            "p90": self.quantile(0.9),
            "p99": self.quantile(0.99),
        }

    # -- mergeable state (cross-process telemetry) -------------------------

    def to_state(self) -> dict:
        """Serializable state for shipping across a process boundary."""
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "capacity": self._capacity,
            "reservoir": list(self._reservoir),
        }

    def merge_state(self, state: dict) -> None:
        """Fold another histogram's :meth:`to_state` into this one.

        ``count``/``total`` add and ``min``/``max`` combine exactly, so
        the merge is associative and commutative for those fields.  The
        quantile reservoirs are merged as a sorted multiset; when the
        union exceeds capacity it is reduced by a deterministic
        systematic subsample over the sorted values, which keeps the
        merge commutative (the sorted union is order-free) and
        associative as long as the union stays within capacity.
        """
        if not state["count"]:
            return
        self.count += state["count"]
        self.total += state["total"]
        if state["min"] < self.min:
            self.min = state["min"]
        if state["max"] > self.max:
            self.max = state["max"]
        combined = sorted(self._reservoir + [float(v) for v in state["reservoir"]])
        m = len(combined)
        cap = self._capacity
        if m > cap:
            combined = [combined[int((i + 0.5) * m / cap)] for i in range(cap)]
        self._reservoir = combined
        self._sorted_cache = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Histogram({self.name}, n={self.count})"


class _NullCounter(Counter):
    """Shared no-op counter handed out by disabled registries."""

    __slots__ = ()

    def inc(self, n: int = 1) -> None:
        pass


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:
        pass


class _NullHistogram(Histogram):
    __slots__ = ()

    def observe(self, value: float) -> None:
        pass

    def observe_many(self, values) -> None:
        pass


class ScopedMetrics:
    """A per-component view onto a registry (names share one prefix)."""

    __slots__ = ("_registry", "_prefix")

    def __init__(self, registry: "MetricsRegistry", prefix: str) -> None:
        self._registry = registry
        self._prefix = prefix

    def counter(self, name: str) -> Counter:
        return self._registry.counter(f"{self._prefix}.{name}")

    def gauge(self, name: str) -> Gauge:
        return self._registry.gauge(f"{self._prefix}.{name}")

    def histogram(self, name: str, capacity: int = 4096) -> Histogram:
        return self._registry.histogram(f"{self._prefix}.{name}", capacity)


class MetricsRegistry:
    """Factory and namespace for all instruments of one simulation.

    ``enabled=False`` (the shared :data:`NULL_REGISTRY`) returns null
    instruments from every factory method, making instrumentation calls
    in model code effectively free; check :attr:`enabled` only around
    genuinely expensive preparation (building a payload dict, say), not
    around plain ``inc``/``observe`` calls.
    """

    _NULL_COUNTER = _NullCounter("null")
    _NULL_GAUGE = _NullGauge("null")
    _NULL_HISTOGRAM = _NullHistogram("null")

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        # Optional span tracer (see repro.obs.spans).  The kernel reads
        # this once per run() call — not per event — so a None tracer
        # costs one getattr per drain.
        self.tracer: Optional[Any] = None

    # -- factories ---------------------------------------------------------

    def counter(self, name: str) -> Counter:
        if not self.enabled:
            return self._NULL_COUNTER
        try:
            return self._counters[name]
        except KeyError:
            c = self._counters[name] = Counter(name)
            return c

    def gauge(self, name: str) -> Gauge:
        if not self.enabled:
            return self._NULL_GAUGE
        try:
            return self._gauges[name]
        except KeyError:
            g = self._gauges[name] = Gauge(name)
            return g

    def histogram(self, name: str, capacity: int = 4096) -> Histogram:
        if not self.enabled:
            return self._NULL_HISTOGRAM
        try:
            return self._histograms[name]
        except KeyError:
            h = self._histograms[name] = Histogram(name, capacity)
            return h

    def scoped(self, prefix: str) -> ScopedMetrics:
        """Per-component namespace, e.g. ``registry.scoped("cluster")``."""
        if not prefix:
            raise ValueError("prefix must be non-empty")
        return ScopedMetrics(self, prefix)

    # -- reporting ---------------------------------------------------------

    def snapshot(self) -> dict:
        """All instruments as a plain nested dict (stable key order)."""
        out: dict = {}
        for name in sorted(self._counters):
            out[name] = self._counters[name].snapshot()
        for name in sorted(self._gauges):
            out[name] = self._gauges[name].snapshot()
        for name in sorted(self._histograms):
            out[name] = self._histograms[name].snapshot()
        return out

    def health(self, prefix: str = "resilience") -> dict:
        """Flat name->value view of counters/gauges under one prefix.

        The resilience layer publishes its operational signals
        (``resilience.checkpoints_taken``, ``resilience.checkpoint_
        pending_events``, the exec engine's ``exec.jobs.resumed``, ...)
        as ordinary instruments; this accessor is the one-call health
        read-out the campaign CLI embeds in its report.  Histograms are
        summarised by their snapshot dict.
        """
        if not prefix:
            raise ValueError("prefix must be non-empty")
        dot = prefix + "."
        out: dict = {}
        for name, ctr in self._counters.items():
            if name == prefix or name.startswith(dot):
                out[name] = ctr.value
        for name, gauge in self._gauges.items():
            if name == prefix or name.startswith(dot):
                out[name] = gauge.value
        for name, hist in self._histograms.items():
            if name == prefix or name.startswith(dot):
                out[name] = hist.snapshot()
        return dict(sorted(out.items()))

    def report(self) -> str:
        """Human-readable metrics table (the CLI's --instrument output)."""
        lines = []
        fmt = "{:.4g}".format
        for name, snap in self.snapshot().items():
            if snap["type"] == "counter":
                lines.append(f"  {name:<44s} {snap['value']}")
            elif snap["type"] == "gauge":
                lines.append(f"  {name:<44s} {fmt(snap['value'])}")
            else:
                lines.append(
                    f"  {name:<44s} n={snap['count']} mean={fmt(snap['mean'])}"
                    f" p50={fmt(snap['p50'])} p90={fmt(snap['p90'])}"
                    f" p99={fmt(snap['p99'])} max={fmt(snap['max'])}"
                )
        if not lines:
            return "  (no instruments registered)"
        return "\n".join(lines)

    def merge_counts(self, pairs: Iterable[tuple[str, int]]) -> None:
        """Bulk-add counter deltas (used by models that batch locally)."""
        for name, delta in pairs:
            self.counter(name).inc(delta)

    # -- mergeable state (cross-process telemetry) -------------------------

    @staticmethod
    def _gauge_key(value: float) -> float:
        # NaN (the unset value) sorts below every real sample.
        return -math.inf if math.isnan(value) else value

    def to_state(self) -> dict:
        """Picklable/JSON-able state of every instrument, stable order.

        The inverse is :meth:`merge_state`; together they let worker
        processes ship their registries with their results and the
        engine fold them into one report deterministically.
        """
        return {
            "counters": {n: self._counters[n].value for n in sorted(self._counters)},
            "gauges": {
                n: {"value": self._gauges[n].value, "samples": self._gauges[n].samples}
                for n in sorted(self._gauges)
            },
            "histograms": {
                n: self._histograms[n].to_state() for n in sorted(self._histograms)
            },
        }

    def merge_state(self, state: dict) -> None:
        """Fold another registry's :meth:`to_state` into this one.

        Merge semantics are conflict-free and order-independent:

        * counters add;
        * gauges keep the maximum observed value (NaN counts as unset)
          and sum their sample counts — across processes there is no
          meaningful "last" value, so the merged gauge reads as the peak
          across contributors;
        * histograms merge exactly for count/total/min/max and by
          deterministic sorted-multiset union for the quantile
          reservoir (see :meth:`Histogram.merge_state`).

        Names are visited in sorted order so repeated merges create
        instruments in a stable order.
        """
        for name in sorted(state.get("counters", ())):
            self.counter(name).inc(state["counters"][name])
        for name in sorted(state.get("gauges", ())):
            st = state["gauges"][name]
            g = self.gauge(name)
            if st["samples"]:
                if g.samples == 0 or self._gauge_key(st["value"]) > self._gauge_key(g.value):
                    g.value = float(st["value"])
                g.samples += st["samples"]
        for name in sorted(state.get("histograms", ())):
            st = state["histograms"][name]
            self.histogram(name, capacity=st["capacity"]).merge_state(st)

    @classmethod
    def from_state(cls, state: dict) -> "MetricsRegistry":
        """A fresh enabled registry rebuilt from :meth:`to_state`."""
        reg = cls(enabled=True)
        reg.merge_state(state)
        return reg


NULL_REGISTRY = MetricsRegistry(enabled=False)
"""Shared disabled registry; every factory method returns a null
instrument."""

_session: Optional[MetricsRegistry] = None


def enable_session() -> MetricsRegistry:
    """Install a process-wide live registry (CLI ``--instrument``).

    Simulators constructed without an explicit ``metrics=`` argument
    report into the session registry from then on.  Returns it so the
    caller can print :meth:`MetricsRegistry.report` afterwards.
    """
    global _session
    _session = MetricsRegistry(enabled=True)
    return _session


def disable_session() -> None:
    """Drop the session registry; models fall back to the null registry."""
    global _session
    _session = None


def install_session(registry: Optional[MetricsRegistry]) -> Optional[MetricsRegistry]:
    """Swap in a specific session registry, returning the previous one.

    Worker processes use this to scope a private registry around one job
    attempt (``prev = install_session(mine) ... install_session(prev)``)
    so telemetry from the job never leaks into — or picks up — whatever
    session the surrounding process had.
    """
    global _session
    prev = _session
    _session = registry
    return prev


def current_session() -> Optional[MetricsRegistry]:
    """The installed session registry, or None when instrumentation is off."""
    return _session


def default_registry() -> MetricsRegistry:
    """The session registry if enabled, else the shared null registry."""
    return _session if _session is not None else NULL_REGISTRY
