"""Online interval statistics over trace streams (drmemtrace style).

Mirrors the shape of drmemtrace's online ``rwstats`` analyzer
(SNIPPETS.md Snippet 2): as records stream through, a snapshot is cut
every ``interval`` records — not every N seconds — so the output is a
time series of per-interval aggregates (reference counts, read/write
split, touched footprint, service demand, op mix) that shows phase
behavior a single end-of-run total would flatten.

Chunk-size invariance is a hard contract here, tested by a Hypothesis
property: feeding the same records as one block or as many arbitrary
slices must produce byte-identical snapshots.  Floating-point addition
is not associative, so the implementation never accumulates partial
sums across chunk boundaries — incoming slices are buffered per
interval and reduced exactly once, over one contiguous concatenated
array, when the interval closes.

Distinct counts (footprint lines, clients, targets) sort a copy and
count the steps between neighbours instead of calling ``np.unique``:
from numpy 2.3 on a bare ``np.unique`` builds a hash table, which is
3-10x slower on these intervals than the sort, and the count is the
same integer either way.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

import numpy as np

from .format import (
    KIND_INSTRUCTION,
    KIND_MEMORY,
    KIND_REQUEST,
    kind_name,
)

__all__ = ["IntervalStats"]

#: Cache-line granularity used for footprint (unique-lines) stats.
_LINE = 64


def _distinct(values: np.ndarray) -> int:
    """How many distinct values a 1-D integer array holds."""
    if not len(values):
        return 0
    s = np.sort(values)
    return int(np.count_nonzero(s[1:] != s[:-1])) + 1


def _reduce_request(arr: np.ndarray) -> Dict[str, Any]:
    return {
        "count": int(len(arr)),
        "service_us_sum": float(np.sum(arr["service_us"])),
        "service_us_max": float(np.max(arr["service_us"])),
        "bytes": int(np.sum(arr["size"], dtype=np.int64)),
        "clients": _distinct(arr["client"]),
        "targets": _distinct(arr["target"]),
    }


def _reduce_memory(arr: np.ndarray) -> Dict[str, Any]:
    writes = int(np.count_nonzero(arr["op"]))
    return {
        "count": int(len(arr)),
        "reads": int(len(arr)) - writes,
        "writes": writes,
        "bytes": int(np.sum(arr["size"], dtype=np.int64)),
        "unique_lines": _distinct(arr["addr"] // np.uint64(_LINE)),
    }


def _reduce_instruction(arr: np.ndarray) -> Dict[str, Any]:
    ops = np.bincount(arr["op"], minlength=4)
    return {
        "count": int(len(arr)),
        "alu": int(ops[0]),
        "loads": int(ops[1]),
        "stores": int(ops[2]),
        "branches": int(ops[3]),
    }


_REDUCERS = {
    KIND_REQUEST: _reduce_request,
    KIND_MEMORY: _reduce_memory,
    KIND_INSTRUCTION: _reduce_instruction,
}


class IntervalStats:
    """Count-based interval aggregator over trace blocks.

    Feed ``(kind, structured array)`` pairs in stream order (the shape
    :meth:`TraceReader.blocks` yields); snapshots land in
    :attr:`snapshots` as plain dicts every ``interval`` records, and
    :meth:`finish` closes the trailing partial interval and returns the
    whole-stream summary.
    """

    def __init__(self, interval: int = 10_000) -> None:
        if interval < 1:
            raise ValueError("interval must be >= 1")
        self.interval = interval
        self.snapshots: List[Dict[str, Any]] = []
        self._pending: List[Tuple[int, np.ndarray]] = []
        self._pending_count = 0
        self._total = 0
        self._finished = False

    def feed(self, kind: int, arr: np.ndarray) -> None:
        """Consume one block (or any slice of a stream) of records."""
        if self._finished:
            raise ValueError("stats already finished")
        if kind not in _REDUCERS:
            raise ValueError(f"unknown record kind {kind}")
        pos = 0
        n = len(arr)
        while pos < n:
            room = self.interval - self._pending_count
            take = min(room, n - pos)
            self._pending.append((kind, arr[pos:pos + take]))
            self._pending_count += take
            pos += take
            if self._pending_count == self.interval:
                self._close()

    def _close(self) -> None:
        if not self._pending_count:
            return
        # One contiguous array per kind, reduced exactly once: the
        # concatenation erases where the chunk boundaries were, which
        # is what makes snapshots chunk-size invariant.
        by_kind: Dict[int, List[np.ndarray]] = {}
        for kind, piece in self._pending:
            by_kind.setdefault(kind, []).append(piece)
        first_ts = float(self._pending[0][1]["ts"][0])
        last_ts = float(self._pending[-1][1]["ts"][-1])
        snap: Dict[str, Any] = {
            "index": len(self.snapshots),
            "records": self._pending_count,
            "ts_first": first_ts,
            "ts_last": last_ts,
        }
        for kind in sorted(by_kind):
            merged = (
                by_kind[kind][0]
                if len(by_kind[kind]) == 1
                else np.concatenate(by_kind[kind])
            )
            snap[kind_name(kind)] = _REDUCERS[kind](merged)
        self.snapshots.append(snap)
        self._total += self._pending_count
        self._pending.clear()
        self._pending_count = 0

    @property
    def records_seen(self) -> int:
        return self._total + self._pending_count

    def finish(self) -> Dict[str, Any]:
        """Close the trailing partial interval; return the summary."""
        if not self._finished:
            self._close()
            self._finished = True
        summary: Dict[str, Any] = {
            "interval": self.interval,
            "intervals": len(self.snapshots),
            "records": self._total,
        }
        for key in ("request", "memory", "instruction"):
            per = [s[key] for s in self.snapshots if key in s]
            if per:
                total: Dict[str, Any] = {}
                for field in per[0]:
                    if field in ("service_us_max",):
                        total[field] = max(p[field] for p in per)
                    elif field in ("unique_lines", "clients", "targets"):
                        # Per-interval uniques don't sum to a global
                        # unique; report the peak interval instead.
                        total[field] = max(p[field] for p in per)
                    else:
                        total[field] = sum(p[field] for p in per)
                summary[key] = total
        return summary
