"""Metric names, units and summary statistics shared by the ledger.

Standard library only: ``run.py`` and ``compare.py`` import this
without importing ``repro``.  The metric names, units and bounds are
read from ``BENCHMARK.json`` at the repository root, which declares
them once.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Dict, Sequence

BENCHMARK = Path(__file__).resolve().parent.parent.parent / "BENCHMARK.json"
SPEC = json.loads(BENCHMARK.read_text(encoding="utf-8"))

#: End-to-end metrics (untraced run): name -> unit.  A throughput
#: *item* is a trace record on the replay workloads and a request on
#: ``serve-mix``; the latencies are of one *op*: a replay of one
#: trace, or a request.
END_TO_END: Dict[str, str] = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}

#: Per-layer metrics (traced run): name -> unit.
PER_LAYER: Dict[str, str] = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile (``q`` in [0, 1]) of ``values``."""
    xs = sorted(values)
    if not xs:
        raise ValueError("quantile of no values")
    if len(xs) == 1:
        return float(xs[0])
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return float(xs[lo] + (xs[hi] - xs[lo]) * (pos - lo))


def summary(values: Sequence[float]) -> Dict[str, float]:
    """Median, first and third quartile (as ``statistics.quantiles``
    computes them by default), and sample count."""
    if len(values) >= 2:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = float(values[0])
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}
