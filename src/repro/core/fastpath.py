"""Fast-path policy: mode selection, tuning constants, counters.

The kernel has one fast path, the macro batch: a model bulk-loads a
train with :meth:`~repro.core.events.Simulator.schedule_many` /
:meth:`~repro.core.events.Simulator.schedule_batch` whose callback
carries a batch twin (:func:`repro.core.macro.as_macro`).  That load
*declares* a span of the in-order lane, and the drain hands the span to
the twin in one call instead of dispatching each event.  Nothing else
batches: events scheduled one at a time never do, whatever their
callback.  The mechanism (span records, guard checks, the drain-loop
gate) lives in ``events.Simulator``; this module holds the policy.

Mode selection
--------------
``REPRO_FASTPATH`` ∈ :data:`MODES` (default ``auto``), read once per
:class:`~repro.core.events.Simulator` construction and overridable per
instance with ``Simulator(fastpath=...)``.  ``off`` is the scalar
reference: no span records, every event dispatched one at a time.  The
golden determinism suites run both modes and pin identical executed
streams.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

__all__ = [
    "ENV_VAR",
    "MODES",
    "FastPathStats",
    "resolve_mode",
]

ENV_VAR = "REPRO_FASTPATH"
MODES = ("off", "auto")

#: Smallest span worth a batch attempt: below this the per-attempt
#: overhead (record lookup + guard checks) exceeds the dispatch saved.
MIN_RUN = 16
#: Events to drain generally before re-attempting after a declined or
#: too-short attempt — bounds attempt overhead when out-of-order events
#: keep clipping a span just ahead of the cursor.
RETRY_BACKOFF = 64


def resolve_mode(explicit: "str | None" = None) -> str:
    """Validated fast-path mode: ``explicit`` if given, else ``$REPRO_FASTPATH``,
    else ``auto``."""
    raw = explicit if explicit is not None else os.environ.get(ENV_VAR, "auto")
    mode = str(raw).strip().lower()
    if mode not in MODES:
        raise ValueError(
            f"fastpath mode must be one of {MODES}, got {raw!r}"
            f" (set {ENV_VAR} or Simulator(fastpath=...))"
        )
    return mode


@dataclass
class FastPathStats:
    """Counters describing fast-path behavior (``sim.fastpath_stats``).

    ``batches``/``batched_events`` count committed macro executions;
    ``aborts`` counts batches that stopped early (hazard horizon — the
    tail ran on the general path or a later batch); ``deopts`` counts
    attempts refused up front because an observer made batching unsafe;
    ``declines`` counts twins that returned 0.  ``traces_installed`` is
    kept for readers of the counter set and always reads 0: the kernel
    has no trace-specialized executors.
    """

    batches: int = 0
    batched_events: int = 0
    traces_installed: int = 0
    aborts: int = 0
    deopts: int = 0
    declines: int = 0
