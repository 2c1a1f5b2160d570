"""Trace ingestion and replay: the second simulation input mode.

``repro.traces`` turns the simulators from draw-a-workload tools into
replay-a-workload tools (ROADMAP item 5):

* :mod:`repro.traces.format` — a versioned, CRC-validated,
  length-prefixed binary container for request / memory / instruction
  records, with streaming reader/writer and a typed error taxonomy
  (corrupt or truncated input is always a :class:`TraceError`, never a
  crash).
* :mod:`repro.traces.generators` — seeded synthetic generators for the
  paper's Table A.1/A.2 emerging-app profiles (bursty services,
  stragglers, Zipf k/v stores, graph scans, NVM write-hammers,
  instruction mixes).
* :mod:`repro.traces.stats` — drmemtrace-style online interval
  statistics, chunk-size invariant by construction.
* :mod:`repro.traces.replay` — sinks that feed traces into the
  existing simulators without starting the event kernel, with a
  deterministic :meth:`ReplayResult.digest` for cross-mode/cross-backend
  parity.

The scenario library (:mod:`repro.scenarios`) names bundles of
generator + sink + params and pins their digests.
"""

from .format import (
    FORMAT_VERSION,
    KIND_INSTRUCTION,
    KIND_MEMORY,
    KIND_REQUEST,
    InstructionRecord,
    MemoryRecord,
    RequestRecord,
    TraceCorruptError,
    TraceError,
    TraceFormatError,
    TraceReader,
    TraceVersionError,
    TraceWriter,
    read_trace,
    write_trace,
)
from .generators import PROFILES, generate, generate_trace, profile_names
from .replay import SINKS, ReplayResult, replay
from .stats import IntervalStats

__all__ = [
    "FORMAT_VERSION",
    "KIND_INSTRUCTION",
    "KIND_MEMORY",
    "KIND_REQUEST",
    "InstructionRecord",
    "IntervalStats",
    "MemoryRecord",
    "PROFILES",
    "ReplayResult",
    "RequestRecord",
    "SINKS",
    "TraceCorruptError",
    "TraceError",
    "TraceFormatError",
    "TraceReader",
    "TraceVersionError",
    "TraceWriter",
    "generate",
    "generate_trace",
    "profile_names",
    "read_trace",
    "replay",
    "write_trace",
]
