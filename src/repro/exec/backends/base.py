"""The Backend protocol: a Runner that names itself.

A *backend* is a :class:`~repro.exec.runners.Runner` (the engine's
poll-based execution seam: ``capacity``/``active``/``submit``/``poll``/
``shutdown``) that also describes itself via
:meth:`Backend.capabilities`.  The description is the backend's
``name`` (``serial``, ``pool``, ``socket``, ``array``), which
:class:`~repro.exec.engine.RunReport` and the resilience campaign
report.

Runners that predate the protocol keep working: :func:`capabilities_of`
names any object that only implements the bare Runner protocol after
its type.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, runtime_checkable

from ..runners import Runner

__all__ = ["Backend", "BackendCapabilities", "capabilities_of"]


@dataclass(frozen=True)
class BackendCapabilities:
    """Self-description a backend hands to its reports."""

    name: str


@runtime_checkable
class Backend(Runner, Protocol):
    """A Runner that can describe itself."""

    def capabilities(self) -> BackendCapabilities:
        ...


def capabilities_of(runner: Runner) -> BackendCapabilities:
    """Capabilities of any runner, named after its type if it has none."""
    caps = getattr(runner, "capabilities", None)
    if callable(caps):
        got = caps()
        if isinstance(got, BackendCapabilities):
            return got
    return BackendCapabilities(name=type(runner).__name__)
