"""Shared fixtures for the serve test suite.

Every HTTP-level test boots a real :class:`ExperimentServer` on an
ephemeral loopback port in a daemon thread — the exact composition
``python -m repro serve`` runs — and talks to it with the blocking
stdlib client.  Serial backend by default: deterministic, in-process,
and the admission/coalescing behavior under test is backend-agnostic.
"""

from __future__ import annotations

import time

import pytest

from repro.serve import ServeClient, ServerThread, build_app


@pytest.fixture
def serve_factory():
    """Callable building (handle, client) pairs, torn down afterward."""
    handles: list[ServerThread] = []
    clients: list[ServeClient] = []

    def _make(**options):
        options.setdefault("backend", "serial")
        handle = ServerThread(build_app(**options)).start()
        handles.append(handle)
        clients.append(ServeClient(*handle.address, timeout_s=30.0))
        return handle, clients[-1]

    yield _make
    for client in clients:
        client.close()
    for handle in handles:
        handle.stop(drain=False)


def wait_until(predicate, timeout_s: float = 10.0, interval_s: float = 0.01):
    """Poll ``predicate`` until truthy or fail the test on timeout."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(interval_s)
    raise AssertionError("condition not reached within timeout")
