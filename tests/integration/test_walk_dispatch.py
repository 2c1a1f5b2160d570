"""Which path the NoC and cluster models take.

``MeshNoC.run`` and ``ClusterSimulator.run`` walk their own event order
only when :func:`repro.core.events.kernel_unobserved` holds: no ``sim``
passed, no init hook installed and no span tracer on the session
registry.  With no observer the kernel must not run at all; with any
one of the three it must still execute kernel events.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import instrument
from repro.core.events import Simulator, kernel_unobserved
from repro.datacenter.cluster import Balancer, ClusterConfig, ClusterSimulator
from repro.interconnect import MeshNoC, NoCConfig
from repro.obs import TelemetryOptions, begin_worker
from repro.obs.spans import Tracer


def _noc(sim=None):
    pairs = [((0, 0), (3, 3)), ((3, 0), (0, 3)), ((1, 1), (2, 2))]
    return MeshNoC(NoCConfig(width=4, height=4)).run(
        pairs, injection_times=np.array([0.0, 0.5, 2.0]), sim=sim
    )


def _cluster(sim=None):
    cfg = ClusterConfig(n_servers=4, balancer=Balancer.JSQ)
    return ClusterSimulator(cfg).run(3.0, 200, rng=1, sim=sim)


MODELS = {"noc": _noc, "cluster": _cluster}


@pytest.fixture
def kernel_runs(monkeypatch):
    """Every simulator whose ``run`` is called, in call order."""
    sims = []
    original = Simulator.run

    def recording_run(self, *args, **kwargs):
        sims.append(self)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Simulator, "run", recording_run)
    return sims


@pytest.mark.parametrize("model", sorted(MODELS))
def test_unobserved_run_never_starts_the_kernel(model, monkeypatch):
    assert kernel_unobserved(None)

    def refuse(self, *args, **kwargs):
        raise AssertionError("the event kernel ran")

    monkeypatch.setattr(Simulator, "run", refuse)
    result = MODELS[model]()
    assert result is not None


@pytest.mark.parametrize("model", sorted(MODELS))
def test_passed_sim_runs_the_kernel(model):
    sim = Simulator()
    assert not kernel_unobserved(sim)
    MODELS[model](sim)
    assert sim.stats.events_executed > 0


@pytest.mark.parametrize("model", sorted(MODELS))
def test_init_hook_runs_the_kernel(model, kernel_runs):
    tel = begin_worker(TelemetryOptions(trace=False))
    try:
        assert not kernel_unobserved(None)
        MODELS[model]()
    finally:
        tel.finish()
    assert [s.stats.events_executed > 0 for s in kernel_runs] == [True]


@pytest.mark.parametrize("model", sorted(MODELS))
def test_session_tracer_runs_the_kernel(model, kernel_runs):
    prev = instrument.current_session()
    registry = instrument.enable_session(trace_capacity=64)
    registry.tracer = Tracer()
    try:
        assert not kernel_unobserved(None)
        MODELS[model]()
    finally:
        instrument.install_session(prev)
    assert [s.stats.events_executed > 0 for s in kernel_runs] == [True]
    assert any(r.name == f"{model}.run" for r in registry.tracer.sink.records())
