"""Which path the NoC and cluster models take.

``MeshNoC.run`` and ``ClusterSimulator.run`` run on the event kernel
exactly when the caller passes a ``sim``; without one they walk their
own event order.  Observers do not change the path: an init hook or a
session span tracer leaves the walk in place, and under a tracer the
walk emits one ``{model}.run`` span with ``path="walk"`` whose name,
category and sim times match the kernel path's span.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import instrument
from repro.core.events import Simulator
from repro.datacenter.cluster import (
    Balancer,
    ClusterConfig,
    ClusterResult,
    ClusterSimulator,
)
from repro.interconnect import MeshNoC, NoCConfig
from repro.obs import TelemetryOptions, begin_worker
from repro.obs.spans import Tracer


def _noc(sim=None, max_cycles=200_000):
    pairs = [((0, 0), (3, 3)), ((3, 0), (0, 3)), ((1, 1), (2, 2))]
    return MeshNoC(NoCConfig(width=4, height=4)).run(
        pairs, injection_times=np.array([0.0, 0.5, 2.0]),
        max_cycles=max_cycles, sim=sim,
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
    def refuse(self, *args, **kwargs):
        raise AssertionError("the event kernel ran")

    monkeypatch.setattr(Simulator, "run", refuse)
    result = MODELS[model]()
    assert result is not None


@pytest.mark.parametrize("model", sorted(MODELS))
def test_passed_sim_runs_the_kernel(model):
    sim = Simulator()
    MODELS[model](sim)
    assert sim.stats.events_executed > 0


@pytest.mark.parametrize("model", sorted(MODELS))
def test_init_hook_keeps_the_walk(model, kernel_runs):
    tel = begin_worker(TelemetryOptions(trace=False))
    try:
        MODELS[model]()
    finally:
        tel.finish()
    assert kernel_runs == []


@pytest.mark.parametrize("model", sorted(MODELS))
def test_session_tracer_keeps_the_walk(model, kernel_runs):
    prev = instrument.current_session()
    registry = instrument.enable_session(trace_capacity=64)
    registry.tracer = Tracer()
    try:
        MODELS[model]()
    finally:
        instrument.install_session(prev)
    assert kernel_runs == []
    spans = registry.tracer.sink.records()
    assert [(r.name, r.category, dict(r.attrs)["path"]) for r in spans] == [
        (f"{model}.run", "model", "walk")
    ]


def _outcome(result):
    """A result's fields in comparable form (array bytes, not floats)."""
    if isinstance(result, ClusterResult):
        return (result.latencies.tobytes(), result.utilization)
    return (result.latencies.tobytes(), result.hops.tobytes(),
            result.dropped, result.cycles, result.ledger.breakdown(),
            [(p.src, p.dst, p.injected_at, p.delivered_at, p.hop_index)
             for p in result.delivered])


def _traced(run, *, tracer, sim=None):
    """``run`` on a fresh enabled session, with or without a tracer:
    the outcome, the registry's metrics state and the spans."""
    registry = instrument.MetricsRegistry(enabled=True)
    registry.tracer = Tracer() if tracer else None
    prev = instrument.install_session(registry)
    try:
        result = run(sim() if sim is not None else None)
    finally:
        instrument.install_session(prev)
    spans = registry.tracer.sink.records() if tracer else []
    return _outcome(result), registry.to_state(), spans


CASES = {
    "cluster": _cluster,
    "noc": _noc,
    # Stopped at the horizon with packets still in flight.
    "noc-horizon": lambda sim=None: _noc(sim, max_cycles=5),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_traced_walk_matches_untraced_walk_and_kernel_span(case, kernel_runs):
    run = CASES[case]
    model = case.split("-")[0]
    outcome, state, spans = _traced(run, tracer=True)
    assert (outcome, state) == _traced(run, tracer=False)[:2]
    assert kernel_runs == []
    assert [r.name for r in spans] == [f"{model}.run"]
    _, _, kernel_spans = _traced(run, tracer=True, sim=Simulator)
    (ref,) = [r for r in kernel_spans if r.name == f"{model}.run"]
    walk = spans[0]
    assert (walk.name, walk.category, walk.t0_sim, walk.t1_sim) == (
        ref.name, ref.category, ref.t0_sim, ref.t1_sim)
    # The walk's counters extend the kernel span's attributes.
    attrs = dict(walk.attrs)
    assert attrs["path"] == "walk"
    assert dict(ref.attrs).items() <= attrs.items()
    if case == "noc-horizon":
        assert outcome[2] > 0 and walk.t1_sim == 5.0


def test_attach_then_kernel_run_lists_the_model_once():
    sim = Simulator(metrics=instrument.MetricsRegistry(enabled=True))
    cluster = sim.attach(ClusterSimulator(ClusterConfig(n_servers=4)))
    cluster.run(3.0, 100, rng=1, sim=sim)
    sim.finish_models()
    assert sim.models == [cluster]
    # One sample from the run's own finish, one from finish_models.
    gauges = sim.metrics.to_state()["gauges"]
    assert gauges["cluster.queued_at_end"]["samples"] == 2


def test_walk_between_attach_and_kernel_run_keeps_the_kernel_registry():
    session = instrument.MetricsRegistry(enabled=True)
    prev = instrument.install_session(session)
    try:
        sim = Simulator(metrics=instrument.MetricsRegistry(enabled=True))
        cluster = sim.attach(ClusterSimulator(ClusterConfig(n_servers=4)))
        cluster.run(3.0, 100, rng=1)
        cluster.run(3.0, 50, rng=2, sim=sim)
    finally:
        instrument.install_session(prev)
    assert session.to_state()["counters"]["cluster.requests"] == 100
    assert sim.metrics.to_state()["counters"]["cluster.requests"] == 50
    assert sim.models == [cluster]
