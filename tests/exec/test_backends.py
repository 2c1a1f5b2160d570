"""Tests for the Backend protocol, capabilities, factory, and router."""

import pytest

from repro.exec import Job, JobGraph
from repro.exec.backends import (
    ArrayBackend,
    Backend,
    BackendCapabilities,
    BackendRouter,
    PoolBackend,
    RoutingError,
    RoutingPolicy,
    SocketWorkerBackend,
    available_backends,
    capabilities_of,
    make_backend,
)
from repro.exec.backends import BACKEND_NAMES
from repro.exec.runners import Attempt, SerialRunner


def value_job(config):
    return {"value": config["x"]}


class TestCapabilities:
    def test_serial_capabilities(self):
        caps = SerialRunner().capabilities()
        assert caps.name == "serial"
        assert caps.max_parallelism == 1
        assert not caps.supports_heartbeat
        assert not caps.supports_preemption
        assert "local" in caps.locality

    def test_pool_capabilities(self):
        pool = make_backend("pool", 3)
        try:
            caps = pool.capabilities()
            assert caps.name == "pool"
            assert caps.max_parallelism == 3
            assert caps.supports_heartbeat
            assert caps.supports_preemption
            assert caps.locality == ("local", "pool")
            assert pool.capacity() == 3 and pool.active() == 0
        finally:
            pool.shutdown()

    def test_builtin_runners_are_backends(self):
        assert isinstance(SerialRunner(), Backend)
        pool = make_backend("pool", 1)
        assert isinstance(pool, Backend)
        pool.shutdown()

    def test_satisfies_subset_semantics(self):
        caps = BackendCapabilities(
            name="x", max_parallelism=1,
            supports_heartbeat=False, supports_preemption=False,
            locality=("local", "socket"),
        )
        assert caps.satisfies(())
        assert caps.satisfies(("local",))
        assert caps.satisfies(("socket", "local"))
        assert not caps.satisfies(("batch",))

    def test_capabilities_of_passthrough(self):
        assert capabilities_of(SerialRunner()).name == "serial"

    def test_capabilities_of_infers_for_legacy_runner(self):
        class Legacy:
            def capacity(self):
                return 2

            def active(self):
                return 1

            def submit(self, *a, **k):
                pass

            def poll(self):
                return []

            def shutdown(self):
                pass

        caps = capabilities_of(Legacy())
        assert caps.name == "Legacy"
        assert caps.max_parallelism == 3  # capacity + active, conservative
        assert not caps.supports_heartbeat
        assert caps.locality == ("local",)


class TestMakeBackend:
    def test_names_and_descriptions_agree(self):
        assert set(available_backends()) == set(BACKEND_NAMES)

    def test_serial_and_pool(self):
        assert isinstance(make_backend("serial"), SerialRunner)
        assert isinstance(make_backend(None, jobs=1), SerialRunner)
        for name in ("pool", None):
            pool = make_backend(name, jobs=4)
            try:
                assert isinstance(pool, PoolBackend)
                assert pool.workers == 4
                assert len(pool.spawned_processes()) == 4
            finally:
                pool.shutdown()

    def test_array(self, tmp_path):
        backend = make_backend("array", jobs=3, array_root=str(tmp_path))
        assert isinstance(backend, ArrayBackend)
        assert backend.shard_size == 3
        backend.shutdown()

    def test_socket_no_spawn(self):
        backend = make_backend("socket", jobs=2, spawn=0)
        try:
            assert isinstance(backend, SocketWorkerBackend)
            assert backend.spawned_processes() == []
        finally:
            backend.shutdown()

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown backend"):
            make_backend("slurm")


class _StubBackend:
    """Scriptable backend for router unit tests."""

    def __init__(self, caps, capacity=4):
        self._caps = caps
        self._capacity = capacity
        self.submitted = []

    def capabilities(self):
        return self._caps

    def capacity(self):
        return self._capacity - len(self.submitted)

    def active(self):
        return len(self.submitted)

    def submit(self, job, config, timeout_s, hang_timeout_s=None,
               telemetry=None):
        self.submitted.append(job.id)

    def poll(self):
        done = [Attempt(jid, "ok", None, None, 0.0) for jid in self.submitted]
        self.submitted = []
        return done

    def shutdown(self):
        pass


def _caps(name, locality, heartbeat=True, parallelism=4):
    return BackendCapabilities(
        name=name, max_parallelism=parallelism,
        supports_heartbeat=heartbeat, supports_preemption=True,
        locality=locality,
    )


class TestRouter:
    def test_locality_pins_placement(self):
        local = _StubBackend(_caps("local", ("local",)))
        batch = _StubBackend(_caps("batch", ("batch",)))
        router = BackendRouter({"local": local, "batch": batch})
        assert router.route(Job(id="a", fn=value_job,
                                locality=("batch",))) == "batch"
        assert router.route(Job(id="b", fn=value_job,
                                locality=("local",))) == "local"

    def test_strict_locality_fails_loud(self):
        router = BackendRouter(
            {"local": _StubBackend(_caps("local", ("local",)))}
        )
        with pytest.raises(RoutingError, match="gpu"):
            router.route(Job(id="a", fn=value_job, locality=("gpu",)))

    def test_lenient_locality_falls_back(self):
        router = BackendRouter(
            {"local": _StubBackend(_caps("local", ("local",)))},
            policy=RoutingPolicy(strict_locality=False),
        )
        assert router.route(
            Job(id="a", fn=value_job, locality=("gpu",))
        ) == "local"

    def test_watchdog_prefers_heartbeat_backends(self):
        silent = _StubBackend(_caps("silent", ("local",), heartbeat=False,
                                    parallelism=100), capacity=100)
        beating = _StubBackend(_caps("beating", ("local",)), capacity=1)
        router = BackendRouter({"silent": silent, "beating": beating})
        # Without a watchdog, free capacity wins (silent has more).
        assert router.route(Job(id="a", fn=value_job)) == "silent"
        # With the watchdog armed, only heartbeat backends qualify.
        assert router.route(
            Job(id="a", fn=value_job), hang_timeout_s=1.0
        ) == "beating"

    def test_most_free_capacity_wins_then_policy(self):
        a = _StubBackend(_caps("a", ("local",)), capacity=2)
        b = _StubBackend(_caps("b", ("local",)), capacity=8)
        router = BackendRouter({"a": a, "b": b})
        assert router.route(Job(id="x", fn=value_job)) == "b"
        # Equal capacity: the policy's prefer order breaks the tie.
        even = BackendRouter(
            {"a": _StubBackend(_caps("a", ("local",)), capacity=4),
             "b": _StubBackend(_caps("b", ("local",)), capacity=4)},
            policy=RoutingPolicy(prefer=("b", "a")),
        )
        assert even.route(Job(id="x", fn=value_job)) == "b"

    def test_plan_previews_whole_graph(self):
        router = BackendRouter(
            {
                "local": _StubBackend(_caps("local", ("local",))),
                "batch": _StubBackend(_caps("batch", ("batch",))),
            },
            # Untagged jobs prefer local; only locality pins to batch.
            policy=RoutingPolicy(prefer=("local", "batch")),
        )
        graph = JobGraph()
        graph.add(Job(id="a", fn=value_job, config={"x": 1}))
        graph.add(Job(id="b", fn=value_job, config={"x": 2},
                      locality=("batch",)))
        plan = router.plan(graph)
        assert "b" in plan["batch"]
        assert "a" in plan["local"]

    def test_router_runs_a_graph_end_to_end(self):
        from repro.exec import ExecutionEngine

        router = BackendRouter({"serial": SerialRunner()})
        graph = JobGraph()
        for i in range(3):
            graph.add(Job(id=f"j{i}", fn=value_job, config={"x": i}))
        report = ExecutionEngine(runner=router).run(graph)
        assert report.ok
        assert report.backend == "router"
        assert set(router.placements) == {"j0", "j1", "j2"}
        assert set(router.placements.values()) == {"serial"}

    def test_unroutable_job_becomes_failed_row(self):
        from repro.exec import ExecutionEngine, JobStatus

        router = BackendRouter({"serial": SerialRunner()})
        graph = JobGraph()
        graph.add(Job(id="ok", fn=value_job, config={"x": 1}))
        graph.add(Job(id="bad", fn=value_job, config={"x": 2},
                      locality=("gpu",)))
        report = ExecutionEngine(runner=router).run(graph)
        assert report["ok"].status is JobStatus.SUCCEEDED
        assert report["bad"].status is JobStatus.FAILED
        assert "gpu" in report["bad"].error

    def test_router_capabilities_aggregate(self):
        router = BackendRouter(
            {"serial": SerialRunner(), "pool": make_backend("pool", 2)}
        )
        caps = router.capabilities()
        router.shutdown()
        assert caps.name == "router"
        assert caps.max_parallelism == 3
        assert caps.supports_heartbeat  # the pool member beats
        assert set(("local", "serial", "pool")) <= set(caps.locality)

    def test_empty_router_rejected(self):
        with pytest.raises(ValueError):
            BackendRouter({})


class TestJobLocality:
    def test_locality_defaults_empty_and_normalizes(self):
        assert Job(id="a", fn=value_job).locality == ()
        assert Job(id="b", fn=value_job,
                   locality=["batch"]).locality == ("batch",)

    def test_locality_excluded_from_cache_keys(self, tmp_path):
        # Placement must never change what result a job is keyed
        # under: retagging a job's locality still hits the warm cache.
        from repro.exec import run_jobs

        def build(locality):
            graph = JobGraph()
            graph.add(Job(id="a", fn=value_job, config={"x": 7},
                          locality=locality))
            return graph

        cold = run_jobs(build(()), cache_dir=str(tmp_path))
        warm = run_jobs(build(("local",)), cache_dir=str(tmp_path))
        assert cold.cache_stats["writes"] == 1
        assert warm.cache_stats["hits"] == 1
        assert warm["a"].cached
