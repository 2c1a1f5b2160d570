"""Tests for backend names and the backend factory."""

import pytest

from repro.exec import ExecutionEngine, Job, JobGraph
from repro.exec.backends import (
    ArrayBackend,
    PoolBackend,
    SocketWorkerBackend,
    available_backends,
    make_backend,
)
from repro.exec.backends import BACKEND_NAMES
from repro.exec.backends.hedge import HedgedRunner
from repro.exec.runners import Runner, SerialRunner


def ok_job():
    return {"ok": True}


class TestCapabilities:
    """A backend describes itself by its ``name``."""

    def test_serial_capabilities(self):
        assert SerialRunner().name == "serial"

    def test_pool_capabilities(self):
        pool = make_backend("pool", 3)
        try:
            assert pool.name == "pool"
            assert pool.capacity() == 3 and pool.active() == 0
        finally:
            pool.shutdown()

    def test_builtin_runners_are_backends(self):
        assert isinstance(SerialRunner(), Runner)
        pool = make_backend("pool", 1)
        try:
            assert isinstance(pool, Runner)
        finally:
            pool.shutdown()

    def test_report_names_the_backend(self):
        graph = JobGraph([Job(id="a", fn=ok_job)])
        assert ExecutionEngine(SerialRunner()).run(graph).backend == "serial"
        hedged = HedgedRunner(SerialRunner(), delay_s=1.0)
        assert hedged.name == "serial"
        graph = JobGraph([Job(id="a", fn=ok_job)])
        assert ExecutionEngine(hedged).run(graph).backend == "serial"

    def test_report_names_a_nameless_runner_after_its_type(self):
        class Legacy:
            """A runner that predates backend names."""

            def __init__(self):
                self._inner = SerialRunner()

            def capacity(self):
                return 1

            def active(self):
                return 0

            def submit(self, *args, **kwargs):
                self._inner.submit(*args, **kwargs)

            def poll(self):
                return self._inner.poll()

            def shutdown(self):
                pass

        graph = JobGraph([Job(id="a", fn=ok_job)])
        assert ExecutionEngine(Legacy()).run(graph).backend == "Legacy"


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
