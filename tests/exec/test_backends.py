"""Tests for the Backend protocol, capabilities and factory."""

import pytest

from repro.exec.backends import (
    ArrayBackend,
    Backend,
    PoolBackend,
    SocketWorkerBackend,
    available_backends,
    capabilities_of,
    make_backend,
)
from repro.exec.backends import BACKEND_NAMES
from repro.exec.runners import SerialRunner


class TestCapabilities:
    def test_serial_capabilities(self):
        assert SerialRunner().capabilities().name == "serial"

    def test_pool_capabilities(self):
        pool = make_backend("pool", 3)
        try:
            assert pool.capabilities().name == "pool"
            assert pool.capacity() == 3 and pool.active() == 0
        finally:
            pool.shutdown()

    def test_builtin_runners_are_backends(self):
        assert isinstance(SerialRunner(), Backend)
        pool = make_backend("pool", 1)
        assert isinstance(pool, Backend)
        pool.shutdown()

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

        assert capabilities_of(Legacy()).name == "Legacy"


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
