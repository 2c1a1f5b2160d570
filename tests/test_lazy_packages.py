"""The lazy package surfaces of ``repro.core``, ``repro.exec``,
``repro.exec.backends``, ``repro.serve``, ``repro.memory``,
``repro.technology``, ``repro.interconnect`` and ``repro.datacenter``.

Each ``__init__`` loads a public name's submodule on first access.  The
contract is the one the eager inits kept: the same ``__all__``, every
name the object its submodule defines, ``from pkg import *`` binding
every name, and ``AttributeError`` for anything else.  Import order is
part of it, so those cases run in fresh interpreters.
"""

import importlib
import os
import pickle
import pkgutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])

#: Package -> number of public names; the eager inits exported as many.
PACKAGES = {
    "repro.core": 42,
    "repro.exec": 23,
    "repro.exec.backends": 24,
    "repro.serve": 13,
    "repro.memory": 75,
    "repro.technology": 50,
    "repro.interconnect": 29,
    "repro.datacenter": 41,
}


def run_fresh(code: str) -> str:
    out = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                         cwd=SRC, env=dict(os.environ, PYTHONPATH=SRC),
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout


@pytest.fixture(params=sorted(PACKAGES))
def package(request):
    return importlib.import_module(request.param)


def test_all_is_sorted_and_complete(package):
    assert package.__all__ == sorted(set(package.__all__))
    assert len(package.__all__) == PACKAGES[package.__name__]


def test_every_name_is_its_submodules_object(package):
    for submodule, names in package._EXPORTS.items():
        module = importlib.import_module(f"{package.__name__}.{submodule}")
        for name in names:
            obj = getattr(package, name)
            assert obj is getattr(module, name), name
            where = getattr(obj, "__module__", None)
            if isinstance(where, str) and where.startswith("repro."):
                assert where.startswith(module.__name__), (name, where)


def test_every_submodule_loads_on_attribute_access():
    out = run_fresh(f"""
        import importlib, pkgutil, sys
        for pkg in {sorted(PACKAGES)!r}:
            package = importlib.import_module(pkg)
            for info in pkgutil.iter_modules(package.__path__):
                found = getattr(package, info.name)
                module = sys.modules[pkg + "." + info.name]
                assert (found is module
                        or found is getattr(module, info.name)), info.name
        print("ok")
    """)
    assert out.strip() == "ok"


def test_dir_lists_the_public_names(package):
    assert set(package.__all__) <= set(dir(package))


def test_unknown_name_is_an_attribute_error(package):
    assert not hasattr(package, "nope")
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        package.nope  # noqa: B018


def test_star_import_binds_every_name():
    out = run_fresh(f"""
        import importlib
        for pkg in {sorted(PACKAGES)!r}:
            namespace = {{}}
            exec("from " + pkg + " import *", namespace)
            module = importlib.import_module(pkg)
            assert all(namespace[n] is getattr(module, n)
                       for n in module.__all__), pkg
        print("ok")
    """)
    assert out.strip() == "ok"


@pytest.mark.parametrize("order", ["submodule-first", "package-first"])
def test_heartbeat_is_the_function_in_every_import_order(order):
    first, second = ("import repro.exec.heartbeat",
                     "from repro.exec import heartbeat")
    if order == "package-first":
        first, second = second, first
    out = run_fresh(f"""
        import sys
        import repro.exec
        # The package alone loads neither the submodule nor the name.
        assert "repro.exec.heartbeat" not in sys.modules
        assert "heartbeat" not in vars(repro.exec)
        {first}
        {second}
        from repro.exec import emit_sim_heartbeats, heartbeat
        from repro.exec import Job, SerialRunner

        module = sys.modules["repro.exec.heartbeat"]
        assert heartbeat is module.heartbeat is repro.exec.heartbeat
        assert emit_sim_heartbeats is module.emit_sim_heartbeats

        def beating():
            heartbeat(1.0)
            heartbeat(2.0)
            return "done"

        runner = SerialRunner()
        runner.submit(Job("beat", beating), None, None)
        (attempt,) = runner.poll()
        assert attempt.result == "done", attempt.error
        print(attempt.heartbeats, attempt.progress)
    """)
    assert out.split() == ["2", "2.0"]


def test_job_and_run_report_unpickle_after_a_bare_import():
    from repro.exec import Job, JobGraph, derive_seed, run_jobs

    job = Job("seed", derive_seed, config=None)
    report = run_jobs(JobGraph([Job("len", len, config={"a": 1})]))
    assert report["len"].result == 1
    blob = pickle.dumps((job, report))
    code = ("import pickle, sys, repro.exec\n"
            "job, report = pickle.loads(sys.stdin.buffer.read())\n"
            "print(job.id, job.fn.__name__, report['len'].result, "
            "report.digest())\n")
    out = subprocess.run([sys.executable, "-c", code], input=blob,
                         capture_output=True, cwd=SRC,
                         env=dict(os.environ, PYTHONPATH=SRC), timeout=120)
    assert out.returncode == 0, out.stderr.decode()
    assert out.stdout.decode().split() == ["seed", "derive_seed", "1",
                                           report.digest()]
