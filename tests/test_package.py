"""The ``repro`` package surface: lazy subpackages and one version."""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import repro

ROOT = Path(repro.__file__).resolve().parents[2]
SUBPACKAGES = [name for name in repro.__all__ if name != "__version__"]


def test_all_names_thirteen_subpackages_and_the_version():
    assert len(SUBPACKAGES) == 13
    assert "__version__" in repro.__all__


def test_attribute_access_loads_the_subpackage():
    assert repro.datacenter.ClusterSimulator.__name__ == "ClusterSimulator"
    assert repro.datacenter is sys.modules["repro.datacenter"]
    assert vars(repro)["datacenter"] is repro.datacenter


def test_dir_lists_every_subpackage():
    assert set(repro.__all__) <= set(dir(repro))


def test_unknown_name_is_an_attribute_error():
    assert not hasattr(repro, "nope")
    with pytest.raises(AttributeError, match="'repro' has no attribute 'nope'"):
        repro.nope  # noqa: B018


def test_star_import_binds_every_name():
    namespace: dict = {}
    exec("from repro import *", namespace)
    for name in SUBPACKAGES:
        assert namespace[name] is sys.modules[f"repro.{name}"]
    assert namespace["__version__"] == repro.__version__


def test_cluster_result_unpickles_after_a_bare_import():
    from repro.datacenter import ClusterConfig, ClusterSimulator

    result = ClusterSimulator(ClusterConfig(n_servers=4)).run(3.0, 500, rng=2)
    code = ("import pickle, sys, repro\n"
            "res = pickle.loads(sys.stdin.buffer.read())\n"
            "print(repr(res.p99))\n")
    out = subprocess.run([sys.executable, "-c", code],
                         input=pickle.dumps(result), capture_output=True,
                         env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                         timeout=120)
    assert out.returncode == 0, out.stderr.decode()
    assert out.stdout.decode().strip() == repr(result.p99)


def test_pyproject_version_is_the_package_version():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        config = tomllib.load(fh)
    assert "version" not in config["project"]
    assert "version" in config["project"]["dynamic"]
    attr = config["tool"]["setuptools"]["dynamic"]["version"]["attr"]
    assert attr == "repro.__version__"
    expand = pytest.importorskip("setuptools.config.expand")
    # setuptools reads the literal without importing the package.
    assert expand.read_attr(attr, package_dir={"": "src"},
                            root_dir=ROOT) == repro.__version__
