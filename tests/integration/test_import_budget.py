"""Start-up imports only what runs.

``import repro`` loads no subpackage, and scipy and networkx load only
inside the model functions that call them.  The paper-claim registry
imports neither, and ``repro.parallel``'s task graphs load networkx
only where they build or walk one, so E08, which builds none, runs
without it.  The package inits below it
are lazy too, so a path loads the modules it uses and not their
siblings.  Each case runs in a fresh interpreter, because this test
process has long since imported everything.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])
HEAVY = ("scipy", "networkx")

MEMORY_REPLAY = """
from repro.traces.generators import generate
from repro.traces.replay import replay
kind, arr = generate("kv-zipf", seed=3, n=300)
out = replay([(kind, arr)], sink="memory")
assert out.records == 300, out
"""

NOC_REPLAY = """
from repro.traces.generators import generate
from repro.traces.replay import replay
kind, arr = generate("noc-uniform", seed=3, n=300, nodes=16)
out = replay([(kind, arr)], sink="noc", sink_params={"width": 4, "height": 4})
assert out.outputs["delivered"] == 300, out.outputs
"""

JSQ_REPLAY = """
from repro.traces.generators import generate
from repro.traces.replay import replay
kind, arr = generate("bursty-requests", seed=3, n=300)
out = replay([(kind, arr)], sink="queue",
             sink_params={"policy": "jsq", "n_servers": 4})
assert out.outputs["requests"] == 300, out.outputs
"""

RR_REPLAY = """
from repro.traces.generators import generate
from repro.traces.replay import replay
kind, arr = generate("steady-requests", seed=3, n=300)
out = replay([(kind, arr)], sink="queue",
             sink_params={"policy": "rr", "n_servers": 4})
assert out.outputs["served_per_server"] == [75] * 4, out.outputs
"""

CLUSTER_POINT = """
from repro.serve.workloads import run_cluster
out = run_cluster({"n_servers": 8, "arrival_rate": 6.0, "n_requests": 400,
                   "balancer": "join_shortest_queue", "seed": 3})
assert out["requests"] == 400, out
"""

#: E08 runs the Hill-Marty and communication models: no task graph.
E08_CLAIM = """
from repro.analysis.paper_experiments import run_e08_parallelism
run_e08_parallelism()
"""

CASES = {
    "repro": "import repro",
    "traces.replay": "import repro.traces.replay",
    "serve.server": "import repro.serve.server",
    "socket_worker": "import repro.exec.backends.socket_worker",
    "interconnect.noc": "import repro.interconnect.noc",
    "noc-replay": NOC_REPLAY,
    "E08-claim": E08_CLAIM,
}


def loaded_after(code: str, watched=HEAVY) -> list:
    """The ``watched`` modules in ``sys.modules`` after ``code``."""
    probe = (code + "\nimport json, sys\n"
             f"print(json.dumps([m for m in {tuple(watched)!r} "
             "if m in sys.modules]))\n")
    out = subprocess.run([sys.executable, "-c", probe], cwd=SRC,
                         env=dict(os.environ, PYTHONPATH=SRC),
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("code", list(CASES.values()), ids=list(CASES))
def test_entry_points_leave_scipy_and_networkx_unloaded(code):
    assert loaded_after(code) == []


def test_models_that_need_scipy_still_load_it():
    code = ("import repro\n"
            "repro.datacenter.lognormal_latency().quantile(0.99)")
    assert loaded_after(code) == ["scipy"]


#: What a memory replay needs of ``repro.exec`` is ``canonicalize``, of
#: ``repro.core`` the energy ledger and the instruments, and of
#: ``repro.memory`` the hierarchy and its caches.
REPLAY_SKIPS = (
    "repro.exec.backends", "repro.exec.runners", "repro.exec.engine",
    "repro.exec.heartbeat", "multiprocessing", "repro.core.design",
    "repro.core.dse", "repro.core.events", "repro.core.rng",
    "repro.memory.wear", "repro.memory.energy", "repro.technology",
)

#: A NoC replay runs the mesh and its routes: no link or traffic model.
NOC_SKIPS = ("repro.interconnect.links", "repro.interconnect.traffic",
             "repro.core.rng", "repro.memory")

#: A ``jsq`` or static-policy replay shares its walk with the cluster
#: model, but loads neither the model nor the kernel.
JSQ_SKIPS = ("repro.core.events", "repro.core.rng", "repro.datacenter")

#: A ``cluster`` serve point runs the cluster model alone.
CLUSTER_SKIPS = tuple(f"repro.datacenter.{name}" for name in (
    "autoscale", "availability", "hedging", "latency", "power", "tail",
    "tco"))

#: The socket backend's modules, and the chaos and router layers.
BACKEND_MODULES = tuple(f"repro.exec.backends.{name}" for name in (
    "socket_worker", "array", "chaos", "frames", "router"))

BUDGETS = {
    "memory-replay": (MEMORY_REPLAY, REPLAY_SKIPS),
    "noc-replay": (NOC_REPLAY, NOC_SKIPS),
    "jsq-replay": (JSQ_REPLAY, JSQ_SKIPS),
    "rr-replay": (RR_REPLAY, JSQ_SKIPS),
    "cluster-point": (CLUSTER_POINT, CLUSTER_SKIPS),
    "serve-client": ("from repro.serve.client import ServeClient",
                     ("numpy", "asyncio", "repro.core", "repro.exec")),
    "serial-backend": (
        "from repro.exec.backends import make_backend\n"
        "assert type(make_backend('serial')).__name__ == 'SerialRunner'",
        BACKEND_MODULES),
}


@pytest.mark.parametrize("code, skipped", list(BUDGETS.values()),
                         ids=list(BUDGETS))
def test_a_path_loads_none_of_the_modules_it_does_not_use(code, skipped):
    assert loaded_after(code, skipped) == []

