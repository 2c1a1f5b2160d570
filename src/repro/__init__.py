"""repro — a 21st Century Computer Architecture modeling toolkit.

Executable reproduction of the community white paper *"21st Century
Computer Architecture"* (PPoPP 2014 keynote; Hill et al., May 2012).

The paper is an agenda: energy-first design, architecture as
infrastructure from sensors to clouds, specialization, new technologies,
and cross-cutting "ilities".  This library renders that agenda as code —
a family of laptop-scale simulators and first-order analytic models, one
per substrate the paper invokes, plus a cross-layer design-space explorer
(:mod:`repro.core.agenda`) that evaluates whole systems against the
paper's 10 mW / 10 W / 10 kW / 10 MW platform envelopes.

Subpackages
-----------
core
    Discrete-event kernel + cross-layer instrumentation, energy ledger,
    Pareto/DSE machinery, agenda.
technology
    Moore/Dennard scaling, node database, CPU-DB attribution, reliability,
    near-threshold voltage, dark silicon.
processor
    Tiny RISC ISA, trace generation, in-order and out-of-order core
    models, branch prediction, Pollack's rule, core power.
memory
    Caches, hierarchies, MESI coherence, DRAM, NVM (PCM/STT-RAM/...),
    wear leveling, compression, per-access energy.
interconnect
    Topologies, event-driven mesh NoC (on the shared kernel), traffic,
    electrical/photonic/3D link energy models.
parallel
    Amdahl/Gustafson/Hill-Marty laws, communication-aware scaling,
    task DAGs, work stealing, synchronization, transactional memory.
accelerator
    Specialization economics, coverage-limited Amdahl, CGRA/FPGA/GPU
    models, NRE amortization, mobile-cloud offload.
datacenter
    Tail latency at scale, hedged requests, cluster queueing simulation,
    power provisioning, availability, TCO.
exec
    Experiment execution engine: job graphs with deterministic seeds,
    serial/multiprocess runners with timeout+retry fault containment,
    content-addressed on-disk result cache, structured run reports.
sensor
    Sensor-node energy, energy harvesting and intermittent computing,
    duty cycling, approximate computing, synthetic biometric signals.
crosscut
    Information-flow tracking, invariant checking, fault injection,
    SECDED ECC, QoS partitioning.
workloads
    Synthetic kernels, instruction mixes, big-data streams, human-network
    analytics graphs.
analysis
    Experiment registry, table renderers, statistics helpers.

``import repro`` loads none of these: each subpackage is imported the
first time it is named (``repro.datacenter.ClusterSimulator`` works as
before), and scipy and networkx are imported only by the models that
use them.  Start-up then costs what the caller runs, not the toolkit.
"""

from ._lazy import lazy_exports

# A literal: pyproject.toml reads it without importing the package, and
# the exec result cache keys artifacts on it.
__version__ = "1.6.0"

__all__ = [
    "accelerator",
    "analysis",
    "core",
    "crosscut",
    "datacenter",
    "exec",
    "interconnect",
    "memory",
    "parallel",
    "processor",
    "sensor",
    "technology",
    "workloads",
    "__version__",
]

# Every name in __all__ but the version (a global) is a subpackage.
__getattr__, __dir__ = lazy_exports(globals(), {}, submodules=__all__)
