"""The ledger's four workloads: set-up, timed rounds, checks, metrics.

Each workload runs in its own process (``child.py``) and drives only
public entry points of ``repro``: ``repro.traces`` (``generate``,
``TraceWriter``, ``replay``) and ``python -m repro serve`` over loopback
HTTP.  Inputs come from the ``--seed``; the same seed gives the same
traces and requests.

A timed phase repeats *rounds* until its time is up.  Every round runs
the same ops: a replay of each trace of the workload from its encoded
bytes (the modelled caches start empty on every replay), or one pass of
``serve-mix``'s requests.  A fixed pure-Python reference loop runs
between ops, and every end-to-end timing is scaled by how long that
loop took around it (:class:`Stopwatch`, :func:`end_to_end`).

Every op is checked: against its pin in ``expected.json`` when one
exists for this seed and size, otherwise against its own first answer,
so rounds must agree.  A failed check counts as a failed op.  Run as a
script, this module re-records the pins for the default seed::

    PYTHONPATH=src python benchmarks/ledger/workloads.py
"""

from __future__ import annotations

import gc
import hashlib
import io
import json
import os
import re
import resource
import shutil
import signal
import subprocess
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

from metrics import PER_LAYER, quantile, summary
from tracing import Tracer, Wrappers, duration, layer_of, self_times, targets_for

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected.json"

DEFAULT_SEED = 20140215
WORKLOADS = ("mem-replay", "noc-replay", "queue-cpu-replay", "serve-mix")
#: Interval-stats cadence for every replay (records per snapshot).
STATS_INTERVAL = 5000
#: Each trace profile of a replay workload is replayed in this many
#: copies, each generated from its own seed.
COPIES = 2
#: Fresh design points per ``serve-mix`` round; every second one is
#: then requested again, as a repeat.
SERVE_POINTS = 16
#: Requests simulated by every ``serve-mix`` design point.
CLUSTER_REQUESTS = 4000
#: Layers the traced phase of a replay workload wraps.
REPLAY_LAYERS = ("traces", "core", "memory", "interconnect")
#: Timings are scaled to a host on which one :func:`reference_loop`
#: takes this long (it took 6 to 13 ms on the machine the ledger was
#: written on, depending on what else the host was running).
REF_NOMINAL_S = 0.010

_perf = time.perf_counter


# -- inputs ----------------------------------------------------------------


@dataclass(frozen=True)
class TraceOp:
    """One trace of a replay workload: generator profile and sink."""

    profile: str
    copy: int
    gen: Dict[str, Any]
    sink: str
    sink_params: Dict[str, Any] = field(default_factory=dict)

    @property
    def id(self) -> str:
        policy = self.sink_params.get("policy")
        return (f"{self.profile}.{self.copy}>{self.sink}"
                + (f":{policy}" if policy else ""))


#: (profile, generator parameters, sink, sink parameters) per workload.
#: Sizes keep one replay between about 30 and 250 ms, and on
#: ``queue-cpu-replay`` the three profiles far enough apart that the
#: median op is an ``instr-mix`` replay whatever the seed.
TRACES: Dict[str, Tuple[Tuple[str, Dict[str, Any], str, Dict[str, Any]],
                        ...]] = {
    "mem-replay": (
        ("kv-zipf", {"n": 25_000, "keys": 1 << 16}, "memory", {}),
        ("graph-scan", {"n": 25_000}, "memory", {}),
    ),
    "noc-replay": (
        ("noc-uniform", {"n": 10_000, "nodes": 64, "rate": 2500.0},
         "noc", {"width": 8, "height": 8}),
        ("noc-hotspot", {"n": 10_000, "nodes": 16, "rate": 2500.0,
                         "hot_fraction": 0.4},
         "noc", {"width": 4, "height": 4}),
    ),
    "queue-cpu-replay": (
        ("bursty-requests", {"n": 50_000, "base_rate": 500.0,
                             "burst_rate": 5000.0,
                             "mean_service_us": 5000.0},
         "queue", {"n_servers": 8, "policy": "jsq"}),
        ("steady-requests", {"n": 30_000, "rate": 1200.0,
                             "mean_service_us": 5000.0},
         "queue", {"n_servers": 8, "policy": "rr"}),
        ("instr-mix", {"n": 60_000}, "cpu", {}),
    ),
}

REPLAY_OPS: Dict[str, Tuple[TraceOp, ...]] = {
    name: tuple(TraceOp(profile, copy, gen, sink, sink_params)
                for profile, gen, sink, sink_params in specs
                for copy in range(COPIES))
    for name, specs in TRACES.items()
}


def scaled(n: int, scale: float) -> int:
    return max(1, int(round(n * scale)))


def serve_point(seed: int, j: int, n_requests: int) -> Tuple[str, dict]:
    """The ``j``-th ``serve-mix`` design point: its id and ``cluster``
    parameters, with a seed derived from ``seed``."""
    from repro.exec import derive_seed

    point = f"serve/{j:02d}"
    return point, {
        "n_servers": 8,
        "arrival_rate": 4.0 + 0.25 * (j % 16),
        "n_requests": n_requests,
        "balancer": ("random", "round_robin", "join_shortest_queue",
                     "power_of_two")[j % 4],
        "seed": derive_seed(seed, point),
    }


def result_hash(result: Any) -> str:
    """sha256 of a request result in canonical JSON form."""
    from repro.exec import canonicalize

    blob = json.dumps(canonicalize(result), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# -- checks ----------------------------------------------------------------


def load_expected(path: Path = EXPECTED) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def pins_for(expected: dict, seed: int, scale: float) -> Dict[str, str]:
    """Pinned output hashes for this seed; pins exist at full size only."""
    if scale != 1.0:
        return {}
    return dict(expected.get("pins", {}).get(str(seed), {}))


class Checker:
    """Checks op outputs against pins, else against their first answer."""

    def __init__(self, pins: Optional[Dict[str, str]] = None) -> None:
        self.pins = pins or {}
        self.first: Dict[str, str] = {}
        self.seen: Dict[str, set] = defaultdict(set)
        self.kinds: set = set()
        self.failures: List[str] = []

    def check(self, op_id: str, value: str) -> bool:
        self.seen[op_id].add(value)
        if op_id in self.pins:
            self.kinds.add("pinned")
            want = self.pins[op_id]
        else:
            self.kinds.add("self-consistency")
            want = self.first.setdefault(op_id, value)
        if value != want:
            self.fail(f"{op_id}: output {value[:16]} != expected {want[:16]}")
            return False
        return True

    def fail(self, message: str) -> None:
        if len(self.failures) < 20:
            self.failures.append(message)

    @property
    def kind(self) -> str:
        return "+".join(sorted(self.kinds)) or "none"

    def consistent(self) -> bool:
        """Every op gave one output across all rounds and phases."""
        return all(len(v) == 1 for v in self.seen.values())


def check_goldens(expected: dict) -> List[str]:
    """Replay the 9 scenario ids; return the ids whose digest is wrong."""
    from repro.scenarios import library

    bad = []
    for sid, digest in sorted(expected["goldens"].items()):
        try:
            ok = library.run(library.get(sid)).digest() == digest
        except Exception:  # noqa: BLE001 - a raising scenario is a failure
            ok = False
        if not ok:
            bad.append(sid)
    if sorted(expected["goldens"]) != library.list_ids():
        bad.append("scenario ids differ from the pinned goldens")
    return bad


# -- rounds ----------------------------------------------------------------


def reference_loop(n: int = 40_000) -> int:
    """Fixed interpreter work that calls nothing in ``repro``."""
    counts: Dict[int, int] = {}
    total = 0
    for i in range(n):
        key = (i * 2654435761) & 0xFFFF
        counts[key] = counts.get(key, 0) + 1
        total += key
    return total


def reference_s() -> float:
    """Seconds one :func:`reference_loop` takes on the host right now."""
    start = _perf()
    reference_loop()
    return _perf() - start


class Stopwatch:
    """Times ops with the reference loop run before and after each one.

    After an op, ``latency_s`` is its wall time and ``ref_s`` the mean of
    the reference loops on either side of it.  The host this ledger runs
    on is shared: for minutes at a time other tenants make everything
    on it up to twice as slow, while the fixed reference loop slows by
    the same factor.  Over consecutive 20 s windows of an 8-minute
    recording of ``noc-replay``, the fastest repeat of each op spread by
    0.28 of its median between windows, and its median ratio to the
    reference loop by 0.03.

    Before each op the garbage collector runs, so that no op pays for
    another's garbage when the collector happens to run in it.  With
    ``calibrated`` off (the traced phase) neither the collector nor the
    reference loop runs, and ``ref_s`` is the nominal value.
    """

    def __init__(self, calibrated: bool = True) -> None:
        self.calibrated = calibrated
        self.before = reference_s() if calibrated else REF_NOMINAL_S
        self.latency_s = 0.0
        self.ref_s = REF_NOMINAL_S
        #: Every reference loop timed so far, seconds.
        self.refs_s: List[float] = [self.before] if calibrated else []
        #: Seconds spent collecting and in reference loops so far.
        self.harness_s = 0.0

    @contextmanager
    def op(self) -> Iterator[None]:
        if self.calibrated:
            start = _perf()
            gc.collect()
            self.harness_s += _perf() - start
        start = _perf()
        try:
            yield
        finally:
            self.latency_s = _perf() - start
            if self.calibrated:
                after = reference_s()
                self.harness_s += after
                self.refs_s.append(after)
                self.ref_s = (self.before + after) / 2
                self.before = after


@dataclass
class Round:
    """One timed round: the ops attempted and, for each op that passed
    its check, its id, latency, reference time and items (the
    throughput numerator).  ``wall_s`` leaves out the stopwatch's own
    collections and reference loops."""

    ops: int = 0
    failed: int = 0
    wall_s: float = 0.0
    op_ids: List[str] = field(default_factory=list)
    latencies_s: List[float] = field(default_factory=list)
    refs_s: List[float] = field(default_factory=list)
    items: List[int] = field(default_factory=list)

    def add(self, op_id: str, watch: Stopwatch, items: int) -> None:
        self.op_ids.append(op_id)
        self.latencies_s.append(watch.latency_s)
        self.refs_s.append(watch.ref_s)
        self.items.append(items)


def timed_rounds(
    round_fn: Any,
    seconds: Optional[float] = None,
    count: Optional[int] = None,
    tracer: Optional[Tracer] = None,
    trace_prefix: str = "",
) -> List[Round]:
    """Run rounds for ``seconds`` (at least one) or exactly ``count``."""
    out: List[Round] = []
    deadline = _perf() + (seconds or 0.0)
    while (len(out) < count) if count is not None else (
            not out or _perf() < deadline):
        i = len(out)
        if tracer is not None:
            with tracer.span("round", trace=f"{trace_prefix}/{i}"):
                out.append(round_fn(i))
        else:
            out.append(round_fn(i))
    return out


def end_to_end(rounds: List[Round]) -> Dict[str, float]:
    """``throughput``, ``p50_ms`` and the latency sample count.

    Each repeat of an op is scaled to the nominal host speed: its
    latency times :data:`REF_NOMINAL_S` over the reference time around
    it.  Each op then gives one sample, the median of its scaled
    repeats.  ``throughput`` is the items of one pass over the ops
    divided by the sum of those samples, and ``p50_ms`` is their median.
    """
    scaled_s: Dict[str, List[float]] = defaultdict(list)
    items: Dict[str, int] = {}
    for r in rounds:
        for op, lat, ref, n in zip(r.op_ids, r.latencies_s, r.refs_s,
                                   r.items):
            scaled_s[op].append(lat * REF_NOMINAL_S / ref)
            items[op] = n
    if not scaled_s:
        raise RuntimeError("no op passed its check")
    lats = {op: quantile(xs, 0.5) for op, xs in scaled_s.items()}
    return {"throughput": sum(items.values()) / sum(lats.values()),
            "p50_ms": quantile(list(lats.values()), 0.5) * 1e3,
            "latency_samples": len(lats)}


def peak_rss_mb(who: int) -> float:
    """Peak resident set of ``RUSAGE_SELF`` or ``RUSAGE_CHILDREN``, MB."""
    return resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux


class Workload:
    """Base: ``setup()``, then ``round(i)`` repeated; subclasses fill in."""

    rss_of = resource.RUSAGE_SELF

    def __init__(self, name: str, seed: int, scale: float, work: Path,
                 pins: Dict[str, str]) -> None:
        self.name = name
        self.seed = seed
        self.scale = scale
        self.work = work
        self.checker = Checker(pins)
        #: Per-round extras the traced phase turns into layer metrics.
        self.extras: List[Any] = []
        #: Spans recorded outside this process during the traced phase.
        self.remote_spans: List[dict] = []
        #: Times the ops; the untraced phase replaces it with one that
        #: runs the reference loop.
        self.watch = Stopwatch(calibrated=False)

    def setup(self) -> None:
        raise NotImplementedError

    def round(self, i: int) -> Round:
        raise NotImplementedError

    def traced(self, tracer: Tracer) -> Any:
        """A context in which rounds are traced by ``tracer``."""
        raise NotImplementedError

    def layers(self, spans: List[dict], rounds: int) -> Dict[str, float]:
        return span_layers(spans, rounds)

    def close(self) -> None:
        pass


class ReplayWorkload(Workload):
    def setup(self) -> None:
        import repro.traces as traces
        from repro.exec import derive_seed

        self.traces = traces
        self.prepared = []
        for op in REPLAY_OPS[self.name]:
            params = dict(op.gen, n=scaled(op.gen["n"], self.scale))
            kind, arr = traces.generate(
                op.profile, seed=derive_seed(self.seed, op.id), **params)
            buf = io.BytesIO()
            with traces.TraceWriter(buf, meta={"profile": op.profile}) as w:
                w.write_block(kind, arr)
                records = w.records_written
            self.prepared.append((op, buf.getvalue(), records))

    def round(self, i: int) -> Round:
        rnd = Round(ops=len(self.prepared))
        t0, harness0 = _perf(), self.watch.harness_s
        outputs = []
        for op, blob, records in self.prepared:
            try:
                with self.watch.op():
                    result = self.traces.replay(
                        blob, sink=op.sink, sink_params=op.sink_params,
                        stats_interval=STATS_INTERVAL)
            except Exception as exc:  # noqa: BLE001 - a raising op fails
                rnd.failed += 1
                self.checker.fail(f"{op.id}: {type(exc).__name__}: {exc}")
                continue
            outputs.append((op.sink, result.outputs))
            if self.checker.check(op.id, result.digest()):
                rnd.add(op.id, self.watch, records)
            else:
                rnd.failed += 1
        rnd.wall_s = _perf() - t0 - (self.watch.harness_s - harness0)
        self.extras.append(outputs)
        return rnd

    @contextmanager
    def traced(self, tracer: Tracer) -> Iterator[None]:
        with Wrappers(tracer, targets_for(REPLAY_LAYERS)):
            yield

    def layers(self, spans: List[dict], rounds: int) -> Dict[str, float]:
        out = span_layers(spans, rounds)
        accesses = l1 = dram = 0
        hops = 0.0
        for outputs in self.extras[-rounds:]:
            for sink, o in outputs:
                if sink == "memory":
                    accesses += o["accesses"]
                    l1 += next(iter(o["level_hits"].values()))
                    dram += o["memory_accesses"]
                elif sink == "noc":
                    hops += o["mean_hops"] * o["delivered"]
        if accesses:
            out["memory.l1_hit_rate"] = l1 / accesses
            out["memory.dram_fraction"] = dram / accesses
        if hops:
            out["interconnect.hops"] = hops / rounds
            out["interconnect.host_ns_per_hop"] = (
                out["interconnect.noc_run_s"] * rounds / hops * 1e9)
        return out


# -- layer metrics from spans ----------------------------------------------


def span_layers(spans: List[dict], rounds: int) -> Dict[str, float]:
    """Per-layer metrics that follow from spans alone, per round.

    Every name in :data:`metrics.PER_LAYER` is present; a layer the
    workload never called reads 0.
    """
    out = {name: 0.0 for name in PER_LAYER}
    selfs = self_times(spans)
    dur: Dict[str, float] = defaultdict(float)
    own: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    attrs: Dict[str, float] = defaultdict(float)
    for sp in spans:
        name = sp["name"]
        dur[name] += duration(sp)
        own[name] += selfs[sp["id"]]
        calls[name] += sp.get("calls", 1)
        if name == "core.run":
            for key, value in sp.get("attrs", {}).items():
                attrs[key] += value
    r = float(rounds)
    out["memory.access_calls"] = calls["memory.access"] / r
    out["memory.access_s"] = dur["memory.access"] / r
    if calls["memory.access"]:
        out["memory.access_ns_per_call"] = (
            dur["memory.access"] / calls["memory.access"] * 1e9)
    out["interconnect.noc_run_s"] = dur["interconnect.noc_run"] / r
    out["interconnect.noc_self_s"] = own["interconnect.noc_run"] / r
    out["core.schedule_batch_s"] = dur["core.schedule_batch"] / r
    out["core.schedule_at_calls"] = calls["core.schedule_at"] / r
    out["core.schedule_at_s"] = dur["core.schedule_at"] / r
    out["core.run_s"] = dur["core.run"] / r
    out["core.run_self_s"] = own["core.run"] / r
    events = attrs["events"]
    out["core.events_executed"] = events / r
    if events:
        out["core.host_ns_per_event"] = dur["core.run"] / events * 1e9
        out["core.batched_fraction"] = attrs["batched_events"] / events
    out["core.macro_batches"] = attrs["batches"] / r
    out["core.traces_installed"] = attrs["traces_installed"] / r
    out["core.deopts"] = attrs["deopts"] / r
    out["core.declines"] = attrs["declines"] / r
    out["traces.decode_s"] = dur["traces.decode"] / r
    out["traces.stats_s"] = dur["traces.stats"] / r
    out["traces.replay_s"] = dur["traces.replay"] / r
    out["traces.replay_self_s"] = own["traces.replay"] / r
    return out


def layer_seconds(spans: List[dict]) -> Dict[str, Dict[str, float]]:
    """Trace id -> layer -> self seconds (the run table's layer columns)."""
    selfs = self_times(spans)
    out: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for sp in spans:
        out[sp["trace"]][layer_of(sp["name"])] += selfs[sp["id"]]
    return out


# -- serve-mix -------------------------------------------------------------


class Server:
    """``python -m repro serve`` (or the tracing launcher) as a child."""

    ADDRESS = re.compile(r"-- repro serve on http://([^:\s]+):(\d+)")

    def __init__(self, argv: List[str], env: Dict[str, str]) -> None:
        self.proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, text=True, env=env, cwd=str(ROOT))
        # A server that never prints its address is killed, not waited on.
        timer = threading.Timer(60.0, self.proc.kill)
        timer.start()
        try:
            address = None
            for line in self.proc.stdout:  # type: ignore[union-attr]
                match = self.ADDRESS.search(line)
                if match:
                    address = (match.group(1), int(match.group(2)))
                    break
        finally:
            timer.cancel()
        if address is None:
            self.stop()
            raise RuntimeError("serve did not report its address")
        self.host, self.port = address

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait; kill if it will not end."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=60.0)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()


@dataclass
class Request:
    kind: str  # "fresh" or "repeat"
    tag: str
    latency_s: float
    ok: bool
    server_ms: Optional[float] = None
    cached: bool = False


class ServeWorkload(Workload):
    """A closed loop on one connection: fresh cluster points and repeats.

    A round sends every design point once as a fresh request, and every
    second point once more right after its answer, as a repeat.  A fresh
    request carries a ``tag`` parameter naming its point and round.  The
    ``cluster`` workload ignores it, so the answer is the point's, but
    the server sees a design point it has not cached and computes it.
    The repeat sends the same parameters and is answered from the cache.
    """

    rss_of = resource.RUSAGE_CHILDREN

    def setup(self) -> None:
        from repro.serve.client import ServeClient

        self.client_cls = ServeClient
        n_requests = scaled(CLUSTER_REQUESTS, self.scale)
        self.points = [serve_point(self.seed, j, n_requests)
                       for j in range(scaled(SERVE_POINTS, self.scale))]
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        self.env["PYTHONUNBUFFERED"] = "1"
        self.tracer: Optional[Tracer] = None
        self.server: Optional[Server] = None
        self.boot(traced=False)

    def boot(self, traced: bool) -> None:
        """Start a server with an empty cache and wait until it answers."""
        cache = self.work / f"serve-cache-{'traced' if traced else 'plain'}"
        shutil.rmtree(cache, ignore_errors=True)
        serve_args = ["--backend", "serial", "--cache", str(cache),
                      "--port", "0"]
        if traced:
            self.launcher_spans = self.work / "launcher-spans.json"
            argv = [sys.executable, str(HERE / "serve_launcher.py"),
                    "--spans-out", str(self.launcher_spans), "--",
                    *serve_args]
        else:
            argv = [sys.executable, "-m", "repro", "serve", *serve_args]
        self.server = Server(argv, self.env)
        self.client = self.client_cls(self.server.host, self.server.port,
                                      timeout_s=60.0)
        self.client.healthz()

    def round(self, i: int) -> Round:
        rnd = Round()
        requests: List[Request] = []
        t0, harness0 = _perf(), self.watch.harness_s
        for j, (point, params) in enumerate(self.points):
            tagged = dict(params, tag=f"{point}@{i}")
            requests.append(self.request(rnd, "fresh", point, tagged))
            if j % 2 == 0:
                requests.append(self.request(rnd, "repeat", point, tagged))
        rnd.wall_s = _perf() - t0 - (self.watch.harness_s - harness0)
        self.extras.append(requests)
        return rnd

    def request(self, rnd: Round, kind: str, point: str,
                params: dict) -> Request:
        """Send one request, time it, check its answer."""
        rnd.ops += 1
        span = (self.tracer.span("serve.request", kind=kind,
                                 tag=params["tag"])
                if self.tracer is not None else nullcontext())
        error = None
        with span:
            try:
                with self.watch.op():
                    status, _, body = self.client.submit("cluster", params,
                                                         wait=True)
            except Exception as exc:  # noqa: BLE001 - a raising op fails
                error = f"{type(exc).__name__}: {exc}"
        req = Request(kind, params["tag"], self.watch.latency_s, False)
        if error is None:
            run = ((body.get("runs") or [{}])[0]
                   if isinstance(body, dict) else {})
            req.server_ms = run.get("latency_ms")
            req.cached = bool(run.get("cached"))
            if status != 200 or run.get("status") != "succeeded":
                error = f"HTTP {status} {run.get('status')}"
        if error is not None:
            self.checker.fail(f"{kind} {params['tag']}: {error}")
        elif self.checker.check(point, result_hash(run["result"])):
            req.ok = True
            rnd.add(f"{kind}:{point}", self.watch, 1)
        if not req.ok:
            rnd.failed += 1
        return req

    @contextmanager
    def traced(self, tracer: Tracer) -> Iterator[None]:
        """Swap in a server started through ``serve_launcher.py`` and
        time the client's requests; the server's spans and ``/metrics``
        deltas are kept for :meth:`layers`."""
        self.close()
        self.boot(traced=True)
        before = metrics_counters(self.client.metrics_text())
        self.tracer = tracer
        try:
            yield
        finally:
            self.tracer = None
        self.counters = (before, metrics_counters(self.client.metrics_text()))
        self.close()
        with open(self.launcher_spans, encoding="utf-8") as fh:
            self.remote_spans = json.load(fh)

    def layers(self, spans: List[dict], rounds: int) -> Dict[str, float]:
        requests = [r for rs in self.extras[-rounds:] for r in rs]
        return serve_layers(requests, *self.counters, self.remote_spans)

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None


def metrics_counters(text: str) -> Dict[str, float]:
    """Prometheus counters ``repro_<name>_total`` -> value."""
    return {m.group(1): float(m.group(2)) for m in re.finditer(
        r"^repro_(\w+)_total (\S+)$", text, re.M)}


def _p50_ms(values: List[float]) -> float:
    return quantile(values, 0.5) * 1e3 if values else 0.0


def serve_layers(requests: List[Request], before: Dict[str, float],
                 after: Dict[str, float],
                 server_spans: List[dict]) -> Dict[str, float]:
    out = {name: 0.0 for name in PER_LAYER}
    for key in ("requests", "dispatched", "cache_fast_path", "coalesced",
                "shed", "http_errors"):
        out[f"serve.{key}"] = (after.get(f"serve_{key}", 0.0)
                               - before.get(f"serve_{key}", 0.0))
    if out["serve.requests"]:
        out["serve.cache_hit_share"] = (
            out["serve.cache_fast_path"] / out["serve.requests"])
    ok = [r for r in requests if r.ok and r.server_ms is not None]
    fresh = [r for r in ok if not r.cached]
    out["serve.server_fresh_p50_ms"] = _p50_ms(
        [r.server_ms / 1e3 for r in fresh])
    out["serve.cached_client_p50_ms"] = _p50_ms(
        [r.latency_s for r in ok if r.cached])
    out["serve.client_overhead_p50_ms"] = _p50_ms(
        [r.latency_s - r.server_ms / 1e3 for r in ok])
    by_name: Dict[str, List[dict]] = defaultdict(list)
    for sp in server_spans:
        by_name[sp["name"]].append(sp)
    run_s: Dict[Any, float] = defaultdict(float)
    for sp in by_name["datacenter.cluster_run"] + by_name["exec.cache_put"]:
        run_s[sp.get("attrs", {}).get("tag")] += duration(sp)
    out["serve.dispatch_wait_p50_ms"] = _p50_ms(
        [r.server_ms / 1e3 - run_s[r.tag] for r in fresh if r.tag in run_s])
    for metric, name in (("datacenter.cluster_run_p50_ms",
                          "datacenter.cluster_run"),
                         ("exec.cache_get_p50_ms", "exec.cache_get"),
                         ("exec.cache_put_p50_ms", "exec.cache_put")):
        out[metric] = _p50_ms([duration(sp) for sp in by_name[name]])
    return out


# -- one invocation --------------------------------------------------------


def make(name: str, seed: int, scale: float, work: Path,
         pins: Dict[str, str]) -> Workload:
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; have {WORKLOADS}")
    cls = ServeWorkload if name == "serve-mix" else ReplayWorkload
    return cls(name, seed, scale, work, pins)


def round_rows(rounds: List[Round], phase: str) -> List[dict]:
    return [{"phase": phase, "round": i, "items": sum(r.items),
             "ops": r.ops, "failed": r.failed, "wall_s": r.wall_s,
             "latencies_s": r.latencies_s,
             "ref_ms": quantile(r.refs_s, 0.5) * 1e3
             if phase == "untraced" and r.refs_s else None}
            for i, r in enumerate(rounds)]


def run(name: str, seed: int = DEFAULT_SEED, seconds: float = 15.0,
        trace: bool = False, setup_only: bool = False, scale: float = 1.0,
        work: Optional[Path] = None, expected: Optional[dict] = None,
        t_start: Optional[float] = None, goldens: bool = True) -> dict:
    """Run one workload in this process; returns the result record.

    ``t_start`` is when the process's main began (before ``repro`` was
    imported), so ``setup_wall_s`` covers imports.  Untraced, the
    workload measures rounds for ``seconds``.  Traced, it measures
    untraced rounds for a third of ``seconds``, then the same number of
    rounds traced.
    """
    t_start = _perf() if t_start is None else t_start
    work = work if work is not None else ROOT / ".ledger" / "work" / name
    work.mkdir(parents=True, exist_ok=True)
    expected = load_expected() if expected is None else expected
    wl = make(name, seed, scale, work, pins_for(expected, seed, scale))
    out: Dict[str, Any] = {"workload": name, "seed": seed, "trace": trace,
                           "scale": scale}
    try:
        wl.setup()
        out["setup_wall_s"] = _perf() - t_start
        if setup_only:
            return out
        _run_rounds(wl, seconds, trace, out)
    finally:
        wl.close()
    out["peak_rss_mb"] = peak_rss_mb(wl.rss_of)
    out["goldens_failed"] = check_goldens(expected) if goldens else []
    out["check"] = wl.checker.kind
    out["traced_match"] = wl.checker.consistent() if trace else None
    out["failures"] = wl.checker.failures + [
        f"golden {sid} digest differs" for sid in out["goldens_failed"]]
    rows = out["rows"]
    out["attempted"] = sum(r["ops"] for r in rows)
    out["failed"] = sum(r["failed"] for r in rows)
    return out


def _run_rounds(wl: Workload, seconds: float, trace: bool,
                out: dict) -> None:
    budget = seconds / 3.0 if trace else seconds
    # Set-up's objects (imports, inputs: about 90k) move to a generation
    # the collector skips, so the collection before each op takes
    # microseconds instead of about 40 ms, and more rounds fit.
    gc.freeze()
    wl.watch = Stopwatch()
    plain = timed_rounds(wl.round, seconds=budget)
    rows = round_rows(plain, "untraced")
    out.update(end_to_end(plain))
    out["ref_mean_s"] = sum(wl.watch.refs_s) / len(wl.watch.refs_s)
    if trace:
        tracer = Tracer()
        wl.watch = Stopwatch(calibrated=False)
        with wl.traced(tracer):
            traced = timed_rounds(wl.round, count=len(plain), tracer=tracer,
                                  trace_prefix=wl.name)
        traced_rows = round_rows(traced, "traced")
        spans = tracer.export()
        by_trace = layer_seconds(spans)
        for i, row in enumerate(traced_rows):
            row["layers"] = dict(by_trace.get(f"{wl.name}/{i}", {}))
        rows += traced_rows
        layers = wl.layers(spans, len(traced))
        layers["trace.overhead"] = (
            summary([r.wall_s for r in traced])["median"]
            / summary([r.wall_s for r in plain])["median"] - 1.0)
        out["layers"] = layers
        out["spans"] = spans + wl.remote_spans
        out["unattributed_share"] = (
            sum(r["layers"].get("unattributed", 0.0) for r in traced_rows)
            / sum(r.wall_s for r in traced))
    out["rows"] = rows
    gc.unfreeze()


# -- pins ------------------------------------------------------------------


def record_pins(seed: int = DEFAULT_SEED) -> Dict[str, str]:
    """Compute every replay digest and every serve-mix answer."""
    from repro.serve.workloads import run_cluster

    pins: Dict[str, str] = {}
    for j in range(SERVE_POINTS):
        point, params = serve_point(seed, j, CLUSTER_REQUESTS)
        pins[point] = result_hash(run_cluster(params))
    for name in REPLAY_OPS:
        wl = make(name, seed, 1.0, ROOT / ".ledger" / "work" / name, {})
        wl.setup()
        wl.round(0)
        if wl.checker.failures:
            raise RuntimeError(f"{name}: {wl.checker.failures}")
        pins.update(wl.checker.first)
    return pins


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    expected = load_expected()
    expected["pins"] = {str(DEFAULT_SEED): dict(sorted(record_pins().items()))}
    with open(EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"pinned {len(expected['pins'][str(DEFAULT_SEED)])} outputs "
          f"for seed {DEFAULT_SEED} in {EXPECTED}")
