"""Kernel fast-path layer: macro batching of declared spans, guards.

The load-bearing property throughout is *observational equivalence*:
for any workload, the executed stream (order, times, payloads) and the
final :class:`~repro.core.events.SimStats` must be byte-identical with
fast paths ``off`` and ``auto``.  Unit tests pin the individual
mechanisms (mode resolution, span declaration, batch commit, partial
consume, hazard aborts, observer deopt, horizon clipping); the
hypothesis test at the bottom drives randomized twin behaviour,
cancellations, spawns and snapshot/restore through both modes.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import fastpath
from repro.core.events import Simulator
from repro.core.instrument import MetricsRegistry
from repro.core.macro import MACRO_ATTR, MacroRun, as_macro


def _recorded_pair(log):
    """A scalar handler plus an exact macro twin, both appending to log."""

    def scalar(sim, payload):
        log.append((sim.now, payload))

    def batch(sim, run):
        for t, p in run:
            log.append((t, p))

    as_macro(scalar, batch)
    return scalar


def _train(sim, cb, n, start=0.0, step=1.0):
    times = [start + i * step for i in range(n)]
    sim.schedule_batch(times, cb, payloads=range(n))
    return [(start + i * step, i) for i in range(n)]


# -- mode resolution ---------------------------------------------------------


def test_resolve_mode_default_and_env(monkeypatch):
    monkeypatch.delenv(fastpath.ENV_VAR, raising=False)
    assert fastpath.resolve_mode() == "auto"
    monkeypatch.setenv(fastpath.ENV_VAR, "OFF")
    assert fastpath.resolve_mode() == "off"
    # An explicit argument beats the environment.
    assert fastpath.resolve_mode("auto") == "auto"
    with pytest.raises(ValueError, match="fastpath mode"):
        fastpath.resolve_mode("sometimes")
    # The retired trace-JIT mode is an error naming the valid modes.
    monkeypatch.setenv(fastpath.ENV_VAR, "on")
    with pytest.raises(ValueError, match=r"\('off', 'auto'\)"):
        Simulator()
    monkeypatch.setenv(fastpath.ENV_VAR, "bogus")
    with pytest.raises(ValueError, match="fastpath mode"):
        Simulator()


def test_simulator_mode_property_and_set(monkeypatch):
    """The mode is set once, at construction."""
    monkeypatch.delenv(fastpath.ENV_VAR, raising=False)
    assert Simulator().fastpath_mode == "auto"
    assert Simulator(fastpath="off").fastpath_mode == "off"
    with pytest.raises(ValueError, match="fastpath mode"):
        Simulator(fastpath="on")


def test_as_macro_attaches_twin():
    log = []
    cb = _recorded_pair(log)
    assert getattr(cb, MACRO_ATTR, None) is not None


# -- macro batching ----------------------------------------------------------


def test_macro_batch_executes_whole_train():
    log = []
    cb = _recorded_pair(log)
    sim = Simulator(fastpath="auto")
    expected = _train(sim, cb, 100)
    stats = sim.run()
    assert log == expected
    assert stats.events_executed == 100
    assert sim.now == expected[-1][0]
    fps = sim.fastpath_stats
    assert fps.batches >= 1
    assert fps.batched_events == 100


def test_macro_matches_off_mode_stream():
    logs = {}
    for mode in fastpath.MODES:
        log = logs[mode] = []
        cb = _recorded_pair(log)
        sim = Simulator(fastpath=mode)
        _train(sim, cb, 64)
        sim.run()
    assert logs["off"] == logs["auto"]


def test_macro_partial_consume_counts_abort():
    log = []

    def scalar(sim, payload):
        log.append((sim.now, payload))

    def batch(sim, run):
        for k, (t, p) in enumerate(run):
            if k == 5:
                return 5
            log.append((t, p))
        return len(run)

    as_macro(scalar, batch)
    sim = Simulator(fastpath="auto")
    expected = _train(sim, scalar, 40)
    sim.run()
    assert log == expected
    fps = sim.fastpath_stats
    assert fps.aborts >= 1
    # The declined tail re-batches or drains generally; either way no
    # event is lost or duplicated (asserted by the log above).
    assert fps.batched_events < 40


def test_macro_decline_falls_back_to_scalar():
    log = []

    def scalar(sim, payload):
        log.append((sim.now, payload))

    def batch(sim, run):
        return 0  # always decline

    as_macro(scalar, batch)
    sim = Simulator(fastpath="auto")
    expected = _train(sim, scalar, 100)
    sim.run()
    assert log == expected
    assert sim.fastpath_stats.batches == 0
    assert sim.fastpath_stats.declines >= 1


def test_macro_exception_is_atomic():
    log = []
    broken = [True]

    def scalar(sim, payload):
        log.append(payload)

    def batch(sim, run):
        if broken[0]:
            raise RuntimeError("batch blew up before touching anything")
        log.extend(run.payloads())

    as_macro(scalar, batch)
    sim = Simulator(fastpath="auto")
    _train(sim, scalar, 32)
    with pytest.raises(RuntimeError, match="blew up"):
        sim.run()
    # Atomic: the raising batch consumed nothing — no event executed,
    # every entry still pending, and a later drain runs them.
    assert log == []
    assert sim.stats.events_executed == 0
    assert len(sim) == 32
    broken[0] = False
    sim.run()
    assert log == list(range(32))
    assert sim.stats.events_executed == 32


def test_macro_contract_violation_is_loud():
    def scalar(sim, payload):
        pass

    def batch(sim, run):
        return len(run) + 7  # lies about consumption

    as_macro(scalar, batch)
    sim = Simulator(fastpath="auto")
    _train(sim, scalar, 32)
    with pytest.raises(RuntimeError, match="violates its contract"):
        sim.run()


def test_macrorun_view():
    lane = [(float(i), i, None, None, i * 10) for i in range(8)]
    run = MacroRun(lane, 2, 6)
    assert len(run) == 4
    assert run[0] == (2.0, 20)
    assert list(run) == [(float(i), i * 10) for i in range(2, 6)]
    assert run.times() == [2.0, 3.0, 4.0, 5.0]
    assert run.payloads() == [20, 30, 40, 50]


# -- declared spans and guards ----------------------------------------------


def test_twin_scheduled_only_via_schedule_at_never_batches():
    """Only a bulk load declares a span: the same twin'd callback
    scheduled one event at a time runs entirely on the general path."""
    log = []
    cb = _recorded_pair(log)
    sim = Simulator(fastpath="auto")
    for i in range(200):
        sim.schedule_at(float(i), cb, i, cancellable=False)
    sim.run()
    assert log == [(float(i), i) for i in range(200)]
    assert sim.fastpath_stats == fastpath.FastPathStats()


def test_trace_abort_on_cancellation():
    """A span event cancelling a pending out-of-order event inside the
    span's time range: the span is clipped at that event, which the
    general path purges exactly as in ``off`` mode."""
    outcomes = {}
    for mode in fastpath.MODES:
        log = []
        tokens = {}

        def scalar(sim, payload, _log=log):
            _log.append(payload)
            if payload == 10:
                tokens[50].cancel()

        def batch(sim, run, _log=log):
            for _t, p in run:
                _log.append(p)
                if p == 10:
                    tokens[50].cancel()

        as_macro(scalar, batch)
        sim = Simulator(fastpath=mode)
        _train(sim, scalar, 100)
        for i in (30, 50, 70):
            tokens[i] = sim.schedule_at(i + 0.5, scalar, -i)
        stats = sim.run()
        outcomes[mode] = (list(log), stats.events_executed,
                          stats.events_cancelled)
        if mode == "auto":
            assert sim.fastpath_stats.batched_events > 0
    assert outcomes["auto"] == outcomes["off"]
    log, executed, cancelled = outcomes["off"]
    assert -50 not in log and -30 in log and -70 in log
    assert (executed, cancelled) == (102, 1)


def test_trace_abort_on_out_of_order_schedule():
    """A twin that schedules out-of-order work stops at its hazard
    horizon, so the new event interleaves at its exact (time, seq)
    slot and the rest of the span batches afterwards."""
    logs = {}
    for mode in fastpath.MODES:
        log = logs[mode] = []

        def scalar(sim, payload, _log=log):
            _log.append((sim.now, payload))
            if payload == 20:
                # Lands between the pre-scheduled entries at 30.0/31.0.
                sim.schedule_at(30.5, scalar, 999)

        def batch(sim, run, _log=log):
            for k, (t, p) in enumerate(run):
                _log.append((t, p))
                if p == 20:
                    sim.schedule_at(30.5, scalar, 999)
                    return k + 1
            return len(run)

        as_macro(scalar, batch)
        sim = Simulator(fastpath=mode)
        _train(sim, scalar, 64)
        sim.run()
    assert logs["off"] == logs["auto"]
    i = logs["auto"].index((30.5, 999))
    assert logs["auto"][i - 1] == (30.0, 30)
    assert logs["auto"][i + 1] == (31.0, 31)


def _observer_mid_span(sim, log, arrive):
    """A twin'd 100-event train plus one scalar event at t=40.5 that
    calls ``arrive(sim)``; the span batches up to the scalar event."""
    cb = _recorded_pair(log)
    expected = _train(sim, cb, 100)
    sim.schedule_at(40.5, lambda s, _p: arrive(s), -1)
    return expected


def test_probe_added_mid_trace_sees_every_subsequent_event():
    seen = []
    log = []
    sim = Simulator(fastpath="auto")
    expected = _observer_mid_span(
        sim, log, lambda s: s.add_probe(lambda _s, e: seen.append(e.payload))
    )
    sim.run()
    assert log == expected
    # The batch covered 0..40; the probe observed the event installing
    # it and every later event, each exactly once.
    assert seen == [-1] + list(range(41, 100))
    fps = sim.fastpath_stats
    assert fps.batched_events == 41
    assert fps.deopts >= 1


def test_tracer_attached_mid_run_deoptimizes():
    from repro.obs.spans import Tracer, attach_tracer

    log = []
    sim = Simulator(fastpath="auto", metrics=MetricsRegistry())
    expected = _observer_mid_span(
        sim, log, lambda s: attach_tracer(s, Tracer())
    )
    sim.run()
    assert log == expected
    fps = sim.fastpath_stats
    assert fps.batched_events == 41
    assert fps.deopts >= 1


def test_fault_injector_arm_blocks_batching():
    from repro.crosscut.faults import KernelFaultInjector

    class _Target:
        def inject_fault(self, sim, rng):
            pass

    injector = KernelFaultInjector(mean_interval=1e9, rng=0)
    injector.register(_Target())

    log = []
    sim = Simulator(fastpath="auto")
    expected = _observer_mid_span(
        sim, log, lambda s: injector.arm(s, horizon=1.0)
    )
    sim.run()
    assert log == expected
    fps = sim.fastpath_stats
    assert fps.batched_events == 41
    assert fps.deopts >= 1

    # Disarm unblocks: a fresh train on the same simulator batches again.
    injector.disarm()
    before = fps.batched_events
    _train(sim, _recorded_pair(log), 100, start=sim.now + 1.0)
    sim.run()
    assert fps.batched_events > before


def test_fastpath_block_is_reentrant():
    log = []
    cb = _recorded_pair(log)
    sim = Simulator(fastpath="auto")
    sim.fastpath_block()
    sim.fastpath_block()
    sim.fastpath_unblock()
    expected = _train(sim, cb, 64)
    sim.run()  # still one blocker outstanding
    assert log == expected
    assert sim.fastpath_stats.batches == 0
    sim.fastpath_unblock()
    log.clear()
    _train(sim, cb, 64, start=sim.now + 1.0)
    sim.run()
    assert sim.fastpath_stats.batches >= 1


def test_probed_run_never_batches():
    events = []
    log = []
    cb = _recorded_pair(log)
    sim = Simulator(fastpath="auto")
    sim.add_probe(lambda s, e: events.append(e.payload))
    expected = _train(sim, cb, 64)
    sim.run()
    assert log == expected
    assert events == list(range(64))
    assert sim.fastpath_stats.batches == 0


# -- run(until=) and snapshot/restore ----------------------------------------


def test_until_horizon_batches_inclusively():
    log = []
    cb = _recorded_pair(log)
    sim = Simulator(fastpath="auto")
    expected = _train(sim, cb, 100)
    sim.run(until=49.0)
    # ``until`` is inclusive: the event at exactly 49.0 ran.
    assert log == expected[:50]
    assert sim.now == 49.0
    assert sim.fastpath_stats.batches >= 1
    sim.run()
    assert log == expected


def test_schedule_batch_is_schedule_many():
    log = []
    cb = _recorded_pair(log)
    sim = Simulator(fastpath="off")
    n = sim.schedule_batch([0.0, 1.0, 2.0], cb, payloads="abc")
    assert n == 3
    assert len(sim) == 3
    sim.run()
    assert log == [(0.0, "a"), (1.0, "b"), (2.0, "c")]


def _own_calls(fn, name):
    """Calls to ``name`` in ``fn``'s own body, not in nested functions."""
    stack = list(fn.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda, ast.ClassDef)):
            continue
        if isinstance(node, ast.Call):
            func = node.func
            if (getattr(func, "id", None) or getattr(func, "attr", None)) == name:
                yield node
        stack.extend(ast.iter_child_nodes(node))


def test_every_as_macro_twin_is_bulk_loaded_in_the_same_function():
    """A twin only runs on a span a bulk load declares.  Pin that every
    ``as_macro(h, ...)`` in the library sits next to a
    ``schedule_batch(..., h, ...)`` in the same function, so no twin
    can silently stop batching."""
    src = Path(__file__).resolve().parents[2] / "src" / "repro"
    sites = 0
    for path in sorted(src.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            loaded = {
                arg.id
                for call in _own_calls(fn, "schedule_batch")
                for arg in [*call.args, *(kw.value for kw in call.keywords)]
                if isinstance(arg, ast.Name)
            }
            for call in _own_calls(fn, "as_macro"):
                handler = call.args[0]
                where = f"{path.relative_to(src)}:{call.lineno}"
                assert isinstance(handler, ast.Name), where
                assert handler.id in loaded, (
                    f"{where}: as_macro({handler.id}, ...) without "
                    f"schedule_batch(..., {handler.id}, ...) in the same "
                    "function"
                )
                sites += 1
    # Only harvest's tick train is left: the cluster, hedging and NoC
    # twins batched almost nothing and were deleted, and the queue,
    # memory and cpu trace-replay sinks walk their records without
    # the kernel.
    assert sites == 1


# -- randomized guard-abort interleavings ------------------------------------


@st.composite
def _programs(draw):
    """A workload: bulk-loaded twin'd trains + cancellable stragglers."""
    segments = draw(
        st.lists(
            st.tuples(st.integers(0, 1), st.integers(1, 48)),
            min_size=1,
            max_size=6,
        )
    )
    n = sum(length for _, length in segments)
    steps = draw(
        st.lists(
            st.sampled_from([0.0, 0.5, 1.0]), min_size=n, max_size=n
        )
    )
    # Cancellable schedule_at stragglers, mostly landing in the heap
    # inside some train's time range.
    stragglers = draw(
        st.lists(st.floats(0.0, float(n), allow_nan=False), max_size=6)
    )
    cancels = draw(
        st.dictionaries(
            st.integers(0, n - 1),
            st.integers(0, max(len(stragglers) - 1, 0)),
            max_size=4,
        )
    )
    spawns = draw(
        st.dictionaries(
            st.integers(0, n - 1),
            st.sampled_from([0.0, 0.25, 1.5, 100.0]),
            max_size=4,
        )
    )
    # Per-attempt twin budget: 0 declines, k consumes at most k entries.
    budgets = draw(st.lists(st.integers(0, 24), min_size=1, max_size=8))
    split = draw(st.floats(0.0, float(n), allow_nan=False))
    detour = split + draw(st.floats(0.0, float(n), allow_nan=False))
    return segments, steps, stragglers, cancels, spawns, budgets, split, detour


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(_programs())
def test_fastpath_modes_are_observationally_identical(program):
    """Random schedule_batch trains whose twins partially consume or
    decline, mixed with cancellable schedule_at events that span events
    cancel, spawns into the heap, a ``run(until=)`` split, a partial
    run abandoned by a restore, and a snapshot/restore replay: the
    executed streams and SimStats in ``auto`` are byte-identical to
    ``off``."""
    (segments, steps, stragglers, cancels, spawns, budgets, split,
     detour) = program

    def execute(mode):
        log = []
        tokens = []
        attempts = [0]
        sim = Simulator(fastpath=mode)

        def h0(s, i):
            log.append(("h0", s.now, i))
            target = cancels.get(i)
            if target is not None and target < len(tokens):
                tokens[target].cancel()

        def h0_batch(s, run):
            budget = budgets[attempts[0] % len(budgets)]
            attempts[0] += 1
            k = 0
            for t, i in run:
                if k == budget:
                    break
                log.append(("h0", t, i))
                target = cancels.get(i)
                if target is not None and target < len(tokens):
                    tokens[target].cancel()
                k += 1
            return k

        def h1(s, i):
            log.append(("h1", s.now, i))
            delay = spawns.get(i)
            if delay is not None:
                s.schedule(delay, h2, 1000 + i, cancellable=False)

        def h1_batch(s, run):
            for k, (t, i) in enumerate(run):
                log.append(("h1", t, i))
                delay = spawns.get(i)
                if delay is not None:
                    # Hazard horizon: stop right after the spawn so the
                    # kernel re-interleaves the new event.
                    s.schedule_at(t + delay, h2, 1000 + i, cancellable=False)
                    return k + 1
            return None

        def h2(s, i):
            log.append(("h2", s.now, i))

        as_macro(h0, h0_batch)
        as_macro(h1, h1_batch)
        handlers = (h0, h1)
        t = 0.0
        idx = 0
        for hid, length in segments:
            times = []
            for _ in range(length):
                times.append(t)
                t += steps[idx]
                idx += 1
            sim.schedule_batch(times, handlers[hid],
                               payloads=range(idx - length, idx))
        for j, when in enumerate(stragglers):
            tokens.append(sim.schedule_at(when, h2, -1 - j))

        sim.run(until=split)
        snap = sim.snapshot()
        cut = len(log)
        # A detour the restore rolls back (the log is not checkpointed,
        # so truncate it by hand); spans pending at the detour's end
        # must not outlive the restore.
        sim.run(until=detour)
        del log[cut:]
        sim.restore(snap)
        sim.run()
        full = list(log)
        stats = (
            sim.stats.events_executed,
            sim.stats.events_cancelled,
            sim.now,
        )
        sim.restore(snap)
        sim.run()
        tail = log[len(full):]
        assert tail == full[cut:], f"replay diverged in mode {mode}"
        return full, tail, stats

    assert execute("auto") == execute("off"), (
        "auto diverged from the general path"
    )
