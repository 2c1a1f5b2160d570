"""Tests for the performance ledger (``PYTHONPATH=src pytest benchmarks/ledger``).

Workloads run here at a tiny size and for a fraction of a second; the
checks, metrics and wrappers are the same code the full run uses.
"""

from __future__ import annotations

import json
import re
import time
from pathlib import Path

import pytest

import compare
import run
import workloads
from metrics import END_TO_END, PER_LAYER, SPEC
from tracing import TARGETS, Tracer, Wrappers, _owner, self_times

TINY = 0.01


def tiny_run(name: str, tmp_path: Path, trace: bool = False) -> dict:
    return workloads.run(name, seed=7, seconds=0.2, trace=trace, scale=TINY,
                         work=tmp_path / name, goldens=False)


# -- metric names ----------------------------------------------------------


def test_benchmark_json_names_are_valid_and_match_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    for name in [*END_TO_END, *PER_LAYER]:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name


@pytest.mark.parametrize("trace", [False, True])
def test_emitted_metrics_match_the_declared_set(tmp_path, trace):
    res = tiny_run("noc-replay", tmp_path, trace=trace)
    setups = [{"setup_wall_s": x} for x in (1.0, 1.1, 1.2)]
    emitted = run.metric_values(res, setups, trace)
    assert set(emitted) == set(PER_LAYER if trace else END_TO_END)
    for name, m in emitted.items():
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name)
        assert isinstance(m["value"], float), name
        assert m["unit"] == (PER_LAYER if trace else END_TO_END)[name]


# -- self time -------------------------------------------------------------


def span(sid, name, start, end, parent=None, **extra):
    return {"id": sid, "name": name, "trace": "t", "parent": parent,
            "start": start, "end": end, **extra}


def test_self_time_subtracts_children_and_merges_overlaps():
    spans = [
        span(1, "round", 0.0, 10.0),
        span(2, "traces.replay", 1.0, 5.0, parent=1),
        span(3, "traces.replay", 4.0, 8.0, parent=1),   # overlaps span 2
        span(4, "core.run", 2.0, 3.0, parent=2),
        span(5, "memory.access", 2.1, 2.9, parent=4, calls=3, total_s=0.6),
    ]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 7.0)      # union [1, 8]
    assert selfs[2] == pytest.approx(4.0 - 1.0)
    assert selfs[3] == pytest.approx(4.0)
    assert selfs[4] == pytest.approx(1.0 - 0.6)       # aggregate child
    assert selfs[5] == pytest.approx(0.6)


def test_children_are_clipped_to_their_parent():
    spans = [span(1, "a", 0.0, 2.0), span(2, "b", 1.5, 3.0, parent=1)]
    assert self_times(spans)[1] == pytest.approx(1.5)


def test_tracer_records_nesting_aggregates_and_traces():
    tracer = Tracer()
    work = tracer.aggregate("memory.access", lambda x: x + 1)
    with tracer.span("round", trace="r0"):
        with tracer.span("core.run"):
            assert [work(i) for i in range(5)] == [1, 2, 3, 4, 5]
    spans = {s["name"]: s for s in tracer.export()}
    assert spans["core.run"]["parent"] == spans["round"]["id"]
    agg = spans["memory.access"]
    assert agg["parent"] == spans["core.run"]["id"]
    assert agg["calls"] == 5 and agg["total_s"] >= 0.0
    assert {s["trace"] for s in spans.values()} == {"r0"}


# -- latency ---------------------------------------------------------------


def test_each_op_gives_one_sample_the_median_of_its_scaled_repeats():
    nominal = workloads.REF_NOMINAL_S
    rounds = []
    # The host runs at nominal speed, then twice as slow, then nominal:
    # latencies and reference times double together in round 1.
    for slow in (1.0, 2.0, 1.0):
        rounds.append(workloads.Round(
            ops=3, op_ids=["a", "b", "c"],
            latencies_s=[0.1 * slow, 0.3 * slow, 0.5 * slow],
            refs_s=[nominal * slow] * 3, items=[100, 300, 200]))
    # Op "c" failed its check in round 2 and gave no sample there.
    for column in ("op_ids", "latencies_s", "refs_s", "items"):
        del getattr(rounds[2], column)[2]
    e2e = workloads.end_to_end(rounds)
    assert e2e["latency_samples"] == 3
    assert e2e["p50_ms"] == pytest.approx(300.0)
    assert e2e["throughput"] == pytest.approx(600 / (0.1 + 0.3 + 0.5))


def test_stopwatch_reports_the_reference_loop_around_each_op():
    watch = workloads.Stopwatch()
    with watch.op():
        time.sleep(0.01)
    assert watch.latency_s >= 0.01
    assert 0 < watch.ref_s and watch.harness_s > 0
    off = workloads.Stopwatch(calibrated=False)
    with off.op():
        pass
    assert off.ref_s == workloads.REF_NOMINAL_S and off.harness_s == 0


# -- workloads -------------------------------------------------------------


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_each_workload_runs_clean_at_a_tiny_size(tmp_path, name):
    res = tiny_run(name, tmp_path)
    assert res["attempted"] >= 1
    assert res["failed"] == 0, res["failures"]
    assert res["check"] == "self-consistency"
    for metric, m in run.metric_values(res, [res], False).items():
        assert m["value"] > 0, metric


@pytest.mark.parametrize("name", ["mem-replay", "serve-mix"])
def test_traced_run_reproduces_untraced_outputs(tmp_path, name):
    res = tiny_run(name, tmp_path, trace=True)
    assert res["failed"] == 0, res["failures"]
    assert res["traced_match"] is True
    assert set(res["layers"]) == set(PER_LAYER)
    assert res["spans"]
    if name == "mem-replay":
        assert res["layers"]["memory.access_calls"] > 0
        assert res["layers"]["core.events_executed"] > 0
    else:
        assert res["layers"]["serve.requests"] > 0
        assert res["layers"]["datacenter.cluster_run_p50_ms"] > 0


def test_pins_are_checked_and_a_tampered_pin_fails(tmp_path):
    wl = workloads.make("mem-replay", 7, TINY, tmp_path, {})
    wl.setup()
    assert wl.round(0).failed == 0
    good = dict(wl.checker.first)

    pinned = workloads.make("mem-replay", 7, TINY, tmp_path, good)
    pinned.setup()
    assert pinned.round(0).failed == 0
    assert pinned.checker.kind == "pinned"

    op = sorted(good)[0]
    tampered = workloads.make("mem-replay", 7, TINY, tmp_path,
                              dict(good, **{op: "0" * 64}))
    tampered.setup()
    result = tampered.round(0)
    assert result.failed == 1
    assert result.failed / result.ops > 0
    assert any(op in f for f in tampered.checker.failures)


def test_expected_json_pins_the_goldens_and_the_default_seed():
    expected = workloads.load_expected()
    assert len(expected["goldens"]) == 9
    pins = workloads.pins_for(expected, workloads.DEFAULT_SEED, 1.0)
    replay_ops = {op.id for ops in workloads.REPLAY_OPS.values()
                  for op in ops}
    assert replay_ops <= set(pins)
    serve_points = {workloads.serve_point(workloads.DEFAULT_SEED, j, 1)[0]
                    for j in range(workloads.SERVE_POINTS)}
    assert replay_ops | serve_points == set(pins)
    assert workloads.pins_for(expected, workloads.DEFAULT_SEED, TINY) == {}
    assert workloads.check_goldens(expected) == []


# -- wrappers --------------------------------------------------------------


def test_removing_wrappers_restores_the_original_attributes():
    originals = {(m, c, a): vars(_owner(m, c))[a]
                 for m, c, a, _name, _kind in TARGETS}
    wrappers = Wrappers(Tracer()).install()
    try:
        for (m, c, a), original in originals.items():
            assert vars(_owner(m, c))[a] is not original, (c, a)
    finally:
        wrappers.remove()
    for (m, c, a), original in originals.items():
        assert vars(_owner(m, c))[a] is original, (c, a)


# -- compare ---------------------------------------------------------------


def test_compare_verdicts():
    a = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.verdict(a, a, "higher", 0.1)[1] == "agree"
    assert compare.verdict(a, [x * 0.8 for x in a], "higher",
                           0.1)[1] == "B worse"
    assert compare.verdict(a, [x * 0.8 for x in a], "lower",
                           0.1)[1] == "B better"
    noisy = [50.0, 100.0, 150.0, 100.0, 60.0]
    assert compare.verdict(a, noisy, "higher", 0.1)[1] == "unresolved"


def ledger_result(correct=True, attempted=10, failed=0):
    metrics = {name: {"value": 100.0, "unit": unit}
               for name, unit in END_TO_END.items()}
    return {"trace": False, "workloads": {"noc-replay": {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": metrics}}}


def test_compare_calls_b_worse_when_b_fails_checks(tmp_path, capsys):
    a, b = tmp_path / "A.json", tmp_path / "B.json"
    a.write_text("".join(json.dumps(ledger_result()) for _ in range(5)))
    b.write_text(json.dumps([ledger_result()] * 5))
    assert compare.main([str(a), str(b)]) == 0
    capsys.readouterr()

    # Equal timings, but one B run failed an op: not a clean comparison.
    b.write_text(json.dumps([ledger_result()] * 4
                            + [ledger_result(correct=False, failed=1)]))
    assert compare.main([str(a), str(b)]) == 1
    health, timings = capsys.readouterr().out.split("\n\n")
    assert "B worse" in health and "1/50" in health
    assert "B worse" not in timings


def test_a_crashed_workload_is_recorded_and_the_rest_still_run(
        tmp_path, monkeypatch, capsys):
    tried = []
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run, "run_child",
                        lambda name, *args: tried.append(name))
    assert run.main(["--seed", "7"]) == 1
    assert tried == list(workloads.WORKLOADS)
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    n = len(workloads.WORKLOADS)
    assert last == {"correct": False, "attempted": n, "failed": n,
                    "metrics": {}}
    saved = json.loads((tmp_path / "result.json").read_text())
    assert saved["workloads"]["noc-replay"]["failed"] == 1
