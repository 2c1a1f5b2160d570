"""Coalescing: identical design points cost one backend execution.

Covers the coalescer unit (attach / fan-out / abandon / cache fast
path), the cache's coalesced counter, and the end-to-end guarantee
over HTTP: N duplicate submissions, one dispatch, N answered waiters.
"""

from __future__ import annotations

import errno
import os
import queue
import sys
import threading

from repro.core.instrument import MetricsRegistry
from repro.exec.cache import ResultCache
from repro.serve.coalesce import Coalescer
from repro.serve.workloads import design_point

from .conftest import wait_until


def _coalescer(tmp_path):
    metrics = MetricsRegistry(enabled=True)
    cache = ResultCache(tmp_path / "cache", metrics=metrics)
    return Coalescer(cache, metrics=metrics), cache, metrics


class TestCoalescerUnit:
    def test_duplicate_attaches_to_live_entry(self, tmp_path):
        co, cache, metrics = _coalescer(tmp_path)
        point = design_point("spin", {"duration_s": 0.01, "tag": "x"})
        rec_a, entry = co.submit(point)
        assert entry is not None
        assert co.live_entries() == 1  # the point is in flight
        rec_b, dup_entry = co.submit(design_point("spin", {"duration_s": 0.01, "tag": "x"}))
        assert dup_entry is None
        assert rec_b.coalesced and not rec_a.coalesced
        assert cache.coalesced == 1
        assert metrics.counter("exec.cache.coalesced").value == 1
        co.complete(entry, ok=True, result={"v": 1}, duration_s=0.5)
        assert rec_a.status == "succeeded" and rec_b.status == "succeeded"
        assert rec_a.result == rec_b.result == {"v": 1}
        assert co.live_entries() == 0

    def test_distinct_points_do_not_coalesce(self, tmp_path):
        co, _, _ = _coalescer(tmp_path)
        _, entry_a = co.submit(design_point("spin", {"tag": "a"}))
        _, entry_b = co.submit(design_point("spin", {"tag": "b"}))
        assert entry_a is not None and entry_b is not None
        assert entry_a.design_id != entry_b.design_id

    def test_completion_populates_cache_fast_path(self, tmp_path):
        co, cache, metrics = _coalescer(tmp_path)
        point = design_point("spin", {"tag": "warm"})
        _, entry = co.submit(point)
        co.complete(entry, ok=True, result={"v": 2}, duration_s=0.1)
        # Same design point again: served from cache, no new entry.
        record, entry2 = co.submit(design_point("spin", {"tag": "warm"}))
        assert entry2 is None
        assert record.cached and record.terminal
        assert record.result == {"v": 2}
        assert metrics.counter("serve.cache_fast_path").value == 1

    def test_failure_fans_out_error(self, tmp_path):
        co, cache, _ = _coalescer(tmp_path)
        _, entry = co.submit(design_point("spin", {"tag": "bad"}))
        rec_b, _ = co.submit(design_point("spin", {"tag": "bad"}))
        co.complete(entry, ok=False, error="ValueError: boom")
        assert rec_b.status == "failed"
        assert rec_b.error == "ValueError: boom"
        # A failure is not cached: resubmission opens a fresh entry.
        _, entry2 = co.submit(design_point("spin", {"tag": "bad"}))
        assert entry2 is not None

    def test_abandon_rolls_back_claim_and_records(self, tmp_path):
        co, cache, _ = _coalescer(tmp_path)
        record, entry = co.submit(design_point("spin", {"tag": "shed"}))
        co.abandon(entry)
        assert co.get(record.run_id) is None
        assert co.live_entries() == 0

    def test_done_callback_fires_immediately_when_terminal(self, tmp_path):
        co, _, _ = _coalescer(tmp_path)
        _, entry = co.submit(design_point("spin", {"tag": "cb"}))
        record = entry.records[0]
        co.complete(entry, ok=True, result=1)
        fired = []
        record.add_done_callback(lambda: fired.append(True))
        assert fired == [True]


class _HeldCache(ResultCache):
    """A cache whose publish waits until the test releases it."""

    def __init__(self, root, metrics):
        super().__init__(root, metrics=metrics)
        self.publishing = threading.Event()
        self.release = threading.Event()

    def publish(self, artifact):
        self.publishing.set()
        assert self.release.wait(10.0)
        return super().publish(artifact)


class TestAnswerBeforeWrite:
    def test_waiters_wake_before_the_write_and_duplicates_hit_the_entry(
            self, tmp_path):
        metrics = MetricsRegistry(enabled=True)
        cache = _HeldCache(tmp_path / "cache", metrics)
        co = Coalescer(cache, metrics=metrics)
        record, entry = co.submit(design_point("spin", {"tag": "abw"}))
        woken = threading.Event()
        record.add_done_callback(woken.set)
        done = threading.Thread(
            target=co.complete, args=(entry,),
            kwargs={"ok": True, "result": {"t": (1, 2)}},
        )
        done.start()
        try:
            assert cache.publishing.wait(10.0)
            # Answered with the canonical form; no file yet.
            assert woken.is_set() and record.result == {"t": [1, 2]}
            assert cache.get(entry.key) is None
            dup, dup_entry = co.submit(design_point("spin", {"tag": "abw"}))
            assert dup_entry is None and dup.terminal
            assert dup.cached and not dup.coalesced
            assert dup.result == {"t": [1, 2]}
            assert metrics.counter("serve.cache_fast_path").value == 1
            assert metrics.counter("serve.coalesced").value == 0
            assert co.live_entries() == 1
        finally:
            cache.release.set()
            done.join(10.0)
        assert co.live_entries() == 0
        assert cache.get(entry.key)["result"] == {"t": [1, 2]}
        later, later_entry = co.submit(design_point("spin", {"tag": "abw"}))
        assert later_entry is None and later.cached
        assert metrics.counter("serve.cache_fast_path").value == 2

    def test_a_failed_publish_still_retires_the_entry(
            self, tmp_path, monkeypatch):
        co, cache, metrics = _coalescer(tmp_path)
        record, entry = co.submit(design_point("spin", {"tag": "full"}))

        def disk_full(src, dst):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(os, "replace", disk_full)
        co.complete(entry, ok=True, result={"v": 1})
        assert record.status == "succeeded" and record.result == {"v": 1}
        assert co.live_entries() == 0
        assert metrics.counter("exec.cache.write_failed").value == 1
        assert cache.stats()["write_failed"] == 1


    def test_concurrent_submits_and_completions_lose_no_record(
            self, tmp_path):
        co, cache, metrics = _coalescer(tmp_path)
        records, entries = [], queue.Queue()

        def submit_many(n):
            for i in range(n):
                record, entry = co.submit(
                    design_point("spin", {"tag": f"t{i}"}))
                records.append(record)
                if entry is not None:
                    entries.put(entry)

        def complete_all():
            while (entry := entries.get(timeout=10.0)) is not None:
                co.complete(entry, ok=True, result=entry.point.config)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            completer = threading.Thread(target=complete_all)
            submitters = [threading.Thread(target=submit_many, args=(150,))
                          for _ in range(4)]
            for thread in [completer, *submitters]:
                thread.start()
            for thread in submitters:
                thread.join(30.0)
            entries.put(None)
            completer.join(30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not completer.is_alive()
        assert not any(thread.is_alive() for thread in submitters)
        assert len(records) == 600 and co.live_entries() == 0
        config_of = {design_point("spin", {"tag": f"t{k}"}).design_id:
                     {"tag": f"t{k}"} for k in range(150)}
        for record in records:
            assert record.status == "succeeded"
            assert record.result == config_of[record.design_id]
        dispatched = len(records) - sum(r.cached or r.coalesced
                                        for r in records)
        value = lambda name: metrics.counter(name).value  # noqa: E731
        assert value("serve.requests") == 600
        assert (value("serve.cache_fast_path") + value("serve.coalesced")
                + dispatched) == 600
        assert value("serve.cache_fast_path") == sum(r.cached for r in records)


class TestCacheSingleFlight:
    def test_coalesced_counter_in_stats(self, tmp_path):
        metrics = MetricsRegistry(enabled=True)
        cache = ResultCache(tmp_path / "c", metrics=metrics)
        assert cache.stats()["coalesced"] == 0
        cache.note_coalesced()
        cache.note_coalesced(2)
        assert cache.stats()["coalesced"] == 3
        assert metrics.counter("exec.cache.coalesced").value == 3


class TestHttpCoalescing:
    def test_n_duplicates_one_dispatch(self, serve_factory):
        handle, client = serve_factory()
        app = handle.app
        n = 6
        run_ids = []
        for _ in range(n):
            status, _, body = client.submit("spin", {"duration_s": 0.2, "tag": "dup"})
            assert status == 202
            run_ids.append(body["run_id"])
        wait_until(
            lambda: all(
                app.coalescer.get(rid).terminal for rid in run_ids
            ),
            timeout_s=15.0,
        )
        records = [app.coalescer.get(rid) for rid in run_ids]
        assert all(r.status == "succeeded" for r in records)
        results = {repr(r.result) for r in records}
        assert len(results) == 1  # one fanned-out result
        assert app.dispatcher.dispatched == 1  # exactly one backend job
        assert sum(1 for r in records if r.coalesced) == n - 1
        metrics = client.metrics_text()
        assert f"repro_serve_coalesced_total {n - 1}" in metrics
        assert f"repro_exec_cache_coalesced_total {n - 1}" in metrics

    def test_duplicates_attach_while_queued(self, serve_factory):
        handle, client = serve_factory(max_inflight=1)
        app = handle.app
        client.submit("spin", {"duration_s": 0.3, "tag": "hold"})
        wait_until(lambda: app.admission.inflight() == 1)
        params = {"duration_s": 0.0, "tag": "queued"}
        _, _, first = client.submit("spin", params)
        _, _, dup = client.submit("spin", params)
        assert first["runs"][0]["status"] == "queued"
        assert dup["runs"][0]["coalesced"] is True
        wait_until(app.dispatcher.idle, timeout_s=15.0)
        assert app.dispatcher.dispatched == 2
        assert app.coalescer.get(dup["run_id"]).status == "succeeded"

    def test_duplicate_after_finish_hits_cache(self, serve_factory):
        handle, client = serve_factory()
        params = {"duration_s": 0.0, "tag": "fast"}
        status, _, _ = client.submit("spin", params, wait=True)
        assert status == 200
        status, _, dup = client.submit("spin", params)
        assert status == 200
        assert dup["runs"][0]["cached"] is True
        assert handle.app.dispatcher.dispatched == 1
        assert "repro_serve_cache_fast_path_total 1" in client.metrics_text()

    def test_repetitions_are_distinct_design_points(self, serve_factory):
        handle, client = serve_factory()
        status, _, body = client.submit(
            "spin", {"duration_s": 0.01}, repetitions=3, wait=True
        )
        assert status == 200
        design_ids = {r["design_id"] for r in body["runs"]}
        assert len(design_ids) == 3
        assert handle.app.dispatcher.dispatched == 3

    def test_sweep_with_shared_base_params(self, serve_factory):
        _, client = serve_factory()
        status, _, body = client.submit(
            "spin",
            {"duration_s": 0.01},
            wait=True,
            sweep=[{"tag": "s1"}, {"tag": "s2"}],
        )
        assert status == 200
        assert body["count"] == 2
        assert all(r["status"] == "succeeded" for r in body["runs"])
