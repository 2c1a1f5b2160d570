"""Array/batch backend: shard a JobGraph into array-task manifests.

Batch schedulers (Slurm/SGE/PBS) run *array jobs*: one submission, N
numbered tasks, each task told only its index.  This backend speaks
that idiom — the cgptoolbox ``cGP_submitscript`` pattern — in two ways:

**Offline planning** (:func:`plan_array`): shard a
:class:`~repro.exec.job.JobGraph` into ``task-NNNN/`` directories under
a manifest root, each holding a human-readable ``manifest.json`` (job
ids, callable names, shard index) and a ``payload.pkl`` (the picklable
work itself).  Jobs are dealt round-robin in insertion order, so shard
sizes differ by at most one.  :func:`emit_submit_script` renders an
``sbatch``-style submission script whose array tasks each run
``python -m repro.exec.backends.array <root> --task $INDEX``;
:func:`run_array_task` is what that entry point executes (jobs in
manifest order, through the shared content-addressed
:class:`~repro.exec.cache.ResultCache` when one is configured, results
written atomically to ``result.pkl``); :func:`collect` folds every
finished task's rows back into one mapping.

**Engine-driven batching** (:class:`ArrayBackend`): the same manifests,
driven live.  ``submit()`` buffers attempts; once ``shard_size`` are
waiting (or the queue has lingered), a shard is written and launched as
a local task process — the loopback stand-in for ``sbatch``.  ``poll``
reaps finished tasks by reading their result files, which is exactly
how a real array run reports: through the filesystem, not a pipe.
Heartbeats cannot stream out of a batch task, so the hang watchdog
never fires here; timeouts are enforced per *task* (the whole shard
is killed and each unfinished job reports ``timeout``).
"""

from __future__ import annotations

import json
import multiprocessing as mp
import os
import pickle
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence

from ..job import Job, JobGraph, callable_name, invoke
from ..runners import (
    ATTEMPT_CRASH,
    ATTEMPT_ERROR,
    ATTEMPT_OK,
    ATTEMPT_TIMEOUT,
    Attempt,
)

__all__ = [
    "ArrayBackend",
    "collect",
    "emit_submit_script",
    "plan_array",
    "run_array_task",
]

#: Manifest schema version; a task runner refuses a newer manifest.
MANIFEST_VERSION = 1


# --------------------------------------------------------------------------
# Manifests on disk
# --------------------------------------------------------------------------


def _task_dir(root: str, index: int) -> str:
    return os.path.join(root, f"task-{index:04d}")


def _write_task(
    root: str,
    index: int,
    entries: Sequence[Mapping[str, Any]],
) -> str:
    """Write one task's manifest + payload; returns the task dir."""
    task_dir = _task_dir(root, index)
    os.makedirs(task_dir, exist_ok=True)
    payload = [dict(e) for e in entries]
    with open(os.path.join(task_dir, "payload.pkl"), "wb") as fh:
        pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)
    manifest = {
        "version": MANIFEST_VERSION,
        "task": index,
        "jobs": [
            {
                "id": e["job_id"],
                "fn": callable_name(e["fn"]),
                "timeout_s": e.get("timeout_s"),
            }
            for e in payload
        ],
    }
    tmp = os.path.join(task_dir, ".manifest.tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    os.replace(tmp, os.path.join(task_dir, "manifest.json"))
    return task_dir


def plan_array(
    graph: JobGraph,
    shards: int,
    root: str,
    base_seed: Optional[int] = None,
) -> List[str]:
    """Shard ``graph`` into at most ``shards`` array-task manifests.

    Job ``i`` (in insertion order) goes to shard ``i % shards``; no
    shard is left empty.  ``base_seed`` applies the engine's
    deterministic per-job seed injection at plan time, so a manifest is
    self-contained: the task runner needs no engine.  Returns the task
    directories written, in index order.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    from ..job import derive_seed

    ids = graph.ids()
    n = min(shards, len(ids))
    bins = [ids[i::n] for i in range(n)]
    task_dirs = []
    for index, job_ids in enumerate(bins):
        entries = []
        for jid in job_ids:
            job = graph.get(jid)
            config = dict(job.config) if job.config is not None else None
            if job.seed_key is not None and base_seed is not None:
                config = dict(config or {})
                config[job.seed_key] = derive_seed(base_seed, jid)
            entries.append(
                {
                    "job_id": jid,
                    "fn": job.fn,
                    "config": config,
                    "timeout_s": job.timeout_s,
                }
            )
        task_dirs.append(_write_task(root, index, entries))
    index_manifest = {
        "version": MANIFEST_VERSION,
        "tasks": len(task_dirs),
        "jobs": len(graph),
    }
    tmp = os.path.join(root, ".manifest.tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(index_manifest, fh, indent=2, sort_keys=True)
    os.replace(tmp, os.path.join(root, "manifest.json"))
    return task_dirs


def emit_submit_script(
    root: str, python: str = "python", time_limit: str = "01:00:00"
) -> str:
    """Render an sbatch-style array submission script for a planned root."""
    with open(os.path.join(root, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    n = int(manifest["tasks"])
    return "\n".join(
        [
            "#!/bin/sh",
            f"#SBATCH --array=0-{n - 1}",
            f"#SBATCH --time={time_limit}",
            "# One array task = one manifest shard; results land in",
            "# <root>/task-NNNN/result.pkl and the shared ResultCache.",
            f'{python} -m repro.exec.backends.array "{root}" '
            '--task "${SLURM_ARRAY_TASK_ID:-$1}"',
            "",
        ]
    )


# --------------------------------------------------------------------------
# Task execution (what each array task actually runs)
# --------------------------------------------------------------------------


def run_array_task(
    root: str,
    index: int,
    cache_dir: Optional[str] = None,
) -> List[dict]:
    """Execute one shard; write ``result.pkl`` atomically; return rows.

    Jobs run serially in manifest order.  With ``cache_dir`` set, each
    job consults/publishes the shared content-addressed cache, so
    concurrent tasks (and other backends) reuse one artifact store.
    """
    task_dir = _task_dir(root, index)
    with open(os.path.join(task_dir, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    if manifest.get("version", 0) > MANIFEST_VERSION:
        raise RuntimeError(
            f"manifest version {manifest.get('version')} is newer than this "
            f"runner (v{MANIFEST_VERSION}); upgrade the worker side"
        )
    with open(os.path.join(task_dir, "payload.pkl"), "rb") as fh:
        entries = pickle.load(fh)
    cache = None
    if cache_dir is not None:
        from ..cache import ResultCache

        cache = ResultCache(cache_dir)
    rows: List[dict] = []
    for entry in entries:
        jid = entry["job_id"]
        key = None
        if cache is not None:
            key = cache.try_key_for(
                callable_name(entry["fn"]), entry.get("config"), job_id=jid
            )
            if key is not None:
                artifact = cache.get(key)
                if artifact is not None:
                    rows.append(
                        {
                            "job_id": jid,
                            "status": ATTEMPT_OK,
                            "result": artifact["result"],
                            "error": None,
                            "duration_s": 0.0,
                            "cached": True,
                        }
                    )
                    continue
        start = time.perf_counter()
        try:
            result = invoke(entry["fn"], entry.get("config"))
            status: str = ATTEMPT_OK
            error: Optional[str] = None
        except BaseException as exc:  # noqa: BLE001 - job errors are rows
            result = None
            status = ATTEMPT_ERROR
            error = f"{type(exc).__name__}: {exc}"
        duration = time.perf_counter() - start
        timeout_s = entry.get("timeout_s")
        if status == ATTEMPT_OK and timeout_s is not None and duration > timeout_s:
            # Batch tasks cannot be preempted per job; classify post hoc
            # exactly like the serial runner.
            status = ATTEMPT_TIMEOUT
            result = None
            error = f"exceeded timeout of {timeout_s}s (ran {duration:.3f}s)"
        if status == ATTEMPT_OK and cache is not None and key is not None:
            artifact = cache.put(
                key, callable_name(entry["fn"]), entry.get("config"),
                result, duration,
            )
            if artifact is not None:
                result = artifact["result"]
        rows.append(
            {
                "job_id": jid,
                "status": status,
                "result": result,
                "error": error,
                "duration_s": duration,
            }
        )
    tmp = os.path.join(task_dir, f".result.tmp.{os.getpid()}")
    with open(tmp, "wb") as fh:
        pickle.dump(rows, fh, protocol=pickle.HIGHEST_PROTOCOL)
    os.replace(tmp, os.path.join(task_dir, "result.pkl"))
    return rows


def collect(root: str) -> Dict[str, dict]:
    """Fold every finished task's rows into ``{job_id: row}``.

    Tasks without a ``result.pkl`` yet are simply absent — call again
    as the array drains.  Corrupt result files are skipped (the rows
    reappear once the task reruns), the cache's corruption-as-miss
    stance applied to task outputs.
    """
    out: Dict[str, dict] = {}
    if not os.path.isdir(root):
        return out
    for name in sorted(os.listdir(root)):
        if not name.startswith("task-"):
            continue
        path = os.path.join(root, name, "result.pkl")
        try:
            with open(path, "rb") as fh:
                rows = pickle.load(fh)
        except (OSError, pickle.UnpicklingError, EOFError):
            continue
        for row in rows:
            out[row["job_id"]] = row
    return out


# --------------------------------------------------------------------------
# Engine-driven backend
# --------------------------------------------------------------------------


@dataclass
class _Task:
    """One launched shard (local stand-in for an array task)."""

    index: int
    job_ids: List[str]
    process: mp.Process
    started: float
    deadline: Optional[float]
    entries: Dict[str, dict] = field(default_factory=dict)


class ArrayBackend:
    """Engine-facing batching backend over array-task manifests.

    ``submit()`` buffers; shards of ``shard_size`` jobs launch as local
    task processes (up to ``max_parallel`` at once), each executing
    :func:`run_array_task` against this backend's manifest root.  A
    partial shard launches once the queue has lingered ``linger_s``
    without filling — sweeps whose tail does not divide evenly still
    finish promptly.  ``task_timeout_s`` bounds a whole shard's wall
    clock; a shard that exceeds it is killed and its unfinished jobs
    report ``timeout``.
    """

    name = "array"

    def __init__(
        self,
        root: str,
        shard_size: int = 4,
        max_parallel: int = 2,
        linger_s: float = 0.05,
        cache_dir: Optional[str] = None,
        task_timeout_s: Optional[float] = None,
    ) -> None:
        if shard_size < 1:
            raise ValueError(f"shard_size must be >= 1, got {shard_size}")
        if max_parallel < 1:
            raise ValueError(f"max_parallel must be >= 1, got {max_parallel}")
        self.root = str(root)
        os.makedirs(self.root, exist_ok=True)
        self.shard_size = shard_size
        self.max_parallel = max_parallel
        self.linger_s = linger_s
        self.cache_dir = cache_dir
        self.task_timeout_s = task_timeout_s
        self._queue: List[dict] = []
        self._tasks: List[_Task] = []
        self._done: List[Attempt] = []
        self._next_index = 0
        self._last_submit = 0.0
        self._ctx = mp.get_context()

    # -- Runner protocol ---------------------------------------------------

    def capacity(self) -> int:
        # Queue-based: the engine may hand over every ready job; shards
        # launch as slots free up.
        return max(0, self.max_parallel * self.shard_size * 4 - self.active())

    def active(self) -> int:
        return len(self._queue) + sum(len(t.job_ids) for t in self._tasks)

    def submit(
        self,
        job: Job,
        config: Optional[Mapping[str, Any]],
        timeout_s: Optional[float],
        hang_timeout_s: Optional[float] = None,
        telemetry: Optional[Any] = None,
    ) -> None:
        del hang_timeout_s, telemetry  # batch tasks: no live channel
        entry = {
            "job_id": job.id,
            "fn": job.fn,
            "config": dict(config) if config is not None else None,
            "timeout_s": timeout_s,
        }
        # Fail unpicklable jobs at submit time, like every other backend.
        pickle.dumps(entry["fn"], protocol=pickle.HIGHEST_PROTOCOL)
        self._queue.append(entry)
        self._last_submit = time.perf_counter()
        self._maybe_launch()

    def poll(self) -> List[Attempt]:
        self._maybe_launch()
        now = time.perf_counter()
        still: List[_Task] = []
        for task in self._tasks:
            result_path = os.path.join(
                _task_dir(self.root, task.index), "result.pkl"
            )
            finished = not task.process.is_alive()
            overdue = task.deadline is not None and now > task.deadline
            if not finished and not overdue:
                still.append(task)
                continue
            if overdue and not finished:
                task.process.terminate()
                task.process.join(1.0)
                if task.process.is_alive():  # pragma: no cover
                    task.process.kill()
                    task.process.join(1.0)
            else:
                task.process.join(0)
            rows: Dict[str, dict] = {}
            try:
                with open(result_path, "rb") as fh:
                    rows = {r["job_id"]: r for r in pickle.load(fh)}
            except (OSError, pickle.UnpicklingError, EOFError):
                rows = {}
            for jid in task.job_ids:
                row = rows.get(jid)
                if row is not None:
                    self._done.append(
                        Attempt(
                            jid,
                            row["status"],
                            row.get("result"),
                            row.get("error"),
                            float(row.get("duration_s", 0.0)),
                        )
                    )
                elif overdue:
                    self._done.append(
                        Attempt(
                            jid,
                            ATTEMPT_TIMEOUT,
                            None,
                            f"array task {task.index} exceeded "
                            f"{self.task_timeout_s}s; shard killed",
                            now - task.started,
                        )
                    )
                else:
                    self._done.append(
                        Attempt(
                            jid,
                            ATTEMPT_CRASH,
                            None,
                            f"array task {task.index} exited "
                            f"(code {task.process.exitcode}) without a row "
                            f"for this job",
                            now - task.started,
                        )
                    )
        self._tasks = still
        done, self._done = self._done, []
        return done

    def shutdown(self) -> None:
        for task in self._tasks:
            if task.process.is_alive():
                task.process.terminate()
        for task in self._tasks:
            task.process.join(1.0)
            if task.process.is_alive():  # pragma: no cover
                task.process.kill()
                task.process.join(1.0)
        self._tasks.clear()
        self._queue.clear()

    # -- internals ---------------------------------------------------------

    def _maybe_launch(self) -> None:
        now = time.perf_counter()
        while self._queue and len(self._tasks) < self.max_parallel:
            if (
                len(self._queue) < self.shard_size
                and now - self._last_submit < self.linger_s
            ):
                return  # wait for the shard to fill (or the linger to pass)
            shard, self._queue = (
                self._queue[: self.shard_size],
                self._queue[self.shard_size :],
            )
            index = self._next_index
            self._next_index += 1
            _write_task(self.root, index, shard)
            process = self._ctx.Process(
                target=run_array_task,
                args=(self.root, index, self.cache_dir),
                name=f"repro-array-task-{index}",
                daemon=True,
            )
            process.start()
            self._tasks.append(
                _Task(
                    index=index,
                    job_ids=[e["job_id"] for e in shard],
                    process=process,
                    started=now,
                    deadline=(
                        now + self.task_timeout_s
                        if self.task_timeout_s is not None
                        else None
                    ),
                )
            )


def _main(argv: Optional[List[str]] = None) -> int:
    """CLI for one array task: ``python -m repro.exec.backends.array``."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.exec.backends.array",
        description="Run one array-task shard from a planned manifest root.",
    )
    parser.add_argument("root", help="manifest root written by plan_array()")
    parser.add_argument("--task", type=int, required=True, metavar="I",
                        help="array task index (e.g. $SLURM_ARRAY_TASK_ID)")
    parser.add_argument("--cache", default=None, metavar="DIR",
                        help="shared content-addressed result cache")
    args = parser.parse_args(argv)
    rows = run_array_task(args.root, args.task, cache_dir=args.cache)
    bad = sum(1 for r in rows if r["status"] != ATTEMPT_OK)
    print(
        f"task {args.task}: {len(rows)} jobs, "
        f"{len(rows) - bad} ok, {bad} failed"
    )
    return 0 if bad == 0 else 1


if __name__ == "__main__":  # pragma: no cover - exercised via CLI smoke
    raise SystemExit(_main())
