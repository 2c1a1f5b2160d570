"""Content-addressed on-disk result cache for the execution engine.

A finished job's result is stored as a small JSON artifact whose path
is derived from a stable SHA-256 key over four ingredients:

* the job id (when keyed through the engine) — two jobs with the same
  callable and config are still distinct work items, e.g. registry
  experiments that all run through ``Experiment.execute``,
* the job callable's dotted name (:func:`repro.exec.job.callable_name`),
* the *canonicalized* job config (key order normalized, NumPy scalars
  coerced to plain Python, arrays hashed by full content, tuples to
  lists), and
* the library version — bumping ``repro.__version__`` invalidates every
  artifact at once, the blunt-but-safe answer to "the models changed".

Config values that cannot be canonicalized (arbitrary objects whose
identity lives in ``repr``) raise ``TypeError`` rather than hashing
unstably; the engine reacts by running such jobs *uncached* (counted as
``unkeyable``), never by crashing the sweep.

Layout (git-style two-character sharding to keep directories small)::

    <root>/<key[:2]>/<key>.json

Failure semantics: a missing, truncated, or otherwise unreadable
artifact is a *miss*, never an exception — the job simply reruns and
the artifact is rewritten (writes are atomic via ``os.replace``).
Corruption is never *silent*, though: each corrupt artifact is counted
(``exec.cache.corrupt`` in the session registry, ``corrupt`` in
:meth:`ResultCache.stats` and hence in ``RunReport.cache_stats`` /
``one_line``) and the bad file is quarantined aside (renamed to
``*.corrupt``) so one torn write cannot re-count as corruption on
every subsequent run.  Results that cannot be represented as JSON are
counted as ``rejected`` and simply not cached.

Multi-host sharing: the layout is safe for many concurrent readers and
writers on one shared filesystem (the socket/array backends' workers
all hit one cache).  Keys are content-addressed so two hosts computing
the same artifact write identical bytes; publishes go through a
same-directory temp file + ``os.replace``, which is atomic on POSIX
filesystems (including NFS renames within a directory) — a reader sees
either the old artifact, the new one, or a miss, never a torn file.

Coalescing: the request coalescer in :mod:`repro.serve` keeps the
record of in-flight keys itself and attaches a duplicate lookup to the
live computation; :meth:`ResultCache.note_coalesced` counts each such
lookup (``exec.cache.coalesced``).  Keys come from the public
:meth:`~ResultCache.try_key_for`, so every layer agrees on one
canonical key derivation.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import time
from pathlib import Path
from typing import Any, Mapping, Optional

from ..core.instrument import MetricsRegistry, default_registry

__all__ = ["ResultCache", "cache_key", "canonicalize", "repro_version"]


def repro_version() -> str:
    """The library version used in cache keys (lazy import: no cycles)."""
    import repro

    return str(getattr(repro, "__version__", "0"))


def canonicalize(obj: Any, strict: bool = False) -> Any:
    """Normalize a value into a stable, JSON-representable form.

    Mappings are sorted by (stringified) key, tuples/lists/sets become
    lists (sets sorted by their JSON rendering), and NumPy scalars are
    collapsed through ``.item()`` / ``float()``.  Anything else raises
    ``TypeError`` — never a ``repr`` fallback, whose memory addresses
    make keys unstable across runs and whose truncated array rendering
    can alias two *different* configs to one key.

    With ``strict=False`` (config hashing) array-likes are additionally
    expanded by full content via ``.tolist()``.  ``strict=True`` is for
    cached *results*, where silently turning an array into a list would
    hand warm reruns a different type than cold runs; such results are
    rejected from the cache instead.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):  # covers np.float64, which subclasses float
        return float(obj)
    if isinstance(obj, Mapping):
        return {str(k): canonicalize(obj[k], strict) for k in sorted(obj, key=str)}
    if isinstance(obj, (list, tuple)):
        return [canonicalize(v, strict) for v in obj]
    if isinstance(obj, (set, frozenset)):
        items = [canonicalize(v, strict) for v in obj]
        return sorted(items, key=lambda v: json.dumps(v, sort_keys=True))
    item = getattr(obj, "item", None)
    if callable(item):
        try:
            return canonicalize(item(), strict)
        except (TypeError, ValueError):
            pass
    if not strict:
        tolist = getattr(obj, "tolist", None)
        if callable(tolist):
            try:
                return canonicalize(tolist(), strict)
            except (TypeError, ValueError):
                pass
    raise TypeError(f"value of type {type(obj).__name__} is not JSON-cacheable")


def cache_key(
    fn_name: str,
    config: Optional[Mapping[str, Any]],
    version: str,
    job_id: Optional[str] = None,
) -> str:
    """SHA-256 hex key over job id + callable name + config + version.

    ``job_id`` disambiguates jobs that share a callable and config —
    without it, e.g., every registry experiment (all bound to
    ``Experiment.execute`` with no config) would collapse onto one
    artifact and warm reruns would hand experiments each other's
    results.  Raises ``TypeError`` if the config cannot be
    canonicalized into a stable form.
    """
    payload = json.dumps(
        {
            "job": job_id,
            "fn": fn_name,
            "config": canonicalize(config) if config is not None else None,
            "version": version,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode()).hexdigest()


class ResultCache:
    """On-disk artifact store with miss-on-corruption semantics."""

    def __init__(
        self,
        root: str | os.PathLike[str],
        version: Optional[str] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.version = version if version is not None else repro_version()
        self._metrics = metrics
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        self.writes = 0
        self.rejected = 0
        self.write_failed = 0
        self.unkeyable = 0
        self.coalesced = 0

    # -- bookkeeping -------------------------------------------------------

    def _count(self, name: str) -> None:
        registry = self._metrics if self._metrics is not None else default_registry()
        registry.counter(f"exec.cache.{name}").inc()

    def stats(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "corrupt": self.corrupt,
            "writes": self.writes,
            "rejected": self.rejected,
            "write_failed": self.write_failed,
            "unkeyable": self.unkeyable,
            "coalesced": self.coalesced,
        }

    # -- coalescing --------------------------------------------------------

    def note_coalesced(self, n: int = 1) -> None:
        """Count lookups served by attaching to an in-flight key."""
        self.coalesced += n
        registry = self._metrics if self._metrics is not None else default_registry()
        registry.counter("exec.cache.coalesced").inc(n)

    # -- addressing --------------------------------------------------------

    def key_for(
        self,
        fn_name: str,
        config: Optional[Mapping[str, Any]],
        job_id: Optional[str] = None,
    ) -> str:
        return cache_key(fn_name, config, self.version, job_id)

    def try_key_for(
        self,
        fn_name: str,
        config: Optional[Mapping[str, Any]],
        job_id: Optional[str] = None,
    ) -> Optional[str]:
        """Like :meth:`key_for`, but an unhashable config yields ``None``
        (the job runs uncached) instead of raising — the engine's path."""
        try:
            return self.key_for(fn_name, config, job_id)
        except TypeError:
            self.unkeyable += 1
            self._count("unkeyable")
            return None

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    # -- read/write --------------------------------------------------------

    def _quarantine(self, path: Path) -> None:
        """Move a corrupt artifact aside so it is counted exactly once.

        The rename is best-effort: on a shared cache another host may
        have already quarantined (or rewritten) the file.
        """
        try:
            os.replace(path, path.with_suffix(path.suffix + ".corrupt"))
        except OSError:
            pass

    def _miss_corrupt(self, path: Path) -> None:
        self.corrupt += 1
        self.misses += 1
        self._count("corrupt")
        self._count("miss")
        self._quarantine(path)

    def get(self, key: str) -> Optional[dict]:
        """Full artifact dict on hit; ``None`` on miss or corruption."""
        path = self.path_for(key)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                artifact = json.load(fh)
        except FileNotFoundError:
            self.misses += 1
            self._count("miss")
            return None
        except (json.JSONDecodeError, UnicodeDecodeError, OSError, ValueError):
            # Truncated/garbled artifact: a loudly-counted miss — the
            # job reruns, the artifact is rewritten, and the bad file
            # is quarantined for post-mortem.
            self._miss_corrupt(path)
            return None
        if (
            not isinstance(artifact, dict)
            or "result" not in artifact
            or artifact.get("key") != key
        ):
            self._miss_corrupt(path)
            return None
        self.hits += 1
        self._count("hit")
        return artifact

    def build(
        self,
        key: str,
        fn_name: str,
        config: Optional[Mapping[str, Any]],
        result: Any,
        wall_time_s: float = 0.0,
    ) -> Optional[dict]:
        """The artifact :meth:`put` would store; ``None`` if not JSON-able.

        Its ``"result"`` entry is the *canonical JSON form* of the
        result (tuples are lists, dict keys are strings).  Nothing is
        written: :meth:`publish` does that, so a caller may hand the
        canonical result on before paying for the file.
        """
        try:
            return {
                "key": key,
                "fn": fn_name,
                "config": canonicalize(config) if config is not None else None,
                "version": self.version,
                "result": canonicalize(result, strict=True),
                "wall_time_s": float(wall_time_s),
                "created_at": time.time(),
            }
        except (TypeError, ValueError):
            self._reject()
            return None

    def publish(self, artifact: dict) -> bool:
        """Atomically write a :meth:`build` artifact; ``False`` if it
        cannot be serialized (counted as rejected, nothing written).

        A failed write (full disk, unwritable directory) removes its
        temp file, is counted ``write_failed`` and raises the
        ``OSError``."""
        try:
            payload = json.dumps(artifact, sort_keys=True)
        except (TypeError, ValueError):
            self._reject()
            return False
        path = self.path_for(artifact["key"])
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp.write_text(payload, encoding="utf-8")
            os.replace(tmp, path)
        except OSError:
            with contextlib.suppress(OSError):
                tmp.unlink(missing_ok=True)
            self.write_failed += 1
            self._count("write_failed")
            raise
        self.writes += 1
        self._count("write")
        return True

    def _reject(self) -> None:
        self.rejected += 1
        self._count("rejected")

    def put(
        self,
        key: str,
        fn_name: str,
        config: Optional[Mapping[str, Any]],
        result: Any,
        wall_time_s: float = 0.0,
    ) -> Optional[dict]:
        """:meth:`build` then :meth:`publish`; ``None`` if not JSON-able.

        Otherwise the return value is the artifact dict, also when its
        write failed: :meth:`publish` counted that ``write_failed``, and
        a job that succeeded must not fail for want of its cache file.
        The engine hands its canonical ``"result"`` to the caller on the
        cold path too, so cold and warm runs of a cached job always
        agree on types.
        """
        artifact = self.build(key, fn_name, config, result, wall_time_s)
        try:
            if artifact is None or not self.publish(artifact):
                return None
        except OSError:
            pass
        return artifact
