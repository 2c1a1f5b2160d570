"""Experiment registry: the paper's claims as runnable, checkable records.

Each :class:`Experiment` binds an ID from DESIGN.md's index (E01-E22) to
a paper anchor, the claimed quantity, and a ``run`` callable returning a
results dict that includes a ``"holds"`` boolean — whether the
reproduced shape matches the claim.  ``run_all`` drives the whole sweep;
the benchmark files under ``benchmarks/`` wrap the same callables for
pytest-benchmark timing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..exec import ResultCache, Runner, RunReport


@dataclass(frozen=True)
class Experiment:
    """One reproducible paper claim."""

    id: str
    title: str
    paper_anchor: str
    claim: str
    run: Callable[[], dict]

    def execute(self) -> dict:
        out = self.run()
        if "holds" not in out:
            raise ValueError(
                f"experiment {self.id} returned no 'holds' verdict"
            )
        return out


class ExperimentRegistry:
    """Ordered collection of experiments with run-and-summarize.

    ``run_all`` executes through :mod:`repro.exec`: experiments are
    jobs in one graph, so a raising experiment becomes a
    FAILED row instead of aborting the sweep, ``jobs > 1`` fans out
    over worker processes, and ``cache_dir`` makes reruns ~free.  The
    engine's structured :class:`~repro.exec.RunReport` for the most
    recent sweep is kept on :attr:`last_report`.
    """

    def __init__(self) -> None:
        self._experiments: Dict[str, Experiment] = {}
        self.last_report: Optional["RunReport"] = None

    def register(self, experiment: Experiment) -> Experiment:
        if experiment.id in self._experiments:
            raise ValueError(f"duplicate experiment id {experiment.id}")
        self._experiments[experiment.id] = experiment
        return experiment

    def get(self, experiment_id: str) -> Experiment:
        try:
            return self._experiments[experiment_id]
        except KeyError:
            raise KeyError(
                f"unknown experiment {experiment_id!r}; have "
                f"{sorted(self._experiments)}"
            ) from None

    def ids(self) -> list[str]:
        return sorted(self._experiments)

    def __len__(self) -> int:
        return len(self._experiments)

    def run_all(
        self,
        only: Optional[list[str]] = None,
        *,
        jobs: int = 1,
        cache_dir: Optional[str] = None,
        retries: int = 0,
        timeout_s: Optional[float] = None,
        runner: Optional["Runner"] = None,
        cache: Optional["ResultCache"] = None,
        telemetry: Optional[object] = None,
        backend: Optional[str] = None,
    ) -> dict[str, dict]:
        """Run experiments through the execution engine.

        A raising (or, with a process runner, crashing/hanging)
        experiment is contained: its row reports ``holds=False`` with a
        ``status`` of FAILED/TIMEOUT and an ``error`` message, and every
        other experiment still completes.  Unknown ids raise ``KeyError``
        up front, before anything runs.

        ``telemetry`` (a :class:`repro.obs.telemetry.TelemetryOptions`)
        makes every worker capture metrics/spans/profile; the merged
        result lands on ``self.last_report.telemetry`` (the CLI's
        ``--trace`` flag routes through this).

        ``backend`` names an execution backend (``serial``/``pool``/
        ``socket``/``array``, built via
        :func:`repro.exec.backends.make_backend` with ``jobs`` as its
        parallelism — the CLI's ``--backend`` flag); an explicit
        ``runner`` wins over it.
        """
        from ..exec import (
            ExecutionEngine,
            Job,
            JobGraph,
            JobStatus,
            ResultCache,
            make_backend,
        )

        chosen = list(dict.fromkeys(only)) if only is not None else self.ids()
        graph = JobGraph()
        for eid in chosen:
            graph.add(Job(id=eid, fn=self.get(eid).execute))
        if runner is None:
            runner = make_backend(backend, jobs=jobs, cache_dir=cache_dir)
        if cache is None and cache_dir is not None:
            cache = ResultCache(cache_dir)
        engine = ExecutionEngine(
            runner=runner,
            cache=cache,
            default_retries=retries,
            default_timeout_s=timeout_s,
            telemetry=telemetry,
        )
        report = engine.run(graph)
        self.last_report = report
        results: dict[str, dict] = {}
        for eid in chosen:
            record = report[eid]
            if record.status is JobStatus.SUCCEEDED:
                results[eid] = dict(record.result)
            else:
                results[eid] = {
                    "holds": False,
                    "status": record.status.value.upper(),
                    "error": record.error,
                }
        return results

    def summary(self, results: dict[str, dict]) -> str:
        lines = [f"{'id':<6}{'holds':<9}title"]
        n_failed = 0
        for eid in sorted(results):
            exp = self.get(eid)
            row = results[eid]
            status = row.get("status")
            if status in ("FAILED", "TIMEOUT"):
                n_failed += 1
                lines.append(f"{eid:<6}{status:<9}{exp.title}")
            else:
                lines.append(f"{eid:<6}{str(bool(row.get('holds'))):<9}{exp.title}")
        n_ok = sum(bool(r.get("holds")) for r in results.values())
        lines.append(f"-- {n_ok}/{len(results)} claims hold")
        if n_failed:
            lines.append(f"-- {n_failed} experiment(s) did not complete")
        return "\n".join(lines)


#: The shared registry; populated by :mod:`repro.analysis.paper_experiments`.
REGISTRY = ExperimentRegistry()
