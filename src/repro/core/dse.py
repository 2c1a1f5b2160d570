"""Design-space exploration driver.

Sweeps a parameter space, evaluates each configuration with a
user-supplied model, and returns evaluated :class:`DesignPoint` lists
ready for Pareto analysis.  Supports exhaustive grids over discrete
parameter sets and Latin-hypercube random sweeps over continuous boxes;
both are deterministic given a seed.

This is the workhorse behind the "agenda" experiments (E06/E21): each
full-system design — technology node x core mix x memory stack x
accelerator allocation — is a configuration dict, and the evaluator
composes the relevant subsystem models into Metrics.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Iterable, Mapping, Optional, Sequence

import numpy as np

from .design import DesignPoint, EvaluateFn, Metrics, Objective, pareto_front
from .rng import RngLike, resolve_rng, sobol_like_grid

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..exec import ResultCache, Runner, RunReport


@dataclass(frozen=True)
class ContinuousParam:
    """A continuous design parameter with an inclusive range."""

    name: str
    low: float
    high: float
    log_scale: bool = False

    def __post_init__(self) -> None:
        if self.high < self.low:
            raise ValueError(f"{self.name}: high < low")
        if self.log_scale and self.low <= 0:
            raise ValueError(f"{self.name}: log-scale range must be positive")


@dataclass(frozen=True)
class DiscreteParam:
    """A discrete design parameter with an explicit choice set."""

    name: str
    choices: tuple

    def __post_init__(self) -> None:
        if not self.choices:
            raise ValueError(f"{self.name}: choices must be non-empty")


@dataclass
class SweepResult:
    """Evaluated design points plus bookkeeping from one exploration.

    ``report`` carries the engine's :class:`~repro.exec.RunReport`
    (per-config status, attempts, cache provenance) when the sweep ran
    through :mod:`repro.exec`; it is ``None`` for plain serial sweeps.
    """

    points: list[DesignPoint] = field(default_factory=list)
    failures: list[tuple[Dict[str, Any], str]] = field(default_factory=list)
    report: Optional["RunReport"] = None

    def front(self, objectives: Sequence[Objective]) -> list[DesignPoint]:
        return pareto_front(self.points, objectives)

    def best(self, metric: str, maximize: bool = True) -> DesignPoint:
        if not self.points:
            raise ValueError("sweep produced no evaluated points")
        key = lambda p: p.metric(metric)  # noqa: E731
        return max(self.points, key=key) if maximize else min(self.points, key=key)

    def column(self, metric: str) -> np.ndarray:
        """Vector of one metric across all evaluated points."""
        return np.array([p.metric(metric) for p in self.points], dtype=float)

    def config_column(self, key: str) -> list:
        return [p.config.get(key) for p in self.points]


def grid_configs(params: Sequence[DiscreteParam]) -> Iterable[Dict[str, Any]]:
    """Cartesian product of discrete parameter choices."""
    names = [p.name for p in params]
    if len(set(names)) != len(names):
        raise ValueError("duplicate parameter names in grid")
    for combo in itertools.product(*(p.choices for p in params)):
        yield dict(zip(names, combo))


def random_configs(
    params: Sequence[ContinuousParam],
    n: int,
    rng: RngLike = None,
) -> list[Dict[str, float]]:
    """Latin-hypercube sample of continuous parameters.

    Log-scaled parameters are sampled uniformly in log space, the right
    default for ranges spanning decades (cache sizes, target volumes).
    """
    names = [p.name for p in params]
    if len(set(names)) != len(names):
        raise ValueError("duplicate parameter names in sweep")
    lows = [np.log10(p.low) if p.log_scale else p.low for p in params]
    highs = [np.log10(p.high) if p.log_scale else p.high for p in params]
    samples = sobol_like_grid(lows, highs, n, rng=rng)
    configs = []
    for row in samples:
        cfg = {}
        for value, p in zip(row, params):
            cfg[p.name] = float(10**value) if p.log_scale else float(value)
        configs.append(cfg)
    return configs


def _evaluate_to_values(evaluate: EvaluateFn, config: Dict[str, Any]) -> Dict[str, float]:
    """Engine-side evaluator wrapper: Metrics in, plain JSON-able dict out.

    Module-level so ``functools.partial(_evaluate_to_values, evaluate)``
    survives pickling for process runners, and returning ``dict`` (not
    :class:`Metrics`) keeps sweep results cacheable as JSON artifacts.
    """
    metrics = evaluate(dict(config))
    if not isinstance(metrics, Metrics):
        raise TypeError(
            f"evaluator must return Metrics, got {type(metrics).__name__}"
        )
    metrics.derive_efficiency()
    return dict(metrics.values)


class Explorer:
    """Evaluate configurations against a model, collecting results.

    The evaluator maps a config dict to :class:`Metrics`.  Evaluation
    errors are captured per-config (not raised) so a sweep over a space
    with infeasible corners still completes; failures are reported in
    :attr:`SweepResult.failures`.

    By default configs are evaluated serially in-process.  Pass a
    :class:`repro.exec.Runner` (e.g. ``make_backend("pool", 4)``) and/or a
    :class:`repro.exec.ResultCache` to fan the sweep out over worker
    processes with fault containment and artifact reuse; in that mode a
    raising evaluator — of *any* exception type — becomes a failure row
    rather than an exception.
    """

    def __init__(self, evaluate: EvaluateFn, label_key: Optional[str] = None):
        self._evaluate = evaluate
        self._label_key = label_key

    def _label(self, config: Mapping[str, Any]) -> str:
        if self._label_key and self._label_key in config:
            return str(config[self._label_key])
        return ", ".join(f"{k}={v}" for k, v in sorted(config.items()))

    def run(
        self,
        configs: Iterable[Dict[str, Any]],
        runner: Optional["Runner"] = None,
        cache: Optional["ResultCache"] = None,
        backend: Optional[str] = None,
        jobs: int = 1,
    ) -> SweepResult:
        """Evaluate every config; ``runner``/``cache``/``backend`` route
        the sweep through :mod:`repro.exec` (an explicit ``runner`` wins
        over ``backend``, which names one of ``serial``/``pool``/
        ``socket``/``array`` built with ``jobs`` as its parallelism)."""
        if runner is None and backend is not None:
            from ..exec.backends import make_backend

            runner = make_backend(backend, jobs=jobs)
        if runner is not None or cache is not None:
            return self._run_engine(configs, runner, cache)
        result = SweepResult()
        for config in configs:
            try:
                metrics = self._evaluate(dict(config))
            except (ValueError, ArithmeticError, KeyError) as exc:
                result.failures.append((dict(config), f"{type(exc).__name__}: {exc}"))
                continue
            if not isinstance(metrics, Metrics):
                raise TypeError(
                    "evaluator must return Metrics, got "
                    f"{type(metrics).__name__}"
                )
            metrics.derive_efficiency()
            result.points.append(
                DesignPoint(
                    config=dict(config),
                    metrics=metrics,
                    label=self._label(config),
                )
            )
        return result

    def _run_engine(
        self,
        configs: Iterable[Dict[str, Any]],
        runner: Optional["Runner"],
        cache: Optional["ResultCache"],
    ) -> SweepResult:
        """Sweep through :mod:`repro.exec` (parallel/cached/contained)."""
        from ..exec import ExecutionEngine, Job, JobGraph, JobStatus

        config_list = [dict(c) for c in configs]
        evaluate_job = functools.partial(_evaluate_to_values, self._evaluate)
        graph = JobGraph(
            Job(id=f"cfg-{i:06d}", fn=evaluate_job, config=cfg)
            for i, cfg in enumerate(config_list)
        )
        engine = ExecutionEngine(runner=runner, cache=cache)
        report = engine.run(graph)
        result = SweepResult(report=report)
        for i, cfg in enumerate(config_list):
            record = report[f"cfg-{i:06d}"]
            if record.status is JobStatus.SUCCEEDED:
                metrics = Metrics(
                    {k: float(v) for k, v in record.result.items()}
                )
                result.points.append(
                    DesignPoint(config=cfg, metrics=metrics, label=self._label(cfg))
                )
            else:
                result.failures.append(
                    (cfg, record.error or record.status.value)
                )
        return result

    def grid(
        self,
        params: Sequence[DiscreteParam],
        runner: Optional["Runner"] = None,
        cache: Optional["ResultCache"] = None,
    ) -> SweepResult:
        return self.run(grid_configs(params), runner=runner, cache=cache)

    def random(
        self,
        params: Sequence[ContinuousParam],
        n: int,
        rng: RngLike = None,
        runner: Optional["Runner"] = None,
        cache: Optional["ResultCache"] = None,
    ) -> SweepResult:
        return self.run(
            random_configs(params, n, rng=rng), runner=runner, cache=cache
        )


def local_search(
    evaluate: EvaluateFn,
    start: Dict[str, float],
    params: Sequence[ContinuousParam],
    metric: str,
    maximize: bool = True,
    iterations: int = 100,
    step_frac: float = 0.1,
    rng: RngLike = None,
) -> DesignPoint:
    """Simple stochastic hill climber for continuous sub-spaces.

    Perturbs one random parameter per step by a Gaussian proportional to
    its range; accepts improvements.  Meant for polishing a sweep winner,
    not as a serious optimizer.
    """
    gen = resolve_rng(rng)
    by_name = {p.name: p for p in params}
    for name in start:
        if name not in by_name:
            raise KeyError(f"start key {name!r} not among parameters")

    def clamp(name: str, value: float) -> float:
        p = by_name[name]
        return float(min(max(value, p.low), p.high))

    current = {k: clamp(k, v) for k, v in start.items()}
    current_metrics = evaluate(dict(current))
    current_metrics.derive_efficiency()
    sign = 1.0 if maximize else -1.0
    best_score = sign * current_metrics[metric]

    names = list(current)
    for _ in range(iterations):
        name = names[int(gen.integers(len(names)))]
        p = by_name[name]
        span = p.high - p.low
        candidate = dict(current)
        candidate[name] = clamp(name, current[name] + gen.normal(0, step_frac * span))
        try:
            metrics = evaluate(dict(candidate))
        except (ValueError, ArithmeticError):
            continue
        metrics.derive_efficiency()
        score = sign * metrics[metric]
        if score > best_score:
            best_score = score
            current = candidate
            current_metrics = metrics
    return DesignPoint(config=current, metrics=current_metrics, label="local-search")
