"""Work-stealing task scheduler simulator.

Simulates a randomized work-stealing runtime (Cilk/TBB-style) executing
a task DAG on P workers: each worker runs its local deque; idle workers
steal from random victims; steals cost time.  Results are validated
against the Brent/Graham greedy bounds from :mod:`repro.parallel.tasks`,
and the steal-cost knob quantifies the "fine-grain multitasking"
overhead the paper's runtime agenda worries about.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ..core.rng import RngLike, resolve_rng
from .tasks import greedy_bound, span, total_work

if TYPE_CHECKING:
    import networkx as nx


@dataclass(frozen=True)
class SchedulerConfig:
    n_workers: int = 4
    steal_cost: float = 0.1  # time per steal attempt
    rng: RngLike = 0

    def __post_init__(self) -> None:
        if self.n_workers < 1:
            raise ValueError("need at least one worker")
        if self.steal_cost < 0:
            raise ValueError("steal cost must be non-negative")


@dataclass
class ScheduleResult:
    makespan: float
    steals: int
    steal_attempts: int
    worker_busy_time: np.ndarray
    task_finish: dict = field(default_factory=dict)

    @property
    def utilization(self) -> float:
        total = self.makespan * len(self.worker_busy_time)
        if total == 0:
            return float("nan")
        return float(self.worker_busy_time.sum() / total)

    def within_greedy_bounds(self, g: nx.DiGraph, slack: float = 1.25) -> bool:
        """Makespan within [lower, slack * upper].

        ``slack`` absorbs steal-cost overhead, which the Graham bound
        does not model.
        """
        lower, upper = greedy_bound(g, len(self.worker_busy_time))
        return lower - 1e-9 <= self.makespan <= slack * upper + 1e-9


class WorkStealingScheduler:
    """Event-driven work-stealing simulation.

    Time advances worker-by-worker: each worker owns a clock; when it
    finishes a task it pushes newly-ready children onto its own deque
    (LIFO); when empty it attempts steals (FIFO from a random victim's
    deque) at ``steal_cost`` per attempt.  This is the standard
    simulation abstraction — not cycle-accurate, but it reproduces the
    provable behaviour (makespan near T1/P + O(T_inf)).
    """

    def __init__(self, config: SchedulerConfig = SchedulerConfig()) -> None:
        self.config = config

    def run(self, g: nx.DiGraph) -> ScheduleResult:
        cfg = self.config
        gen = resolve_rng(cfg.rng)
        p = cfg.n_workers
        indegree = {n: g.in_degree(n) for n in g.nodes}
        ready = [n for n, d in indegree.items() if d == 0]
        deques: list[list] = [[] for _ in range(p)]
        # Seed worker 0 with the roots (program start).
        deques[0].extend(ready)
        clocks = np.zeros(p)
        busy = np.zeros(p)
        finish: dict = {}
        steals = 0
        attempts = 0
        remaining = g.number_of_nodes()

        # A task may only start after its last parent finished, even if
        # the executing worker's own clock is earlier (it stole it).
        ready_time: dict = {n: 0.0 for n in g.nodes}

        def execute(w: int, task) -> None:
            nonlocal remaining
            work = g.nodes[task]["work"]
            start = max(clocks[w], ready_time[task])
            clocks[w] = start + work
            busy[w] += work
            finish[task] = clocks[w]
            remaining -= 1
            for child in g.successors(task):
                indegree[child] -= 1
                ready_time[child] = max(ready_time[child], clocks[w])
                if indegree[child] == 0:
                    deques[w].append(child)

        while remaining > 0:
            # Pick the worker with the earliest clock.
            w = int(np.argmin(clocks))
            if deques[w]:
                execute(w, deques[w].pop())  # LIFO own-end
            else:
                # Steal attempt from a random victim.  A successful
                # thief runs the stolen task immediately (otherwise
                # idle peers can steal it back forever — livelock).
                attempts += 1
                clocks[w] += cfg.steal_cost
                victims = [v for v in range(p) if v != w and deques[v]]
                if victims:
                    victim = victims[int(gen.integers(len(victims)))]
                    steals += 1
                    execute(w, deques[victim].pop(0))  # FIFO victim-end
                else:
                    # Nothing stealable: fast-forward this worker past
                    # the next busy worker's completion to avoid spin.
                    others = clocks[np.arange(p) != w]
                    ahead = others[others > clocks[w] - cfg.steal_cost]
                    if ahead.size:
                        clocks[w] = float(ahead.min())
        makespan = float(np.max(list(finish.values()))) if finish else 0.0
        return ScheduleResult(
            makespan=makespan,
            steals=steals,
            steal_attempts=attempts,
            worker_busy_time=busy,
            task_finish=finish,
        )


def speedup_curve(
    g: nx.DiGraph,
    worker_counts: list[int],
    steal_cost: float = 0.05,
    rng: RngLike = 0,
) -> dict[str, np.ndarray]:
    """Measured speedup vs workers, with the greedy upper/lower bounds."""
    if not worker_counts:
        raise ValueError("worker_counts must be non-empty")
    t1 = total_work(g)
    measured, lower, upper = [], [], []
    for p in worker_counts:
        result = WorkStealingScheduler(
            SchedulerConfig(n_workers=p, steal_cost=steal_cost, rng=rng)
        ).run(g)
        measured.append(t1 / result.makespan)
        lo, hi = greedy_bound(g, p)
        lower.append(t1 / hi)
        upper.append(t1 / lo)
    return {
        "workers": np.asarray(worker_counts, dtype=float),
        "speedup": np.array(measured),
        "greedy_lower": np.array(lower),
        "greedy_upper": np.array(upper),
    }
