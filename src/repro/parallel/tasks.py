"""Task DAGs: work, span, and schedulability bounds.

The substrate for the paper's "runtimes that ... orchestrate fine-grain
multitasking" (Section 2.2).  A task graph is a networkx DiGraph whose
nodes carry a ``work`` attribute (execution time); work/span analysis
gives the classic greedy-scheduling bounds the work-stealing simulator
is validated against: T1/P <= T_P <= T1/P + T_inf (Brent/Graham).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from ..core.rng import RngLike, resolve_rng

if TYPE_CHECKING:
    import networkx as nx


def make_task_graph(
    edges: Iterable[tuple[int, int]],
    work: dict[int, float],
) -> nx.DiGraph:
    """Build a validated task DAG with ``work`` per node."""
    import networkx as nx

    g = nx.DiGraph()
    for node, w in work.items():
        if w <= 0:
            raise ValueError(f"task {node} must have positive work")
        g.add_node(node, work=float(w))
    for u, v in edges:
        if u not in g.nodes or v not in g.nodes:
            raise ValueError(f"edge ({u}, {v}) references unknown task")
        g.add_edge(u, v)
    if not nx.is_directed_acyclic_graph(g):
        raise ValueError("task graph must be acyclic")
    return g


def total_work(g: nx.DiGraph) -> float:
    """T1: serial execution time."""
    return float(sum(g.nodes[n]["work"] for n in g.nodes))


def span(g: nx.DiGraph) -> float:
    """T_inf: critical-path length (longest weighted path)."""
    if g.number_of_nodes() == 0:
        return 0.0
    import networkx as nx

    finish: dict = {}
    for node in nx.topological_sort(g):
        preds = list(g.predecessors(node))
        start = max((finish[p] for p in preds), default=0.0)
        finish[node] = start + g.nodes[node]["work"]
    return float(max(finish.values()))


def parallelism(g: nx.DiGraph) -> float:
    """T1 / T_inf: the DAG's inherent parallelism."""
    s = span(g)
    if s == 0:
        return float("nan")
    return total_work(g) / s


def greedy_bound(g: nx.DiGraph, p: int) -> tuple[float, float]:
    """(lower, upper) bounds on any greedy P-processor schedule.

    lower = max(T1/P, T_inf); upper = T1/P + T_inf.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    t1, tinf = total_work(g), span(g)
    return max(t1 / p, tinf), t1 / p + tinf


def critical_path(g: nx.DiGraph) -> list:
    """Node sequence realizing the span."""
    if g.number_of_nodes() == 0:
        return []
    import networkx as nx

    finish: dict = {}
    best_pred: dict = {}
    for node in nx.topological_sort(g):
        preds = list(g.predecessors(node))
        if preds:
            p = max(preds, key=lambda q: finish[q])
            start = finish[p]
            best_pred[node] = p
        else:
            start = 0.0
            best_pred[node] = None
        finish[node] = start + g.nodes[node]["work"]
    node = max(finish, key=finish.get)
    path = []
    while node is not None:
        path.append(node)
        node = best_pred[node]
    return list(reversed(path))


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


def fork_join_graph(
    n_tasks: int, levels: int = 1, work: float = 1.0,
    serial_work: float = 1.0,
) -> nx.DiGraph:
    """``levels`` rounds of fork-join: serial node -> n parallel -> join."""
    if n_tasks < 1 or levels < 1:
        raise ValueError("n_tasks and levels must be >= 1")
    if work <= 0 or serial_work <= 0:
        raise ValueError("work values must be positive")
    import networkx as nx

    g = nx.DiGraph()
    node_id = 0

    def add(w):
        nonlocal node_id
        g.add_node(node_id, work=float(w))
        node_id += 1
        return node_id - 1

    prev_join = add(serial_work)
    for _ in range(levels):
        children = [add(work) for _ in range(n_tasks)]
        join = add(serial_work)
        for c in children:
            g.add_edge(prev_join, c)
            g.add_edge(c, join)
        prev_join = join
    return g


def random_dag(
    n: int,
    edge_probability: float = 0.1,
    work_range: tuple[float, float] = (0.5, 2.0),
    rng: RngLike = None,
) -> nx.DiGraph:
    """Random layered DAG (edges only forward in index order)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 <= edge_probability <= 1.0:
        raise ValueError("edge probability must be in [0, 1]")
    lo, hi = work_range
    if lo <= 0 or hi < lo:
        raise ValueError("bad work range")
    gen = resolve_rng(rng)
    import networkx as nx

    g = nx.DiGraph()
    for i in range(n):
        g.add_node(i, work=float(gen.uniform(lo, hi)))
    for i in range(n):
        for j in range(i + 1, n):
            if gen.random() < edge_probability:
                g.add_edge(i, j)
    return g


def chain_graph(n: int, work: float = 1.0) -> nx.DiGraph:
    """Fully serial chain — zero parallelism."""
    if n < 1:
        raise ValueError("n must be >= 1")
    import networkx as nx

    g = nx.DiGraph()
    for i in range(n):
        g.add_node(i, work=float(work))
        if i:
            g.add_edge(i - 1, i)
    return g
