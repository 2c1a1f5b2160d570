"""Network topologies for on-chip and system-scale interconnects.

"Fundamental architecture questions include ... networking structures at
different scales" (Section 2.2).  Topologies are plain
:class:`networkx.Graph` objects with node attribute ``pos`` (grid
coordinates where natural); metrics (diameter, average hop count,
bisection width) quantify the latency/energy tradeoffs the NoC and
datacenter models consume.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Tuple

import numpy as np

if TYPE_CHECKING:
    import networkx as nx


def mesh2d(width: int, height: int) -> nx.Graph:
    """2-D mesh — the canonical NoC topology."""
    if width < 1 or height < 1:
        raise ValueError("mesh dimensions must be >= 1")
    import networkx as nx

    g = nx.grid_2d_graph(width, height)
    for node in g.nodes:
        g.nodes[node]["pos"] = node
    return g


def torus2d(width: int, height: int) -> nx.Graph:
    """2-D torus: mesh plus wraparound links."""
    if width < 3 or height < 3:
        raise ValueError("torus dimensions must be >= 3 for distinct wraps")
    import networkx as nx

    g = nx.grid_2d_graph(width, height, periodic=True)
    for node in g.nodes:
        g.nodes[node]["pos"] = node
    return g


def ring(n: int) -> nx.Graph:
    """Ring — cheap wiring, O(n) diameter."""
    if n < 3:
        raise ValueError("ring needs >= 3 nodes")
    import networkx as nx

    g = nx.cycle_graph(n)
    for node in g.nodes:
        g.nodes[node]["pos"] = (node, 0)
    return g


def crossbar(n: int) -> nx.Graph:
    """Full crossbar (complete graph) — one hop, O(n^2) wires."""
    if n < 2:
        raise ValueError("crossbar needs >= 2 nodes")
    import networkx as nx

    g = nx.complete_graph(n)
    for node in g.nodes:
        g.nodes[node]["pos"] = (node, 0)
    return g


def fat_tree(leaves: int, arity: int = 2) -> nx.Graph:
    """Binary-ish fat tree: leaves at the bottom, switches above.

    Leaf nodes are integers 0..leaves-1; internal switches are strings
    ``"s<level>_<index>"``.  Capacity fattening is not modeled in the
    graph structure (links carry a ``capacity`` attribute doubling per
    level instead).
    """
    if leaves < 2:
        raise ValueError("need >= 2 leaves")
    if arity < 2:
        raise ValueError("arity must be >= 2")
    import networkx as nx

    g = nx.Graph()
    level_nodes: list = list(range(leaves))
    for node in level_nodes:
        g.add_node(node, pos=(node, 0))
    level = 0
    capacity = 1.0
    while len(level_nodes) > 1:
        level += 1
        parents = []
        for i in range(0, len(level_nodes), arity):
            parent = f"s{level}_{i // arity}"
            g.add_node(parent, pos=(i, level))
            parents.append(parent)
            for child in level_nodes[i : i + arity]:
                g.add_edge(child, parent, capacity=capacity)
        level_nodes = parents
        capacity *= arity
    return g


def diameter(g: nx.Graph) -> int:
    """Longest shortest path (hops)."""
    import networkx as nx

    return nx.diameter(g)


def average_hops(g: nx.Graph) -> float:
    """Mean shortest-path length over all node pairs."""
    import networkx as nx

    return nx.average_shortest_path_length(g)


def bisection_width(g: nx.Graph, trials: int = 1) -> int:
    """Minimum edges cut to split the network into equal halves.

    For the structured topologies here we use the known formulas when
    recognizable (meshes/tori via node count heuristics are fragile, so
    we compute a true minimum balanced cut for small graphs and fall
    back to a Kernighan-Lin heuristic for large ones).
    """
    n = g.number_of_nodes()
    if n < 2:
        raise ValueError("need >= 2 nodes")
    nodes = list(g.nodes)
    half = n // 2
    if n <= 16:
        best = np.inf
        for combo in itertools.combinations(nodes, half):
            side = set(combo)
            cut = sum(1 for u, v in g.edges if (u in side) != (v in side))
            best = min(best, cut)
        return int(best)
    import networkx as nx

    parts = nx.algorithms.community.kernighan_lin_bisection(g, seed=42)
    side = set(parts[0])
    return sum(1 for u, v in g.edges if (u in side) != (v in side))


def xy_route(src: Tuple[int, int], dst: Tuple[int, int]) -> list[Tuple[int, int]]:
    """Dimension-ordered (X then Y) route on a 2-D mesh.

    Returns the node sequence from ``src`` to ``dst`` inclusive —
    deterministic and deadlock-free on meshes.
    """
    x, y = src
    dx, dy = dst
    path = [(x, y)]
    step = 1 if dx > x else -1
    while x != dx:
        x += step
        path.append((x, y))
    step = 1 if dy > y else -1
    while y != dy:
        y += step
        path.append((x, y))
    return path


def yx_route(src: Tuple[int, int], dst: Tuple[int, int]) -> list[Tuple[int, int]]:
    """Dimension-ordered (Y then X) route on a 2-D mesh.

    The transpose of :func:`xy_route` — equally deadlock-free, but it
    loads the mesh's links differently, which is what makes it a
    distinct baseline in the NoC routing championship.
    """
    return [(x, y) for y, x in xy_route(src[::-1], dst[::-1])]


#: The dimension orders by name.
ROUTES = {"xy": xy_route, "yx": yx_route}


def topology_summary(g: nx.Graph) -> dict[str, float]:
    """One-line comparison record for a topology."""
    return {
        "nodes": float(g.number_of_nodes()),
        "links": float(g.number_of_edges()),
        "diameter": float(diameter(g)),
        "average_hops": float(average_hops(g)),
        "max_degree": float(max(dict(g.degree).values())),
    }
