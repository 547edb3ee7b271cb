"""Simple undirected graphs, distances, and the chain-inflation construction.

Vertices are opaque strings.  Chain vertices created by :func:`inflate` are
named ``"r@(u,v)"`` where ``(u,v)`` is the base edge oriented from the smaller
to the larger label and ``r`` counts positions starting next to ``u``.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

INFINITY = float("inf")


def edge_key(u: str, v: str) -> tuple[str, str]:
    """Canonical orientation of an edge: smaller label first."""
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Immutable simple undirected graph with a canonical vertex order."""

    vertices: tuple[str, ...]
    edges: frozenset[tuple[str, str]]

    @cached_property
    def neighbors(self) -> dict[str, tuple[str, ...]]:
        adj: dict[str, list[str]] = {v: [] for v in self.vertices}
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return {v: tuple(sorted(ns)) for v, ns in adj.items()}

    @cached_property
    def index(self) -> dict[str, int]:
        return {v: i for i, v in enumerate(self.vertices)}

    @cached_property
    def adjacency(self) -> tuple[int, ...]:
        """Neighbour bitmask of each vertex, in vertex order, over ``index``."""
        index = self.index
        return tuple(
            sum(1 << index[u] for u in self.neighbors[v]) for v in self.vertices
        )

    @cached_property
    def _balls(self) -> dict[tuple[str, int], tuple[str, ...]]:
        """ball's cache, freed with the graph."""
        return {}

    @cached_property
    def is_connected(self) -> bool:
        if not self.vertices:
            return True
        return len(ball(self, self.vertices[0], len(self.vertices))) == len(
            self.vertices
        )

    def require_vertex(self, v: str) -> None:
        if v not in self.index:
            raise ValueError(f"unknown vertex {v!r}")


def build_graph(
    edge_list: Iterable[tuple[str | int, str | int]],
    vertices: Iterable[str | int] | None = None,
) -> Graph:
    """Normalize an edge list into a Graph.

    Vertex labels are coerced to strings.  Self-loops and duplicate edges are
    rejected.  ``vertices`` may add isolated vertices.
    """
    seen: set[tuple[str, str]] = set()
    vset: set[str] = {str(v) for v in vertices} if vertices is not None else set()
    for pair in edge_list:
        u, v = (str(x) for x in pair)
        if u == v:
            raise ValueError(f"self-loop on vertex {u!r}")
        key = edge_key(u, v)
        if key in seen:
            raise ValueError(f"duplicate edge {key!r}")
        seen.add(key)
        vset.update(key)
    return Graph(vertices=tuple(sorted(vset)), edges=frozenset(seen))


def distance(g: Graph, u: str, v: str) -> int | float:
    """Shortest-path edge count between u and v; INFINITY if disconnected."""
    g.require_vertex(u)
    g.require_vertex(v)
    if u == v:
        return 0
    dist = {u: 0}
    queue = deque([u])
    while queue:
        w = queue.popleft()
        for x in g.neighbors[w]:
            if x not in dist:
                dist[x] = dist[w] + 1
                if x == v:
                    return dist[x]
                queue.append(x)
    return INFINITY


def ball(g: Graph, v: str, d: int) -> tuple[str, ...]:
    """Vertices within distance d of v (inclusive), in canonical order.

    Cached on the graph: verification evaluates the same ball once per
    (pair, vertex).
    """
    cached = g._balls.get((v, d))
    if cached is not None:
        return cached
    g.require_vertex(v)
    dist = {v: 0}
    queue = deque([v])
    while queue:
        w = queue.popleft()
        if dist[w] == d:
            continue
        for x in g.neighbors[w]:
            if x not in dist:
                dist[x] = dist[w] + 1
                queue.append(x)
    result = g._balls[v, d] = tuple(sorted(dist, key=g.index.__getitem__))
    return result


def chain_vertex_name(edge: tuple[str, str], r: int) -> str:
    u, v = edge
    return f"{r}@({u},{v})"


@dataclass(frozen=True, eq=False)
class InflatedGraph:
    """A graph whose every base edge was replaced by a chain of 2d vertices."""

    base: Graph
    d: int
    graph: Graph
    power_vertices: tuple[str, ...]
    chain_index: Mapping[str, tuple[tuple[str, str], int]]

    def is_power(self, v: str) -> bool:
        return v in self._power_set

    @cached_property
    def _power_set(self) -> frozenset[str]:
        return frozenset(self.power_vertices)


def inflate(g: Graph, d: int) -> InflatedGraph:
    """Replace every edge of g with a path of 2d fresh chain vertices."""
    if d < 1:
        raise ValueError("inflation distance d must be >= 1")
    new_edges: list[tuple[str, str]] = []
    chain_index: dict[str, tuple[tuple[str, str], int]] = {}
    for edge in sorted(g.edges):
        u, v = edge
        names = [chain_vertex_name(edge, r) for r in range(1, 2 * d + 1)]
        for name, r in zip(names, range(1, 2 * d + 1)):
            if name in g.index:
                raise ValueError(
                    f"chain vertex {name!r} collides with a base vertex"
                )
            chain_index[name] = (edge, r)
        path = [u, *names, v]
        new_edges.extend(zip(path, path[1:]))
    inflated = build_graph(new_edges, vertices=g.vertices)
    return InflatedGraph(
        base=g,
        d=d,
        graph=inflated,
        power_vertices=g.vertices,
        chain_index=chain_index,
    )


def graph_to_json(g: Graph) -> dict:
    return {
        "vertices": list(g.vertices),
        "edges": [list(e) for e in sorted(g.edges)],
    }


def graph_from_json(obj: Mapping) -> Graph:
    """Parse ``{"vertices": [...], "edges": [[u, v], ...]}``; both keys are
    optional.  Raises ValueError on any other shape."""
    if not isinstance(obj, Mapping):
        raise ValueError("a graph must be a JSON object")
    edges = obj.get("edges", [])
    vertices = obj.get("vertices")
    if not isinstance(edges, (list, tuple)) or not all(
        isinstance(e, (list, tuple)) and len(e) == 2 for e in edges
    ):
        raise ValueError('graph "edges" must be a list of [u, v] pairs')
    if vertices is not None and not isinstance(vertices, (list, tuple)):
        raise ValueError('graph "vertices" must be a list')
    return build_graph(edges, vertices=vertices)


def load_graph(path: str) -> Graph:
    with open(path) as fh:
        return graph_from_json(json.load(fh))


def to_dot(g: Graph, power_vertices: Iterable[str] = ()) -> str:
    """DOT export; power vertices are drawn with a double circle."""
    powers = set(power_vertices)
    lines = ["graph G {"]
    for v in g.vertices:
        shape = "doublecircle" if v in powers else "circle"
        lines.append(f'  "{v}" [shape={shape}];')
    for u, v in sorted(g.edges):
        lines.append(f'  "{u}" -- "{v}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
