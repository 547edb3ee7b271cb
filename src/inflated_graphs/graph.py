"""Simple undirected graphs, distance balls, and the chain-inflation construction.

Vertices are opaque strings.  Chain vertices created by :func:`inflate` are
named ``"r@(u,v)"`` where ``(u,v)`` is the base edge oriented from the smaller
to the larger label and ``r`` counts positions starting next to ``u``.

A vertex set is also an int bitmask over ``Graph.index``.  Names become
bits only through :func:`pauli.compile_pair`, which writes one binary digit
string per mask, and a mask becomes names through :func:`members`, one
``itertools.compress`` over its digits (:func:`pauli.letters_of` is the
other reader, for letters), so neither takes a big-int step per vertex.
Everything derived from the edges (``neighbors``, the distance balls and
``is_connected``) is read off the neighbour index lists and the
``adjacency`` rows, which one pass over ``edges`` fills together.
:meth:`Graph.ball_masks` computes every vertex's ball radius by radius,
stopping at the fixpoint, and caches it per radius; :func:`ball` reads it.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress
from typing import TypeVar

T = TypeVar("T")

# Turns the digits b"0" and b"1" into the bytes 0 and 1: a digit string
# becomes the selectors of itertools.compress.
ZERO_ONE = bytes.maketrans(b"01", b"\x00\x01")


def edge_key(u: str, v: str) -> tuple[str, str]:
    """Canonical orientation of an edge: smaller label first."""
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Immutable simple undirected graph with a canonical vertex order."""

    vertices: tuple[str, ...]
    edges: frozenset[tuple[str, str]]

    @cached_property
    def index(self) -> dict[str, int]:
        return dict(zip(self.vertices, range(len(self.vertices))))

    @cached_property
    def _edge_tables(self) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
        """``_neighbour_indices`` and ``adjacency``, filled together by one
        pass over ``edges``."""
        index = self.index
        lists: list[list[int]] = [[] for _ in self.vertices]
        rows = [0] * len(lists)
        for u, v in self.edges:
            i = index[u]
            j = index[v]
            lists[i].append(j)
            lists[j].append(i)
            rows[i] |= 1 << j
            rows[j] |= 1 << i
        return tuple(map(tuple, lists)), tuple(rows)

    @cached_property
    def _neighbour_indices(self) -> tuple[tuple[int, ...], ...]:
        """The ``index`` of each vertex's neighbours, in vertex order (in no
        particular order within a list)."""
        return self._edge_tables[0]

    @cached_property
    def neighbors(self) -> dict[str, tuple[str, ...]]:
        """Each vertex's neighbours, sorted by name."""
        vertices = self.vertices
        return {
            v: tuple(sorted(vertices[j] for j in js))
            for v, js in zip(vertices, self._neighbour_indices)
        }

    @cached_property
    def adjacency(self) -> tuple[int, ...]:
        """Neighbour bitmask of each vertex, in vertex order, over ``index``."""
        return self._edge_tables[1]

    @cached_property
    def _ball_masks_by_radius(self) -> dict[int, tuple[int, ...]]:
        """ball_masks' cache, freed with the graph."""
        return {}

    def ball_masks(self, d: int) -> tuple[int, ...]:
        """Bitmask over ``index`` of each vertex's distance-d ball (the
        vertices within distance d, inclusive), in vertex order.

        Computed once per radius by :func:`_grow_balls` and cached on the
        graph.  Every ball grows one radius per step and the growth stops at
        the fixpoint, so a radius past the diameter costs what the diameter
        costs.
        """
        masks = self._ball_masks_by_radius.get(d)
        if masks is None:
            if d < 0:
                raise ValueError("ball radius must be >= 0")
            masks = _grow_balls(self.adjacency, self._neighbour_indices, d)
            self._ball_masks_by_radius[d] = masks
        return masks

    @cached_property
    def is_connected(self) -> bool:
        """Whether every vertex is reached from the first one.  A search
        over the neighbour lists: ball_masks(n) would grow all n balls."""
        neighbours = self._neighbour_indices
        if not neighbours:
            return True
        reached = [False] * len(neighbours)
        reached[0] = True
        found = [0]
        for i in found:
            for j in neighbours[i]:
                if not reached[j]:
                    reached[j] = True
                    found.append(j)
        return len(found) == len(neighbours)

    def require_vertex(self, v: str) -> None:
        if v not in self.index:
            raise ValueError(f"unknown vertex {v!r}")


def members(items: Sequence[T], bits: int) -> Iterator[T]:
    """The members of a bitmask over a sequence (bit i is items[i]), such
    as vertices or candidate rules, in sequence order: the mask's binary
    digits, lowest first, select them in one ``itertools.compress`` pass."""
    digits = format(bits, f"0{len(items)}b")[::-1].encode()
    return compress(items, digits.translate(ZERO_ONE))


def _grow_balls(
    adjacency: tuple[int, ...], neighbours: tuple[tuple[int, ...], ...], d: int
) -> tuple[int, ...]:
    """Every vertex's distance-d ball as a bitmask, radius by radius.

    B_0[v] is v's own bit and B_1 = B_0 | adjacency; B_{r+1}[v] is the OR of
    B_r over v's closed neighbourhood (a vertex within r+1 of v is within r
    of v or of one of its neighbours).  When a step changes no ball, no later
    step would either, so the growth stops there.
    """
    if not d:
        return tuple(1 << i for i in range(len(adjacency)))
    balls = tuple(1 << i | row for i, row in enumerate(adjacency))
    for _ in range(d - 1):
        grown = []
        for ball, js in zip(balls, neighbours):
            for j in js:
                ball |= balls[j]
            grown.append(ball)
        grown = tuple(grown)
        if grown == balls:
            break
        balls = grown
    return balls


def build_graph(
    edge_list: Iterable[tuple[str | int, str | int]],
    vertices: Iterable[str | int] | None = None,
) -> Graph:
    """Normalize an edge list into a Graph.

    Vertex labels are coerced to strings (a label that is one already is
    kept as it is).  Self-loops and duplicate edges are rejected.
    ``vertices`` may add isolated vertices.
    """
    seen: set[tuple[str, str]] = set()
    vset: set[str] = (
        {v if type(v) is str else str(v) for v in vertices}
        if vertices is not None
        else set()
    )
    for u, v in edge_list:
        if type(u) is not str:
            u = str(u)
        if type(v) is not str:
            v = str(v)
        if u == v:
            raise ValueError(f"self-loop on vertex {u!r}")
        key = (u, v) if u < v else (v, u)  # edge_key
        if key in seen:
            raise ValueError(f"duplicate edge {key!r}")
        seen.add(key)
    vset.update(chain.from_iterable(seen))
    return Graph(vertices=tuple(sorted(vset)), edges=frozenset(seen))


def ball(g: Graph, v: str, d: int) -> tuple[str, ...]:
    """Vertices within distance d of v (inclusive), in canonical order: the
    members of v's mask in :meth:`Graph.ball_masks`."""
    g.require_vertex(v)
    return tuple(members(g.vertices, g.ball_masks(d)[g.index[v]]))


def chain_vertex_name(edge: tuple[str, str], r: int) -> str:
    u, v = edge
    return f"{r}@({u},{v})"


@dataclass(frozen=True, eq=False)
class InflatedGraph:
    """A graph whose every base edge was replaced by a chain of 2d vertices.
    Its power vertices are the vertices of ``base``."""

    base: Graph
    d: int
    graph: Graph
    chain_index: Mapping[str, tuple[tuple[str, str], int]]


def inflate(g: Graph, d: int) -> InflatedGraph:
    """Replace every edge of g with a path of 2d fresh chain vertices; a
    chain name that is already taken raises ValueError."""
    if d < 1:
        raise ValueError("inflation distance d must be >= 1")
    edges: list[tuple[str, str]] = []
    chain_index: dict[str, tuple[tuple[str, str], int]] = {}
    for edge in sorted(g.edges):
        u, v = edge
        names = [chain_vertex_name(edge, r) for r in range(1, 2 * d + 1)]
        for name, r in zip(names, range(1, 2 * d + 1)):
            if name in g.index:
                raise ValueError(
                    f"chain vertex {name!r} collides with a base vertex"
                )
            if name in chain_index:
                raise ValueError(
                    f"chain vertex {name!r} of edge {edge!r} is already a "
                    f"chain vertex of edge {chain_index[name][0]!r}"
                )
            chain_index[name] = (edge, r)
        path = [u, *names, v]
        edges.extend(map(edge_key, path, path[1:]))
    # The labels are strings, no chain name is a base vertex or a chain
    # vertex of another edge, and a chain has at least two vertices: no
    # edge repeats and none is a loop, so build_graph's checks are skipped.
    inflated = Graph(
        vertices=tuple(sorted([*g.vertices, *chain_index])),
        edges=frozenset(edges),
    )
    return InflatedGraph(base=g, d=d, graph=inflated, chain_index=chain_index)


def graph_to_json(g: Graph) -> dict:
    return {
        "vertices": list(g.vertices),
        "edges": [list(e) for e in sorted(g.edges)],
    }


def graph_from_json(obj: Mapping) -> Graph:
    """Parse ``{"vertices": [...], "edges": [[u, v], ...]}``.  "edges" is
    required and "vertices" optional (it adds isolated vertices); any other
    key, or any other shape, raises ValueError.  A measurement-set file or
    ``{}`` is therefore not read as an empty graph."""
    if not isinstance(obj, Mapping):
        raise ValueError("a graph must be a JSON object")
    if "edges" not in obj:
        raise ValueError("graph has no 'edges' key")
    for key in obj:
        if key not in ("vertices", "edges"):
            raise ValueError(f"graph has an unknown key {key!r}")
    edges = obj["edges"]
    vertices = obj.get("vertices")
    if not isinstance(edges, (list, tuple)) or not all(
        isinstance(e, (list, tuple)) and len(e) == 2 for e in edges
    ):
        raise ValueError('graph "edges" must be a list of [u, v] pairs')
    if vertices is not None and not isinstance(vertices, (list, tuple)):
        raise ValueError('graph "vertices" must be a list')
    return build_graph(edges, vertices=vertices)


def to_dot(g: Graph, power_vertices: Iterable[str] = ()) -> str:
    """DOT export; power vertices are drawn with a double circle.  Each
    name is a quoted DOT id, with \\ written \\\\ and then " written \\"."""
    powers = set(power_vertices)
    quoted = {
        v: '"' + v.replace("\\", "\\\\").replace('"', '\\"') + '"'
        for v in g.vertices
    }
    lines = ["graph G {"]
    for v in g.vertices:
        shape = "doublecircle" if v in powers else "circle"
        lines.append(f"  {quoted[v]} [shape={shape}];")
    for u, v in sorted(g.edges):
        lines.append(f"  {quoted[u]} -- {quoted[v]};")
    lines.append("}")
    return "\n".join(lines) + "\n"
