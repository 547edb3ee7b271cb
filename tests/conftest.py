import itertools
import random
from collections import deque

from inflated_graphs import build_graph


def random_connected_graph(rng: random.Random, n: int):
    """Random spanning tree on n vertices plus a random number of extra edges."""
    vertices = list(range(1, n + 1))
    order = vertices[:]
    rng.shuffle(order)
    edges = set()
    for i in range(1, n):
        j = rng.randrange(i)
        edges.add(tuple(sorted((order[i], order[j]))))
    candidates = [
        (u, v)
        for u, v in itertools.combinations(vertices, 2)
        if (u, v) not in edges
    ]
    rng.shuffle(candidates)
    for e in candidates[: rng.randrange(0, len(candidates) + 1)]:
        edges.add(e)
    return build_graph(sorted(edges))


def random_subset(rng: random.Random, items):
    return frozenset(v for v in items if rng.random() < 0.5)


def bfs_ball(g, v: str, d: int) -> tuple[str, ...]:
    """Vertices within distance d of v by breadth-first search, in vertex
    order: the reference for ``Graph.ball_masks`` and ``ball``."""
    dist = {v: 0}
    queue = deque([v])
    while queue:
        w = queue.popleft()
        if dist[w] == d:
            continue
        for u in g.neighbors[w]:
            if u not in dist:
                dist[u] = dist[w] + 1
                queue.append(u)
    return tuple(sorted(dist, key=g.index.__getitem__))
