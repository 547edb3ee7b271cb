import contextlib
import itertools
import json
import random
import signal
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inflated_graphs import graph as gr
from inflated_graphs.cli import FIXTURES, _fixture_text, load_fixture_set
from inflated_graphs.paradox import MeasurementPair
from inflated_graphs.pauli import compile_pair
from conftest import (
    bfs_ball,
    bits_of_by_shifts,
    members_by_zip,
    neighbour_tables_per_vertex,
    random_connected_graph,
)


def test_edge_key_orients_smaller_first():
    assert gr.edge_key("2", "1") == ("1", "2")
    assert gr.edge_key("1", "2") == ("1", "2")


def test_build_graph_rejects_self_loops_and_duplicates():
    # Labels are compared after coercion to str.
    for edges in ([(1, 1)], [(1, "1")]):
        with pytest.raises(ValueError, match="self-loop on vertex '1'"):
            gr.build_graph(edges)
    for edges in ([(1, 2), (2, 1)], [(1, 2), ("2", 1)]):
        with pytest.raises(ValueError, match=r"duplicate edge \('1', '2'\)"):
            gr.build_graph(edges)


def test_build_graph_rejects_malformed_edges():
    for edge in ((1,), (1, 2, 3)):
        with pytest.raises(ValueError):
            gr.build_graph([edge])
    with pytest.raises(TypeError):
        gr.build_graph([(1, 2), 3])
    # The JSON boundary names the shape it wants before build_graph runs.
    for obj, message in (
        ({"edges": [[1]]}, 'graph "edges" must be a list of [u, v] pairs'),
        ({"edges": [[1, 2, 3]]}, 'graph "edges" must be a list of [u, v] pairs'),
        ({"edges": [1]}, 'graph "edges" must be a list of [u, v] pairs'),
        ({"edges": [], "vertices": "12"}, 'graph "vertices" must be a list'),
        ([], "a graph must be a JSON object"),
    ):
        with pytest.raises(ValueError) as excinfo:
            gr.graph_from_json(obj)
        assert str(excinfo.value) == message


def test_graph_from_json_requires_edges_and_refuses_other_keys():
    """"edges" is required and "vertices" optional; any other key is named.
    A measurement-set file or {} is not an empty graph."""
    chain7 = json.loads(_fixture_text("chain7"))
    for obj, message in (
        ({}, "graph has no 'edges' key"),
        ({"vertices": ["1", "2"]}, "graph has no 'edges' key"),
        (chain7, "graph has no 'edges' key"),
        ({"edges": [], "d": 1}, "graph has an unknown key 'd'"),
        ({"vertices": [], "edges": [], "name": "x"}, "graph has an unknown key 'name'"),
    ):
        with pytest.raises(ValueError) as excinfo:
            gr.graph_from_json(obj)
        assert str(excinfo.value) == message
    assert gr.graph_from_json({"edges": [[1, 2]]}) == gr.build_graph([(1, 2)])
    assert gr.graph_from_json({"edges": [], "vertices": ["a"]}).vertices == ("a",)


def test_build_graph_isolated_vertices():
    g = gr.build_graph([(1, 2)], vertices=[3])
    assert g.vertices == ("1", "2", "3")
    assert not g.is_connected


def test_distance_and_ball():
    g = gr.build_graph([(1, 2), (2, 3), (3, 4)])
    assert "4" not in gr.ball(g, "1", 2)
    assert "4" in gr.ball(g, "1", 3)
    assert gr.ball(g, "2", 0) == ("2",)
    assert gr.ball(g, "2", 1) == ("1", "2", "3")
    assert gr.ball(g, "1", 0) == ("1",)
    assert gr.ball(g, "1", 5) == ("1", "2", "3", "4")


def test_distance_disconnected_is_infinite():
    g = gr.build_graph([(1, 2)], vertices=[3])
    assert "3" not in gr.ball(g, "1", len(g.vertices))


def test_ball_masks_match_bfs():
    """ball_masks, ball and is_connected agree with a breadth-first search
    on random connected graphs, their inflations and a disconnected graph,
    at radii 0..4 and one far past the diameter."""
    rng = random.Random(5)
    graphs = [gr.build_graph([(1, 2), (3, 4), (4, 5)], vertices=[6])]
    for n in range(2, 15):
        g = random_connected_graph(rng, n)
        graphs.append(g)
        graphs += [gr.inflate(g, d).graph for d in (1, 2, 3)]
    for g in graphs:
        for d in (0, 1, 2, 3, 4, 10**9):
            masks = g.ball_masks(d)
            assert len(masks) == len(g.vertices)
            for v, mask in zip(g.vertices, masks):
                expected = bfs_ball(g, v, d)
                assert mask == sum(1 << g.index[u] for u in expected), (v, d)
                assert gr.ball(g, v, d) == expected
        component = bfs_ball(g, g.vertices[0], 10**9)
        assert g.is_connected == (len(component) == len(g.vertices))
    assert not graphs[0].is_connected


def reference_adjacency(g):
    """Adjacency rows summed over the name-sorted neighbour lists, each
    read straight from the edges."""
    neighbours = {v: [] for v in g.vertices}
    for u, v in g.edges:
        neighbours[u].append(v)
        neighbours[v].append(u)
    return tuple(
        sum(1 << g.index[u] for u in sorted(neighbours[v])) for v in g.vertices
    )


def reference_grow(adjacency, ball, d):
    """One vertex's ball grown frontier by frontier, stopping when the
    frontier is empty."""
    frontier = ball
    for _ in range(d):
        grown = 0
        while frontier:
            low = frontier & -frontier
            grown |= adjacency[low.bit_length() - 1]
            frontier ^= low
        frontier = grown & ~ball
        if not frontier:
            break
        ball |= frontier
    return ball


@contextlib.contextmanager
def time_limit(seconds):
    """Fail the block with TimeoutError if it runs longer than seconds."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_adjacency_and_ball_masks_match_per_vertex_growth():
    """adjacency and ball_masks equal a sum over the sorted neighbour lists
    and a per-vertex frontier growth, on graphs whose vertex tuple is not
    sorted by name, with isolated vertices, with 0 and 1 vertices, random
    graphs and their inflations, and inflate(K14, 3), at radii 0..7 and one
    far past every diameter (which must stop at the fixpoint)."""
    rng = random.Random(20)
    graphs = [
        gr.Graph(vertices=(), edges=frozenset()),
        gr.Graph(vertices=("a",), edges=frozenset()),
        gr.build_graph([], vertices=[7, 3]),
        gr.build_graph([(1, 2), (3, 4), (4, 5)], vertices=[6, 0]),
        gr.Graph(
            vertices=("c", "a", "e", "b", "d"),
            edges=frozenset({("a", "c"), ("b", "c"), ("a", "e")}),
        ),
    ]
    for n in range(2, 13):
        g = random_connected_graph(rng, n)
        shuffled = list(g.vertices) + ["isolated"]
        rng.shuffle(shuffled)
        graphs += [g, gr.Graph(vertices=tuple(shuffled), edges=g.edges)]
        graphs += [gr.inflate(g, d).graph for d in (1, 2, 3)]
    k14 = gr.build_graph(itertools.combinations(range(1, 15), 2))
    graphs.append(gr.inflate(k14, 3).graph)
    assert len(graphs[-1].vertices) == 560
    for g in graphs:
        adjacency = reference_adjacency(g)
        assert g.adjacency == adjacency
        for d in (*range(8), 10**9):
            expected = tuple(
                reference_grow(adjacency, 1 << i, d) for i in range(len(adjacency))
            )
            with time_limit(10):
                assert g.ball_masks(d) == expected, (g.vertices, d)
        reached = reference_grow(adjacency, 1, 10**9) if g.vertices else 0
        assert g.is_connected == (reached == (1 << len(g.vertices)) - 1)


def test_one_pass_tables_match_a_per_vertex_scan():
    """The neighbour index lists (as sets) and the adjacency rows, filled
    in one pass over the edges, equal a scan of every edge for each
    vertex: on random graphs with n = 0, 1 and 2..14, with isolated
    vertices and an unsorted vertex tuple, on a 600-vertex path and on the
    fixtures' graphs inflated at d = 1..3."""
    rng = random.Random(32)
    graphs = [gr.build_graph([], vertices=range(n)) for n in (0, 1)]
    for n in range(2, 15):
        g = random_connected_graph(rng, n)
        shuffled = [*g.vertices, "isolated", "lone"]
        rng.shuffle(shuffled)
        graphs += [g, gr.Graph(vertices=tuple(shuffled), edges=g.edges)]
    path = gr.build_graph([(k, k + 1) for k in range(599)])
    assert len(path.vertices) == 600
    graphs.append(path)
    for name in FIXTURES:
        base = load_fixture_set(name).graph
        graphs += [gr.inflate(base, d).graph for d in (1, 2, 3)]
    for g in graphs:
        sets, rows = neighbour_tables_per_vertex(g)
        assert [set(js) for js in g._neighbour_indices] == sets, g.vertices
        assert g.adjacency == rows, g.vertices


def test_is_connected_grows_one_ball():
    # Growing every vertex's ball instead would take seconds on this path.
    g = gr.build_graph([(i, i + 1) for i in range(1, 2000)])
    started = time.perf_counter()
    assert g.is_connected
    assert time.perf_counter() - started < 0.2


def test_ball_rejects_negative_radius_and_unknown_vertex():
    g = gr.build_graph([(1, 2)])
    with pytest.raises(ValueError, match="radius"):
        g.ball_masks(-1)
    with pytest.raises(ValueError, match="unknown vertex"):
        gr.ball(g, "9", 1)


def test_inflate_triangle_gives_nine_cycle():
    tri = gr.build_graph([(1, 2), (1, 3), (2, 3)])
    ig = gr.inflate(tri, 1)
    assert len(ig.graph.vertices) == 9
    assert len(ig.graph.edges) == 9
    # every vertex of a cycle has degree 2
    assert all(len(ig.graph.neighbors[v]) == 2 for v in ig.graph.vertices)
    assert ig.base.vertices == ("1", "2", "3")


def test_inflate_distances_scale():
    g = gr.build_graph([(1, 2)])
    for d in (1, 2, 3):
        ig = gr.inflate(g, d)
        assert "2" not in gr.ball(ig.graph, "1", 2 * d)
        assert "2" in gr.ball(ig.graph, "1", 2 * d + 1)


def test_inflate_rejects_d_zero():
    with pytest.raises(ValueError):
        gr.inflate(gr.build_graph([(1, 2)]), 0)


def test_inflate_rejects_base_vertex_named_like_a_chain_vertex():
    g = gr.build_graph([("1@(1,2)", "1"), ("1", "2")])
    with pytest.raises(ValueError, match="collides"):
        gr.inflate(g, 1)


def test_inflate_rejects_chain_names_shared_by_two_edges():
    """Edges ("a", "b,c") and ("a,b", "c") would both name their chains
    "r@(a,b,c)"; merged, the inflated graph would have 6 vertices and 5
    edges instead of 8 and 6."""
    g = gr.build_graph([("a", "b,c"), ("a,b", "c")])
    with pytest.raises(ValueError) as exc:
        gr.inflate(g, 1)
    message = str(exc.value)
    assert "'1@(a,b,c)'" in message
    assert "('a', 'b,c')" in message and "('a,b', 'c')" in message
    # Labels that only share a prefix are fine.
    ig = gr.inflate(gr.build_graph([("a", "b,c"), ("a,b", "d")]), 1)
    assert (len(ig.graph.vertices), len(ig.graph.edges)) == (8, 6)


def test_chain_index_positions():
    g = gr.build_graph([(1, 2)])
    ig = gr.inflate(g, 2)
    assert ig.chain_index["3@(1,2)"] == (("1", "2"), 3)
    assert "1" in ig.base.vertices and "3@(1,2)" not in ig.base.vertices


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_inflate_equals_build_graph_of_its_chains(data):
    """inflate builds its Graph directly; it equals build_graph of the chain
    edges and the base vertices, with and without isolated vertices.  The
    labels sort on both sides of the chain names ("r@(u,v)")."""
    labels = data.draw(
        st.lists(
            st.text(alphabet="019aBz", min_size=1, max_size=3),
            min_size=1,
            max_size=8,
            unique=True,
        )
    )
    pairs = list(itertools.combinations(labels, 2))
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    isolated = data.draw(st.booleans())
    g = gr.build_graph(edges, vertices=labels if isolated else None)
    d = data.draw(st.integers(min_value=1, max_value=3))
    chain_edges = []
    for edge in sorted(g.edges):
        names = [gr.chain_vertex_name(edge, r) for r in range(1, 2 * d + 1)]
        path = [edge[0], *names, edge[1]]
        chain_edges.extend(zip(path, path[1:]))
    expected = gr.build_graph(chain_edges, vertices=g.vertices)
    ig = gr.inflate(g, d)
    assert ig.graph == expected
    assert ig.graph.vertices == expected.vertices
    assert ig.graph.neighbors == expected.neighbors


def test_bits_and_names_round_trip_on_unsorted_vertices():
    """compile_pair's mask, graph.members and MeasurementPair.mask against
    the shift and zip-filter walks they replaced, order included, around the
    word boundaries of the digit strings."""
    rng = random.Random(28)
    for n in (0, 1, 7, 8, 9, 63, 64, 65, 600):
        names = [f"v{k}" for k in range(n)]
        rng.shuffle(names)
        g = gr.Graph(vertices=tuple(names), edges=frozenset())
        subsets = [[], names]
        subsets += [rng.sample(names, rng.randrange(n + 1)) for _ in range(20)]
        for subset in subsets:
            x, z, bits, unknown = compile_pair((), subset, g.index)
            assert (x, z, unknown) == (0, 0, None)
            assert bits == bits_of_by_shifts(g, subset)
            found = tuple(gr.members(g.vertices, bits))
            assert found == members_by_zip(g.vertices, bits)
            assert sorted(found) == sorted(subset)
            pair = MeasurementPair(g.vertices, 0, 0, bits)
            assert pair.mask == frozenset(members_by_zip(g.vertices, bits))


def test_json_roundtrip(tmp_path):
    g = gr.build_graph([(1, 2), (2, 3)])
    path = tmp_path / "g.json"
    path.write_text(json.dumps(gr.graph_to_json(g)))
    assert gr.graph_from_json(json.loads(path.read_text())) == g


def test_to_dot_marks_power_vertices():
    g = gr.build_graph([(1, 2)])
    dot = gr.to_dot(g, power_vertices=["1"])
    assert '"1" [shape=doublecircle];' in dot
    assert '"2" [shape=circle];' in dot
    assert '"1" -- "2";' in dot


def test_to_dot_escapes_backslashes_then_quotes():
    g = gr.build_graph([('a"b', "c\\"), ("c\\", 'd\\"')])
    assert gr.to_dot(g, power_vertices=['a"b']).splitlines() == [
        "graph G {",
        r'  "a\"b" [shape=doublecircle];',
        r'  "c\\" [shape=circle];',
        r'  "d\\\"" [shape=circle];',
        r'  "a\"b" -- "c\\";',
        r'  "c\\" -- "d\\\"";',
        "}",
    ]
