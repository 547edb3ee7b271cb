import json

import pytest

from inflated_graphs import graph as gr


def test_edge_key_orients_smaller_first():
    assert gr.edge_key("2", "1") == ("1", "2")
    assert gr.edge_key("1", "2") == ("1", "2")


def test_build_graph_rejects_self_loops_and_duplicates():
    with pytest.raises(ValueError, match="self-loop"):
        gr.build_graph([(1, 1)])
    with pytest.raises(ValueError, match="duplicate"):
        gr.build_graph([(1, 2), (2, 1)])


def test_build_graph_isolated_vertices():
    g = gr.build_graph([(1, 2)], vertices=[3])
    assert g.vertices == ("1", "2", "3")
    assert not g.is_connected


def test_distance_and_ball():
    g = gr.build_graph([(1, 2), (2, 3), (3, 4)])
    assert gr.distance(g, "1", "4") == 3
    assert gr.distance(g, "2", "2") == 0
    assert gr.ball(g, "2", 1) == ("1", "2", "3")
    assert gr.ball(g, "1", 0) == ("1",)
    assert gr.ball(g, "1", 5) == ("1", "2", "3", "4")


def test_distance_disconnected_is_infinite():
    g = gr.build_graph([(1, 2)], vertices=[3])
    assert gr.distance(g, "1", "3") == gr.INFINITY


def test_inflate_triangle_gives_nine_cycle():
    tri = gr.build_graph([(1, 2), (1, 3), (2, 3)])
    ig = gr.inflate(tri, 1)
    assert len(ig.graph.vertices) == 9
    assert len(ig.graph.edges) == 9
    # every vertex of a cycle has degree 2
    assert all(len(ig.graph.neighbors[v]) == 2 for v in ig.graph.vertices)
    assert ig.power_vertices == ("1", "2", "3")


def test_inflate_distances_scale():
    g = gr.build_graph([(1, 2)])
    for d in (1, 2, 3):
        ig = gr.inflate(g, d)
        assert gr.distance(ig.graph, "1", "2") == 2 * d + 1


def test_inflate_rejects_d_zero():
    with pytest.raises(ValueError):
        gr.inflate(gr.build_graph([(1, 2)]), 0)


def test_inflate_rejects_base_vertex_named_like_a_chain_vertex():
    g = gr.build_graph([("1@(1,2)", "1"), ("1", "2")])
    with pytest.raises(ValueError, match="collides"):
        gr.inflate(g, 1)


def test_chain_index_positions():
    g = gr.build_graph([(1, 2)])
    ig = gr.inflate(g, 2)
    assert ig.chain_index["3@(1,2)"] == (("1", "2"), 3)
    assert ig.is_power("1") and not ig.is_power("3@(1,2)")


def test_json_roundtrip(tmp_path):
    g = gr.build_graph([(1, 2), (2, 3)])
    path = tmp_path / "g.json"
    path.write_text(json.dumps(gr.graph_to_json(g)))
    assert gr.load_graph(str(path)) == g


def test_to_dot_marks_power_vertices():
    g = gr.build_graph([(1, 2)])
    dot = gr.to_dot(g, power_vertices=["1"])
    assert '"1" [shape=doublecircle];' in dot
    assert '"2" [shape=circle];' in dot
    assert '"1" -- "2";' in dot
