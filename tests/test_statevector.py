import itertools
import math
import random
import struct

import numpy as np
import pytest

import inflated_graphs as ig
from inflated_graphs import pauli, statevector as sv
from inflated_graphs.graph import Graph
from conftest import random_connected_graph


def test_single_vertex_is_plus_state():
    g = Graph(vertices=("1",), edges=frozenset())
    state = sv.graph_state(g)
    assert np.allclose(state.amplitudes, [1 / math.sqrt(2)] * 2)


def test_norm_and_generator_fixed_points():
    rng = random.Random(2)
    for _ in range(20):
        g = random_connected_graph(rng, rng.randrange(3, 11))
        state = sv.graph_state(g)
        assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-12
        for v in g.vertices:
            gen = pauli.subset_to_pauli(g, {v})
            assert abs(sv.pauli_expectation(state, gen.as_dict()) - 1.0) < 1e-10


def test_cap_rejection():
    g = Graph(vertices=tuple(str(i) for i in range(15)), edges=frozenset())
    with pytest.raises(ValueError, match="cap"):
        sv.graph_state(g)


def test_non_hermitian_factor_rejected():
    with pytest.raises(ValueError, match="Hermitian"):
        sv.Observable.make({"1": np.array([[0, 1], [0, 0]], dtype=complex)})


def test_identity_observable():
    g = ig.build_graph([(1, 2)])
    state = sv.graph_state(g)
    assert sv.expect(state, sv.Observable.make({})) == pytest.approx(1.0)


def test_exhaustive_cross_check_small():
    # every Pauli string on all graphs up to 4 vertices used elsewhere,
    # plus a 5-vertex random graph
    rng = random.Random(9)
    graphs = [
        ig.build_graph([(1, 2), (2, 3)]),
        ig.build_graph([(1, 2), (1, 3), (2, 3)]),
        random_connected_graph(rng, 5),
    ]
    for g in graphs:
        state = sv.graph_state(g)
        n = len(g.vertices)
        for combo in itertools.product("IXYZ", repeat=n):
            letters = {v: l for v, l in zip(g.vertices, combo) if l != "I"}
            exact = pauli.expectation(g, letters)
            dense = sv.pauli_expectation(state, letters)
            assert abs(dense - exact) < 1e-10, (g, letters)


def test_sampled_cross_check_larger():
    rng = random.Random(13)
    for _ in range(5):
        g = random_connected_graph(rng, rng.randrange(6, 11))
        state = sv.graph_state(g)
        for _ in range(100):
            letters = {v: rng.choice("IXYZ") for v in g.vertices}
            exact = pauli.expectation(g, letters)
            dense = sv.pauli_expectation(state, letters)
            assert abs(dense - exact) < 1e-10


def four_path_state():
    return sv.graph_state(ig.build_graph([(1, 2), (2, 3), (3, 4)]))


def test_chsh_value():
    state = four_path_state()
    value = sv.expect(state, sv.chsh_operator(math.pi / 2, 3 * math.pi / 2))
    assert abs(value - 2 * math.sqrt(2)) < 1e-9


def test_chsh_equal_angles_cancels_first_bracket():
    state = four_path_state()
    op = sv.chsh_operator(1.234, 1.234)
    assert sv.expect(state, op[:2]) == pytest.approx(0.0, abs=1e-12)


def test_chsh_degenerate_angles_consistent():
    state = four_path_state()
    value = sv.expect(state, sv.chsh_operator(0.0, 0.0))
    # 2 * <Z1 X2 X3 Y4>, which is not a stabilizer element
    assert value == pytest.approx(
        2 * sv.pauli_expectation(state, {"1": "Z", "2": "X", "3": "X", "4": "Y"})
    )


def test_rotation_observable_is_hermitian_unit():
    for theta in (0.0, 0.5, math.pi / 2, 3 * math.pi / 2):
        r = sv.rotation_observable(theta)
        assert np.allclose(r, r.conj().T)
        assert np.allclose(r @ r, np.eye(2), atol=1e-12)


def test_dump_amplitudes_layout():
    g = ig.build_graph([(1, 2)])
    state = sv.graph_state(g)
    blob = sv.dump_amplitudes(state)
    assert len(blob) == 16 * len(state.amplitudes)
    re0, im0 = struct.unpack("<2d", blob[:16])
    assert re0 == pytest.approx(state.amplitudes[0].real)
    assert im0 == pytest.approx(state.amplitudes[0].imag)
    # index 3 (both bits set) carries the controlled-Z minus sign
    re3, _ = struct.unpack("<2d", blob[48:64])
    assert re3 == pytest.approx(-0.5)
