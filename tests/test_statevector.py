import ast
import itertools
import math
import random

import numpy as np
import pytest

import inflated_graphs as ig
from inflated_graphs import pauli, statevector as sv
from inflated_graphs.graph import Graph
from conftest import random_connected_graph, random_subset


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
            gen, _ = pauli.subset_to_pauli(g, {v})
            assert abs(sv.pauli_expectation(state, gen) - 1.0) < 1e-10


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


def test_pauli_expectation_rejects_unknown_letters_and_vertices():
    state = sv.graph_state(ig.build_graph([(1, 2), (2, 3)]))
    with pytest.raises(ValueError, match="invalid Pauli letter 'W'"):
        sv.pauli_expectation(state, {"1": "W"})
    with pytest.raises(ValueError, match="unknown vertex '9'"):
        sv.pauli_expectation(state, {"9": "X"})
    # Identity letters are allowed and act as absent vertices.
    assert sv.pauli_expectation(state, {"1": "I", "2": "X", "3": "I"}) == 0.0
    assert sv.pauli_expectation(state, {"1": "Z", "2": "X", "3": "Z"}) == (
        pytest.approx(1.0)
    )


def _graph(rng, n):
    if n == 1:
        return ig.build_graph([], vertices=[1])
    return random_connected_graph(rng, n)


def _random_state(rng, g):
    n = len(g.vertices)
    gen = np.random.default_rng(rng.randrange(2**32))
    amplitudes = gen.normal(size=1 << n) + 1j * gen.normal(size=1 << n)
    amplitudes /= np.linalg.norm(amplitudes)
    return sv.StateVector(n=n, amplitudes=amplitudes, vertices=g.vertices)


def test_pauli_expectation_matches_matrix_contraction():
    """The permutation-and-parity evaluation equals the per-factor matrix
    contraction of expect() on graph states and on random complex states,
    for n = 1..12: uniform random strings (mostly non-stabilizer),
    stabilizer elements, and Y-heavy strings, which test the i**#Y phase."""
    rng = random.Random(41)
    nonzero_y = 0
    for n in range(1, 13):
        for _ in range(2):
            g = _graph(rng, n)
            strings = [{v: rng.choice("IXYZ") for v in g.vertices} for _ in range(6)]
            strings += [
                {v: rng.choice("YYYYYYYIXZ") for v in g.vertices} for _ in range(6)
            ]
            strings.append(dict.fromkeys(g.vertices, "Y"))
            strings += [
                pauli.subset_to_pauli(g, random_subset(rng, g.vertices))[0]
                for _ in range(6)
            ]
            for state in (sv.graph_state(g), _random_state(rng, g)):
                for letters in strings:
                    fast = sv.pauli_expectation(state, letters)
                    matrices = {
                        v: sv.PAULI_MATRICES[l] for v, l in letters.items() if l != "I"
                    }
                    slow = sv.expect(state, sv.Observable.make(matrices))
                    assert abs(fast - slow) < 1e-10, (g, letters)
                    ys = sum(l == "Y" for l in letters.values())
                    nonzero_y += ys % 2 == 1 and abs(slow) > 1e-3
    assert nonzero_y > 50


def _per_edge_graph_state(g):
    """The per-edge construction graph_state replaced: |+>^n, then a sign
    flip of the amplitudes with both ends of an edge set, edge by edge."""
    dim = 1 << len(g.vertices)
    amplitudes = np.full(dim, 1.0 / math.sqrt(dim), dtype=complex)
    idx = np.arange(dim)
    for u, v in sorted(g.edges):
        i, j = g.index[u], g.index[v]
        both = ((idx >> i) & 1) & ((idx >> j) & 1)
        amplitudes[both == 1] *= -1.0
    return amplitudes


def test_graph_state_matches_per_edge_loop():
    rng = random.Random(43)
    graphs = [Graph(vertices=(), edges=frozenset())]
    graphs += [_graph(rng, 1 + i % 12) for i in range(48)]
    graphs.append(ig.build_graph(list(itertools.combinations(range(1, 13), 2))))
    for g in graphs:
        state = sv.graph_state(g)
        assert np.array_equal(state.amplitudes, _per_edge_graph_state(g)), g


def test_statevector_imports_nothing_from_pauli():
    """The oracle reads Pauli action and CZ phases only: no import of the
    stabilizer arithmetic, and no use of its rule or its letter compiler."""
    tree = ast.parse(open(sv.__file__).read())
    modules = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            modules.append(node.module or "")
            modules.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            modules.extend(alias.name for alias in node.names)
    assert modules and not any("pauli" in m for m in modules), modules
    names = {
        node.attr if isinstance(node, ast.Attribute) else node.id
        for node in ast.walk(tree)
        if isinstance(node, (ast.Attribute, ast.Name))
    }
    assert not names & {"pauli", "_stabilizer", "to_xz"}
