import ast
import itertools
import math
import random
from pathlib import Path

import numpy as np
import pytest

import inflated_graphs as ig
from inflated_graphs import lhv, pauli, statevector as sv
from inflated_graphs.graph import Graph
from conftest import (
    random_connected_graph,
    random_subset,
    seeded_small_graphs,
    vdot_pauli_expectation,
)

# The per-factor matrix contraction: the reference that pauli_expectation
# and the Pauli-sum chsh_operator are checked against.  It uses numpy only,
# contracting 2x2 matrices into the amplitude tensor one vertex at a time.
PAULI_MATRICES = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def rotation_matrix(theta):
    """cos(theta/2) Z + sin(theta/2) Y."""
    return (
        math.cos(theta / 2) * PAULI_MATRICES["Z"]
        + math.sin(theta / 2) * PAULI_MATRICES["Y"]
    )


def contraction_expectation(state, factors):
    """<psi|O|psi> for O the tensor product of the 2x2 factors (identity on
    absent vertices), never forming a 2^n x 2^n matrix."""
    n = len(state.vertices)
    psi = state.amplitudes.reshape([2] * n)
    for v, mat in factors.items():
        axis = n - 1 - state.vertices.index(v)  # C order: axis 0 is the top bit
        psi = np.moveaxis(np.tensordot(mat, psi, axes=([1], [axis])), 0, axis)
    value = np.vdot(state.amplitudes, psi.reshape(-1))
    assert abs(value.imag) < 1e-10
    return float(value.real)


def matrix_chsh_operator(theta1, theta2):
    """The four brackets of the 4-path Bell operator as (sign, factors)."""
    x, y = PAULI_MATRICES["X"], PAULI_MATRICES["Y"]
    r1, r2 = rotation_matrix(theta1), rotation_matrix(theta2)
    return (
        (1.0, {"1": r1, "2": x, "4": x}),
        (-1.0, {"1": r2, "2": x, "4": x}),
        (1.0, {"1": r1, "2": x, "3": x, "4": y}),
        (1.0, {"1": r2, "2": x, "3": x, "4": y}),
    )


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


def test_identity_observable():
    """The empty Pauli string is the identity: its term gives its
    coefficient, and an empty sum gives 0."""
    state = sv.graph_state(ig.build_graph([(1, 2)]))
    assert sv.expect(state, [(1.0, {})]) == pytest.approx(1.0)
    assert sv.expect(state, [(-2.5, {}), (1.0, {"1": "I"})]) == pytest.approx(-1.5)
    assert sv.expect(state, []) == 0.0


def test_amplitudes_must_have_two_to_the_vertex_count_entries():
    """The qubit count is the number of vertices: 2**len(vertices)
    amplitudes, no more and no fewer, in a one-dimensional array."""
    amplitudes = np.full(4, 0.5, dtype=complex)
    for vertices in (("1", "2", "3"), ("1",), ()):
        with pytest.raises(ValueError, match="wrong length"):
            sv.StateVector(amplitudes=amplitudes, vertices=vertices)
    with pytest.raises(ValueError, match="wrong length"):
        sv.StateVector(amplitudes=amplitudes.reshape(2, 2), vertices=("1", "2"))
    sv.StateVector(amplitudes=amplitudes, vertices=("1", "2"))
    sv.StateVector(amplitudes=np.ones(1, dtype=complex), vertices=())


@pytest.mark.parametrize("dtype", [float, complex])
def test_norm_tolerance_is_1e_12(dtype):
    """A state whose norm is off by 2e-12 is refused, one off by 5e-13 is
    accepted, for real and complex amplitudes alike."""
    gen = np.random.default_rng(71)
    amplitudes = gen.normal(size=1 << 10).astype(dtype)
    if dtype is complex:
        amplitudes += 1j * gen.normal(size=1 << 10)
    amplitudes /= math.sqrt(np.sum(np.abs(amplitudes) ** 2))
    vertices = tuple(str(i) for i in range(10))
    with pytest.raises(ValueError, match=r"^state is not normalized \(norm "):
        sv.StateVector(amplitudes=amplitudes * (1 + 2e-12), vertices=vertices)
    with pytest.raises(ValueError, match=r"^state is not normalized \(norm "):
        sv.StateVector(amplitudes=amplitudes * (1 - 2e-12), vertices=vertices)
    sv.StateVector(amplitudes=amplitudes * (1 + 5e-13), vertices=vertices)
    sv.StateVector(amplitudes=amplitudes * (1 - 5e-13), vertices=vertices)


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
    # the first two brackets (terms 0..3) are equal and opposite
    state = four_path_state()
    op = sv.chsh_operator(1.234, 1.234)
    assert sv.expect(state, op[:4]) == pytest.approx(0.0, abs=1e-12)


def test_chsh_degenerate_angles_consistent():
    state = four_path_state()
    value = sv.expect(state, sv.chsh_operator(0.0, 0.0))
    # 2 * <Z1 X2 X3 Y4>, which is not a stabilizer element
    assert value == pytest.approx(
        2 * sv.pauli_expectation(state, {"1": "Z", "2": "X", "3": "X", "4": "Y"})
    )


def test_rotation_observable_is_hermitian_unit():
    """Each bracket's vertex-1 terms c_Z Z + c_Y Y are the rotation matrix
    up to the bracket's sign: Hermitian, squaring to the identity."""
    for theta in (0.0, 0.5, math.pi / 2, 3 * math.pi / 2):
        op = sv.chsh_operator(theta, theta)
        for (cz, z), (cy, y) in zip(op[::2], op[1::2]):
            assert (z["1"], y["1"]) == ("Z", "Y")
            r = cz * PAULI_MATRICES["Z"] + cy * PAULI_MATRICES["Y"]
            assert np.allclose(r, r.conj().T)
            assert np.allclose(r @ r, np.eye(2), atol=1e-12)
            assert any(np.allclose(r, s * rotation_matrix(theta)) for s in (1, -1))


def test_chsh_pauli_sum_matches_rotation_matrices():
    """Bracket by bracket, the Pauli-sum terms give the value of the
    rotation-matrix operator, on the 4-path graph state and on random
    states."""
    rng = random.Random(47)
    g = ig.build_graph([(1, 2), (2, 3), (3, 4)])
    states = [sv.graph_state(g)] + [_random_state(rng, g) for _ in range(3)]
    angles = [(math.pi / 2, 3 * math.pi / 2), (0.0, 0.0)]
    angles += [(t, t) for t in (0.5, 1.234, math.pi, 5.0)]
    angles += [(rng.uniform(0, 4 * math.pi), rng.uniform(0, 4 * math.pi))
               for _ in range(100)]
    for theta1, theta2 in angles:
        op = sv.chsh_operator(theta1, theta2)
        brackets = matrix_chsh_operator(theta1, theta2)
        assert len(op) == 2 * len(brackets)
        for state in states:
            for k, (sign, factors) in enumerate(brackets):
                want = sign * contraction_expectation(state, factors)
                got = sv.expect(state, op[2 * k : 2 * k + 2])
                assert abs(got - want) < 1e-12, (theta1, theta2, k)


def test_chsh_brackets_match_the_game_terms():
    """chsh_operator and lhv.chsh_game write the same Bell expression.
    Bracket k has pair k's sign and mask; its vertex-1 angle is the one
    pair k's vertex-1 letter labels (X the first, Y the second), and its
    vertex-4 letter is pair k's."""
    theta = (0.3, 1.1)  # distinct, with cos and sin of theta/2 positive
    op = sv.chsh_operator(*theta)
    s, signs = lhv.chsh_game(1)
    assert len(op) == 2 * len(s.pairs) == 2 * len(signs)
    for k, ((cz, z), (cy, y)) in enumerate(zip(op[::2], op[1::2])):
        letters, mask = s.pairs[k].letters_dict, s.pairs[k].mask
        half = theta["XY".index(letters["1"])] / 2
        assert (cz, cy) == pytest.approx(
            (signs[k] * math.cos(half), signs[k] * math.sin(half)), abs=1e-15
        )
        assert set(z) == set(y) == mask
        assert (z["1"], y["1"]) == ("Z", "Y")
        assert z["4"] == y["4"] == letters["4"]
        assert all(z[v] == y[v] == letters[v] == "X" for v in mask - {"1", "4"})


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
    return sv.StateVector(amplitudes=amplitudes, vertices=g.vertices)


def test_pauli_expectation_matches_matrix_contraction():
    """The permutation-and-parity evaluation equals the per-factor matrix
    contraction on graph states and on random complex states,
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
                        v: PAULI_MATRICES[l] for v, l in letters.items() if l != "I"
                    }
                    slow = contraction_expectation(state, matrices)
                    assert abs(fast - slow) < 1e-10, (g, letters)
                    old = vdot_pauli_expectation(state, letters)
                    assert abs(fast - old) < 1e-12, (g, letters)
                    ys = sum(l == "Y" for l in letters.values())
                    nonzero_y += ys % 2 == 1 and abs(slow) > 1e-3
    assert nonzero_y > 50


def test_real_oracle_matches_the_complex_vdot_path():
    """Graph states are float64, and on every Pauli string of the seeded
    small graphs pauli_expectation equals the complex-amplitude np.vdot
    evaluation it replaced.  (The random complex states are compared in
    test_pauli_expectation_matches_matrix_contraction.)"""
    strings = 0
    for g in seeded_small_graphs():
        state = sv.graph_state(g)
        assert state.amplitudes.dtype == np.float64
        for word in itertools.product("IXYZ", repeat=len(g.vertices)):
            letters = dict(zip(g.vertices, word))
            got = sv.pauli_expectation(state, letters)
            assert abs(got - vdot_pauli_expectation(state, letters)) < 1e-12, (
                g.edges,
                letters,
            )
            strings += 1
    assert strings > 30_000


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
    tree = ast.parse(Path(sv.__file__).read_text())
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
