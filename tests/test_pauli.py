import ast
import itertools
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inflated_graphs import pauli
from inflated_graphs.graph import Graph, build_graph
from inflated_graphs.pauli import LETTERS
from conftest import random_connected_graph, random_subset

MATRICES = {
    "I": np.eye(2),
    "X": np.array([[0, 1], [1, 0]]),
    "Y": np.array([[0, -1j], [1j, 0]]),
    "Z": np.diag([1, -1]),
}


def signed(g, letters, sign=1):
    """(x, z, phase) triple of a signed letter dict."""
    return (*pauli.to_xz(g, letters), 0 if sign == 1 else 2)


def matrix(n, triple):
    """Dense matrix of an (x, z, phase) triple on n qubits; vertex i is the
    i-th Kronecker factor."""
    x, z, phase = triple
    out = np.eye(1)
    for i in range(n):
        letter = "IXZY"[((x >> i) & 1) + 2 * ((z >> i) & 1)]
        out = np.kron(out, MATRICES[letter])
    return 1j**phase * out


def test_multiply_phases():
    g = Graph(vertices=("a",), edges=frozenset())
    i, x, y, z = (signed(g, {"a": l}) for l in LETTERS)
    assert i == (0, 0, 0)
    assert pauli.multiply(x, y) == (*z[:2], 1)
    assert pauli.multiply(y, x) == (*z[:2], 3)
    assert pauli.multiply(x, x) == i
    assert pauli.multiply(z, z) == i
    assert pauli.multiply(i, y) == y
    assert pauli.multiply(y, i) == y
    assert pauli.multiply(pauli.multiply(x, y), z) == (0, 0, 1)  # XYZ = i
    assert pauli.multiply(y, z) == (*x[:2], 1)
    assert pauli.multiply(z, x) == (*y[:2], 1)
    assert pauli.multiply(x, z) == (*y[:2], 3)
    assert pauli.multiply(y, y) == i
    # every single-letter product against its 2x2 matrix
    for a, b in itertools.product(LETTERS, repeat=2):
        product = pauli.multiply(signed(g, {"a": a}), signed(g, {"a": b}))
        assert np.allclose(matrix(1, product), MATRICES[a] @ MATRICES[b])
    # random signed products on 1-4 vertices against Kronecker products
    rng = random.Random(11)
    for _ in range(400):
        n = rng.randrange(1, 5)
        a, b = (
            (rng.randrange(1 << n), rng.randrange(1 << n), rng.randrange(4))
            for _ in range(2)
        )
        assert np.allclose(
            matrix(n, pauli.multiply(a, b)), matrix(n, a) @ matrix(n, b)
        )


def test_subset_to_pauli_examples():
    tri = build_graph([(1, 2), (1, 3), (2, 3)])
    assert pauli.subset_to_pauli(tri, {"1", "2", "3"}) == (
        {"1": "X", "2": "X", "3": "X"},
        -1,
    )
    path3 = build_graph([(1, 2), (2, 3)])
    assert pauli.subset_to_pauli(path3, {"1", "3"}) == ({"1": "X", "3": "X"}, 1)
    assert pauli.subset_to_pauli(path3, {"2"}) == (
        {"1": "Z", "2": "X", "3": "Z"},
        1,
    )
    assert pauli.subset_to_pauli(path3, frozenset()) == ({}, 1)


def test_subset_to_pauli_names_the_smallest_unknown_vertex():
    """A set has no first element: the vertex named is the smallest."""
    path3 = build_graph([(1, 2), (2, 3)])
    for subset in ({"9", "1", "5"}, frozenset({"5", "2", "9"}), ["9", "5"]):
        with pytest.raises(ValueError, match="^unknown vertex '5'$"):
            pauli.subset_to_pauli(path3, subset)


def test_subset_matches_generator_product():
    rng = random.Random(5)
    for _ in range(50):
        g = random_connected_graph(rng, rng.randrange(3, 8))
        subset = random_subset(rng, g.vertices)
        product = (0, 0, 0)
        for v in sorted(subset):
            product = pauli.multiply(
                product, signed(g, *pauli.subset_to_pauli(g, {v}))
            )
        assert signed(g, *pauli.subset_to_pauli(g, subset)) == product


def test_roundtrip_random_cases():
    # 1000 random (graph, subset) pairs with up to 10 vertices.
    rng = random.Random(17)
    for _ in range(1000):
        g = random_connected_graph(rng, rng.randrange(3, 11))
        subset = random_subset(rng, g.vertices)
        letters, sign = pauli.subset_to_pauli(g, subset)
        assert pauli.expectation(g, letters) == sign
        assert {v for v, l in letters.items() if l in ("X", "Y")} == subset


def test_to_xz_checks_every_letter_before_an_unknown_vertex():
    g = build_graph([(1, 2)])
    assert pauli.to_xz(g, {"9": "I", "1": "Y"}) == (1, 1)
    with pytest.raises(ValueError, match="invalid Pauli letter 'W'"):
        pauli.to_xz(g, {"9": "X", "1": "W"})
    with pytest.raises(ValueError, match="^unknown vertex '8'$"):
        pauli.to_xz(g, {"9": "X", "8": "Z", "1": "I"})
    with pytest.raises(ValueError, match="^unknown vertex 1$"):
        pauli.to_xz(g, {1: "X", "a": "X"})


def test_expectation_examples():
    tri = build_graph([(1, 2), (1, 3), (2, 3)])
    assert pauli.expectation(tri, {"1": "X", "2": "X", "3": "X"}) == -1
    assert pauli.expectation(tri, {"1": "Z"}) == 0
    path3 = build_graph([(1, 2), (2, 3)])
    assert pauli.expectation(path3, {"1": "Y", "2": "X", "3": "Y"}) == -1
    assert pauli.expectation(path3, {"2": "X"}) == 0
    assert pauli.expectation(path3, {"1": "Z", "2": "X", "3": "X"}) == 0
    assert pauli.expectation(path3, {"1": "Z"}) == 0
    assert pauli.expectation(path3, {}) == 1


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_subset_pauli_roundtrip_property(data):
    rng = random.Random(data.draw(st.integers(min_value=0, max_value=2**32)))
    n = data.draw(st.integers(min_value=3, max_value=10))
    g = random_connected_graph(rng, n)
    subset = frozenset(
        v for v in g.vertices if data.draw(st.booleans())
    )
    letters, sign = pauli.subset_to_pauli(g, subset)
    assert pauli.expectation(g, letters) == sign
    assert {v for v, l in letters.items() if l in ("X", "Y")} == subset


def _letter_tables(tree):
    """String constants spelling two or more Pauli letters ("IXZY") and
    displays (tuples, lists, sets, dict keys) of two or more one-letter
    Pauli strings in a module's syntax tree."""
    def is_letter(node):
        return isinstance(node, ast.Constant) and node.value in LETTERS

    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            if len(node.value) > 1 and set(node.value) <= set(LETTERS):
                found.append(node.value)
        elif isinstance(node, (ast.Tuple, ast.List, ast.Set, ast.Dict)):
            items = node.keys if isinstance(node, ast.Dict) else node.elts
            if sum(map(is_letter, items)) > 1:
                found.append(ast.unparse(node))
    return found


def test_letter_tables_live_in_pauli():
    package = Path(pauli.__file__).parent
    assert _letter_tables(ast.parse((package / "pauli.py").read_text()))
    for name in ("paradox", "inflate", "lhv"):
        tree = ast.parse((package / f"{name}.py").read_text())
        assert not _letter_tables(tree), name
