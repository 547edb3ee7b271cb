import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inflated_graphs import pauli
from inflated_graphs.graph import build_graph
from inflated_graphs.pauli import LETTERS, PauliString
from conftest import random_connected_graph, random_subset


def test_multiply_phases():
    x = PauliString.from_dict({"a": "X"})
    y = PauliString.from_dict({"a": "Y"})
    z = PauliString.from_dict({"a": "Z"})
    assert x * y == PauliString.from_dict({"a": "Z"}, phase=1)
    assert y * x == PauliString.from_dict({"a": "Z"}, phase=3)
    assert (x * x).is_identity_letters()
    assert (z * z).is_identity_letters() and (z * z).phase == 0
    assert PauliString() * y == y
    assert y * PauliString() == y
    assert (x * y * z).phase == 1  # XYZ = (iZ)Z = i*identity
    assert y * z == PauliString.from_dict({"a": "X"}, phase=1)
    assert z * x == PauliString.from_dict({"a": "Y"}, phase=1)
    assert x * z == PauliString.from_dict({"a": "Y"}, phase=3)
    assert (y * y).phase == 0
    # every single-letter product against its 2x2 matrix
    mats = {
        "I": np.eye(2),
        "X": np.array([[0, 1], [1, 0]]),
        "Y": np.array([[0, -1j], [1j, 0]]),
        "Z": np.diag([1, -1]),
    }
    for a, b in itertools.product(LETTERS, repeat=2):
        p = PauliString.from_dict({"a": a}) * PauliString.from_dict({"a": b})
        assert np.allclose(1j**p.phase * mats[p.letter("a")], mats[a] @ mats[b])


def test_parse_and_str_roundtrip():
    p = pauli.parse("-1 X@1 Z@2")
    assert p.phase == 2 and p.letter("1") == "X" and p.letter("2") == "Z"
    assert pauli.parse(str(p)) == p
    assert str(PauliString()) == "+1"
    with pytest.raises(ValueError):
        pauli.parse("X@1")
    with pytest.raises(ValueError):
        pauli.parse("+1 Q@1")


def test_subset_to_pauli_examples():
    tri = build_graph([(1, 2), (1, 3), (2, 3)])
    full = pauli.subset_to_pauli(tri, {"1", "2", "3"})
    assert str(full) == "-1 X@1 X@2 X@3"
    path3 = build_graph([(1, 2), (2, 3)])
    assert str(pauli.subset_to_pauli(path3, {"1", "3"})) == "+1 X@1 X@3"
    assert str(pauli.subset_to_pauli(path3, {"2"})) == "+1 Z@1 X@2 Z@3"
    assert str(pauli.subset_to_pauli(path3, frozenset())) == "+1"


def test_subset_matches_generator_product():
    rng = random.Random(5)
    for _ in range(50):
        g = random_connected_graph(rng, rng.randrange(3, 8))
        subset = random_subset(rng, g.vertices)
        product = PauliString()
        for v in sorted(subset):
            product = product * pauli.subset_to_pauli(g, {v})
        assert pauli.subset_to_pauli(g, subset) == product


def test_pauli_to_subset_rejects_non_stabilizer():
    path3 = build_graph([(1, 2), (2, 3)])
    assert pauli.pauli_to_subset(path3, {"1": "Z", "2": "X", "3": "X"}) is None
    assert pauli.pauli_to_subset(path3, {"1": "Z"}) is None


def test_roundtrip_random_cases():
    # 1000 random (graph, subset) pairs with up to 10 vertices.
    rng = random.Random(17)
    for _ in range(1000):
        g = random_connected_graph(rng, rng.randrange(3, 11))
        subset = random_subset(rng, g.vertices)
        p = pauli.subset_to_pauli(g, subset)
        decomposition = pauli.pauli_to_subset(g, p)
        assert decomposition is not None
        assert decomposition[0] == subset
        assert decomposition[1] == p.sign


def test_expectation_examples():
    tri = build_graph([(1, 2), (1, 3), (2, 3)])
    assert pauli.expectation(tri, {"1": "X", "2": "X", "3": "X"}) == -1
    assert pauli.expectation(tri, {"1": "Z"}) == 0
    path3 = build_graph([(1, 2), (2, 3)])
    assert pauli.expectation(path3, {"1": "Y", "2": "X", "3": "Y"}) == -1
    assert pauli.expectation(path3, {"2": "X"}) == 0
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
    p = pauli.subset_to_pauli(g, subset)
    decomposition = pauli.pauli_to_subset(g, p)
    assert decomposition == (subset, p.sign)
