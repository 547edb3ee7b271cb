"""The Aaronson–Gottesman tableau in tableau.py against the statevector on
every Pauli string of small graphs, then against the stabilizer signs of
built measurement sets far past the statevector's cap."""

import ast
import itertools
import random
from pathlib import Path

import pytest

import inflated_graphs as ig
from inflated_graphs import statevector as sv
from inflated_graphs.cli import FIXTURES, load_fixture_set
from conftest import random_connected_graph, random_subset, seeded_small_graphs
from tableau import GraphTableau


def test_tableau_imports_nothing_it_checks():
    """Like conftest.py, the tableau imports nothing from lhv, gf2, pauli or
    paradox: it imports nothing at all."""
    tree = ast.parse((Path(__file__).parent / "tableau.py").read_text())
    imports = [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]
    assert not imports


def test_tableau_matches_statevector_on_every_pauli_string():
    for g in seeded_small_graphs():
        state = sv.graph_state(g)
        tableau = GraphTableau(g.vertices, g.edges)
        for word in itertools.product("IXYZ", repeat=len(g.vertices)):
            letters = dict(zip(g.vertices, word))
            want = sv.pauli_expectation(state, letters)
            assert tableau.expectation(letters) == pytest.approx(want, abs=1e-9), (
                g.edges,
                letters,
            )


def _built_sets():
    """The fixtures, then sets built at d = 1, 2 and 3 on each fixture's
    graph, on seeded random connected graphs with n = 3..14 and on K14,
    whose d = 3 set has 560 vertices."""
    rng = random.Random(67)
    graphs = []
    for name in FIXTURES:
        fixture = load_fixture_set(name)
        yield fixture
        graphs.append(fixture.graph)
    graphs += [random_connected_graph(rng, n) for n in range(3, 15)]
    graphs.append(ig.build_graph(itertools.combinations(range(1, 15), 2)))
    for g in graphs:
        base = ig.find_base_set(g)
        for d in (1, 2, 3):
            yield ig.build_inflated_set(base, ig.inflate(g, d)).measurement_set


def _signs(s):
    tableau = GraphTableau(s.graph.vertices, s.graph.edges)
    return [
        tableau.expectation({v: l for v, l in p.letters if v in p.mask})
        for p in s.pairs
    ]


def test_tableau_matches_stabilizer_signs_of_built_sets():
    rng = random.Random(71)
    sizes = set()
    for s in _built_sets():
        sizes.add(len(s.graph.vertices))
        want = [0 if sign is None else sign for sign in s.stabilizer_signs]
        assert _signs(s) == want
        # The same pairs cut to random submasks: mostly no stabilizer
        # element, so the signs are mostly None.
        cut = ig.MeasurementSet(
            s.graph,
            s.d,
            tuple(
                ig.MeasurementPair.make(p.letters_dict, random_subset(rng, p.mask))
                for p in s.pairs
            ),
        )
        want = [0 if sign is None else sign for sign in cut.stabilizer_signs]
        assert _signs(cut) == want
    assert max(sizes) == 560
