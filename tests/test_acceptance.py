"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single PASS line with
the measured values when it succeeds.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import inflated_graphs as ig
from inflated_graphs import lhv, pauli, statevector as sv
from inflated_graphs.cli import PAPER_NUMBERS, load_fixture_set
from inflated_graphs.graph import inflate
from conftest import (
    min_violations_brute_force,
    random_connected_graph,
    random_subset,
)


def _matches_paper(report, name):
    """The report's qm, bound and ratio equal the paper's numbers."""
    _, expected = PAPER_NUMBERS[name]
    got = report.to_json()
    return {key: got[key] for key in expected} == expected


def test_criterion_1_nine_cycle_table():
    started = time.monotonic()
    s = load_fixture_set("table1_9cycle")
    assert s.d == 1 and len(s.graph.vertices) == 9
    cert = ig.verify_paradox(s)
    assert cert.overall is True
    assert all(sign is not None for sign in cert.stabilizer_signs)
    assert cert.product_is_minus_one is True
    assert ig.feasible(ig.build_system(s)) is False
    assert _matches_paper(ig.bell_report(s), "table1")
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    print(
        f"PASS criterion 1: 9-cycle set verified (overall=True, "
        f"infeasible) in {elapsed:.3f}s"
    )


def test_criterion_2_seven_chain_numbers():
    started = time.monotonic()
    base = load_fixture_set("ghz_path3")
    result = ig.build_inflated_set(base, inflate(base.graph, 1))
    assert result.certificate.overall
    assert _matches_paper(ig.bell_report(result.measurement_set), "chain7")
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    print(
        f"PASS criterion 2: 7-chain pipeline qm=6 bound=4 ratio=3/2 "
        f"in {elapsed:.3f}s"
    )


def test_criterion_3_five_cycle_numbers():
    started = time.monotonic()
    s = load_fixture_set("cycle5")
    assert len(s.pairs) == 16
    assert _matches_paper(ig.bell_report(s), "cycle5")
    assert ig.feasible(ig.build_system(s)) is False
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    print(
        f"PASS criterion 3: 5-cycle qm=16 bound=14 infeasible "
        f"in {elapsed:.3f}s"
    )


def test_criterion_4_ghz_baseline():
    rep = ig.bell_report(load_fixture_set("ghz_path3"))
    assert rep.qm_value == 4
    assert rep.classical_bound == 2
    assert rep.ratio == Fraction(2, 1)
    print("PASS criterion 4: GHZ 3-path qm=4 bound=2 ratio=2")


def test_criterion_5_chsh_four_path():
    started = time.monotonic()
    state = sv.graph_state(ig.build_graph([(1, 2), (2, 3), (3, 4)]))
    qm = sv.expect(state, sv.chsh_operator(math.pi / 2, 3 * math.pi / 2))
    assert abs(qm - 2 * math.sqrt(2)) < 1e-9
    bound = ig.game_bound(*ig.chsh_game(1))
    assert bound == 2
    assert abs(qm / bound - math.sqrt(2)) < 1e-9
    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    print(
        f"PASS criterion 5: CHSH qm=2*sqrt(2), game bound=2, ratio=sqrt(2) "
        f"in {elapsed:.3f}s"
    )


def test_criterion_6_small_graph_model():
    started = time.monotonic()
    rules = lhv.load_flip_rules()
    total = 0
    for gid, g in lhv.SMALL_GRAPHS.items():
        model = lhv.BarrettModel(g, tuple(rules.get(gid, ())))
        assert lhv.check_model(model) == []
        n = len(g.vertices)
        total += 4**n * 2**n
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    print(
        f"PASS criterion 6: explicit model exact on all 8 small graphs "
        f"({total} cases) in {elapsed:.3f}s"
    )


def test_criterion_7_monotonicity():
    checked = 0
    for base in (load_fixture_set("ghz_path3"), _triangle_base()):
        base_rep = ig.bell_report(base)
        for d in (1, 2):
            result = ig.build_inflated_set(base, inflate(base.graph, d))
            s = len(result.decoy_specs)
            rep = ig.bell_report(result.measurement_set)
            assert rep.qm_value == base_rep.qm_value + 2 * s
            assert rep.classical_bound == base_rep.classical_bound + 2 * s
            assert base_rep.ratio >= rep.ratio
            checked += 1
    print(
        f"PASS criterion 7: qm and bound grow by exactly 2s; base ratio >= "
        f"inflated ratio ({checked} builds)"
    )


def _triangle_base():
    g = ig.build_graph([(1, 2), (1, 3), (2, 3)])
    pairs = tuple(
        ig.MeasurementPair.make(
            dict(zip("123", letters)), frozenset("123"), name=f"M{i + 1}"
        )
        for i, letters in enumerate(["XZZ", "ZXZ", "ZZX", "XXX"])
    )
    return ig.MeasurementSet(graph=g, d=0, pairs=pairs)


def test_criterion_8_property_suite():
    rng = random.Random(97)

    # (a) subset <-> pauli roundtrip, 1000 random cases, n <= 10
    for _ in range(1000):
        g = random_connected_graph(rng, rng.randrange(3, 11))
        subset = random_subset(rng, g.vertices)
        letters, sign = pauli.subset_to_pauli(g, subset)
        assert pauli.expectation(g, letters) == sign
        assert {v for v, l in letters.items() if l in ("X", "Y")} == subset

    # (b) pauli vs statevector: exhaustive n <= 5, sampled n <= 10
    for _ in range(3):
        g = random_connected_graph(rng, rng.randrange(3, 6))
        state = sv.graph_state(g)
        for combo in itertools.product("IXYZ", repeat=len(g.vertices)):
            letters = dict(zip(g.vertices, combo))
            assert (
                abs(
                    sv.pauli_expectation(state, letters)
                    - pauli.expectation(g, letters)
                )
                < 1e-10
            )
    for _ in range(3):
        g = random_connected_graph(rng, rng.randrange(6, 11))
        state = sv.graph_state(g)
        for _ in range(100):
            letters = {v: rng.choice("IXYZ") for v in g.vertices}
            assert (
                abs(
                    sv.pauli_expectation(state, letters)
                    - pauli.expectation(g, letters)
                )
                < 1e-10
            )

    # (c) 50 random connected graphs with discovered base sets, d in {1,2}
    built_sets = []
    found = 0
    while found < 50:
        g = random_connected_graph(rng, rng.randrange(3, 7))
        base = ig.find_base_set(g)
        if base is None:
            continue
        assert ig.verify_paradox(base).overall
        found += 1
        for d in (1, 2):
            result = ig.build_inflated_set(base, inflate(g, d))
            assert result.certificate.overall
            assert ig.feasible(ig.build_system(result.measurement_set)) is False
        built_sets.append(base)

    # (d) min_violations is odd for certified sets
    for name in ("table1_9cycle", "chain7", "cycle5", "ghz_path3"):
        s = load_fixture_set(name)
        assert ig.min_violations(ig.build_system(s)) % 2 == 1
    small = [b for b in built_sets if len(b.pairs) <= 12][:5]
    for base in small:
        assert ig.min_violations(ig.build_system(base)) % 2 == 1

    # (e) GF(2) feasibility vs direct enumeration, <= 20 variables
    for _ in range(50):
        n_vars = rng.randrange(1, 12)
        rows = tuple(
            rng.randrange(1 << n_vars) for _ in range(rng.randrange(1, 8))
        )
        rhs = tuple(rng.randrange(2) for _ in range(rng.randrange(1, 8)))
        n_rows = min(len(rows), len(rhs))
        sys = lhv.StrategySystem(
            variables=tuple((f"v{j}", ("X",)) for j in range(n_vars)),
            rows=rows[:n_rows],
            rhs=rhs[:n_rows],
        )
        assert ig.feasible(sys) == (min_violations_brute_force(sys) == 0)

    print(
        "PASS criterion 8: property suite (roundtrip, oracle agreement, "
        "50 random builds at d=1,2, odd violations, enumeration cross-check)"
    )
