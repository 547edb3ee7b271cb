import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import inflated_graphs as ig
from conftest import (
    barrett_expectation_sampled,
    bits_of_by_shifts,
    game_bound_brute_force,
    min_violations_brute_force,
    model_values,
    random_connected_graph,
)
from inflated_graphs import gf2, lhv, pauli, statevector
from inflated_graphs.cli import FIXTURES, load_fixture_set
from inflated_graphs.graph import members


def test_build_system_shape_ghz():
    sys = ig.build_system(load_fixture_set("ghz_path3"))
    assert len(sys.rows) == 4
    # two letters occur per vertex at d=0 -> six variables
    assert sys.n_variables == 6
    assert sys.rhs == (1, 0, 0, 0)
    assert not ig.feasible(sys)


def test_build_system_single_pair():
    g = ig.build_graph([(1, 2)])
    s = ig.MeasurementSet(
        graph=g,
        d=0,
        pairs=(ig.MeasurementPair.make({"1": "X", "2": "Z"}, {"1", "2"}),),
    )
    sys = ig.build_system(s)
    assert len(sys.rows) == 1 and sys.n_variables == 2
    assert sys.rhs == (0,)
    assert ig.feasible(sys)


def test_build_system_rejects_undefined_sign():
    g = ig.build_graph([(1, 2), (2, 3)])
    s = ig.MeasurementSet(
        graph=g,
        d=0,
        pairs=(ig.MeasurementPair.make({"1": "Z", "2": "X", "3": "X"}, {"1", "2", "3"}),),
    )
    with pytest.raises(ValueError, match="stabilizer sign"):
        ig.build_system(s)


def test_empty_system_feasible():
    g = ig.build_graph([(1, 2)])
    s = ig.MeasurementSet(graph=g, d=0, pairs=())
    assert ig.feasible(ig.build_system(s))
    assert ig.min_violations(ig.build_system(s)) == 0


def test_min_violations_fixtures():
    assert ig.min_violations(ig.build_system(load_fixture_set("ghz_path3"))) == 1
    assert ig.min_violations(ig.build_system(load_fixture_set("chain7"))) == 1
    assert ig.min_violations(ig.build_system(load_fixture_set("cycle5"))) == 1


def test_min_violations_agrees_with_brute_force():
    rng = random.Random(31)
    for _ in range(100):
        n_vars = rng.randrange(1, 10)
        n_rows = rng.randrange(1, 8)
        sys = lhv.StrategySystem(
            variables=tuple((f"v{j}", ("X",)) for j in range(n_vars)),
            rows=tuple(rng.randrange(1 << n_vars) for _ in range(n_rows)),
            rhs=tuple(rng.randrange(2) for _ in range(n_rows)),
        )
        direct = min_violations_brute_force(sys)
        assert ig.min_violations(sys) == direct
        assert ig.feasible(sys) == (direct == 0)


def test_min_violations_on_degenerate_rows():
    # Systems the nonzero-walk transpose could get wrong: all-zero rows
    # with rhs 1 (each a forced violation), variables in no row, and more
    # variables than rows.
    def system(n_vars, rows, rhs):
        return lhv.StrategySystem(
            variables=tuple((f"v{j}", ("X",)) for j in range(n_vars)),
            rows=tuple(rows),
            rhs=tuple(rhs),
        )

    # Hand-built, with their minimum violations.
    assert ig.min_violations(system(3, [0, 0, 0], [1, 1, 0])) == 2
    assert ig.min_violations(system(4, [0b0101, 0, 0b0101, 0], [1, 1, 0, 1])) == 3
    assert ig.min_violations(system(6, [0b100001], [1])) == 0
    assert ig.min_violations(system(8, [0b11, 0b11, 0b11000000], [0, 1, 1])) == 1
    assert ig.min_violations(system(10, [1 << 9, 1 << 9, 0], [1, 0, 1])) == 2
    rng = random.Random(5)
    for _ in range(60):
        n_rows = rng.randrange(1, 7)
        n_vars = rng.randrange(n_rows + 1, 13)
        unused = rng.getrandbits(n_vars)  # variables kept out of every row
        rows = [
            0 if rng.random() < 0.25 else rng.getrandbits(n_vars) & ~unused
            for _ in range(n_rows)
        ]
        rhs = [rng.randrange(2) for _ in range(n_rows)]
        sys = system(n_vars, rows, rhs)
        got = ig.min_violations(sys)
        assert got == min_violations_brute_force(sys)
        assert got >= sum(b for row, b in zip(rows, rhs) if row == 0)


def system_from_columns(columns, n_rows, rhs):
    """Strategy system whose variable j has column columns[j] (bit k set
    iff row k holds the variable)."""
    return lhv.StrategySystem(
        variables=tuple((f"v{j}", ("X",)) for j in range(len(columns))),
        rows=tuple(
            sum(((col >> k) & 1) << j for j, col in enumerate(columns))
            for k in range(n_rows)
        ),
        rhs=tuple((rhs >> k) & 1 for k in range(n_rows)),
    )


def coset_enumeration(sys):
    """Test-local oracle: the minimum weight of rhs + span(columns), by a
    Gray-code walk over a basis of the columns."""
    columns = [
        sum(((row >> j) & 1) << k for k, row in enumerate(sys.rows))
        for j in range(sys.n_variables)
    ]
    basis = []  # distinct leading bits, largest first
    for col in columns:
        for b in basis:
            col = min(col, col ^ b)
        if col:
            basis.append(col)
            basis.sort(reverse=True)
    current = sum(b << k for k, b in enumerate(sys.rhs))
    best = current.bit_count()
    for i in range(1, 1 << len(basis)):
        current ^= basis[(i & -i).bit_length() - 1]
        best = min(best, current.bit_count())
    return best


def test_min_violations_matches_independent_oracles():
    rng = random.Random(2024)
    cases = []
    # (variables, rows): small systems; systems with fewer than twice as
    # many rows as variables, whose information sets must overlap; spans up
    # to 20 with high min_violations; and systems taller than 64 rows.
    shapes = [(rng.randrange(0, 11), rng.randrange(1, 24)) for _ in range(40)]
    for _ in range(80):
        n_vars = rng.randrange(6, 17)
        shapes.append((n_vars, rng.randrange(n_vars + 2, 2 * n_vars + 6)))
    shapes += [(12, 30), (14, 36), (16, 40), (16, 46), (18, 48), (20, 52), (20, 56)]
    shapes += [(10, 70), (12, 80), (14, 90), (9, 100)]
    for index, (n_vars, n_rows) in enumerate(shapes):
        columns = [rng.getrandbits(n_rows) for _ in range(n_vars)]
        if index < 120 and columns and rng.random() < 0.3:
            columns[rng.randrange(n_vars)] = 0  # a variable in no row
        if index < 120 and len(columns) > 1 and rng.random() < 0.3:
            columns[0] = columns[-1]  # two variables in the same rows
        cases.append(system_from_columns(columns, n_rows, rng.getrandbits(n_rows)))
    # Rows of more than 64 variables (several bytes each, as pipeline's
    # systems have), no rows, and no variables.
    for n_vars, n_rows in ((65, 9), (100, 16), (130, 12)):
        columns = [rng.getrandbits(n_rows) for _ in range(n_vars)]
        cases.append(system_from_columns(columns, n_rows, rng.getrandbits(n_rows)))
    cases.append(system_from_columns([0] * 70, 0, 0))
    cases.append(system_from_columns([], 0, 0))
    # An empty span, all-zero columns, and rhs inside the span.
    cases.append(system_from_columns([], 9, 0b101101001))
    cases.append(system_from_columns([0, 0, 0], 7, 0b1100110))
    for n_rows in (12, 40, 90):
        columns = [rng.getrandbits(n_rows) for _ in range(8)]
        rhs = columns[1] ^ columns[4] ^ columns[6]
        cases.append(system_from_columns(columns + columns[:2], n_rows, rhs))

    seen = []
    for sys in cases:
        got = ig.min_violations(sys)
        assert got == coset_enumeration(sys)
        if sys.n_variables <= 10:
            assert got == min_violations_brute_force(sys)
        seen.append((got, len(sys.rows), gf2.rank(list(sys.rows))))
    assert max(got for got, rows, _ in seen if rows <= 64) >= 10
    assert max(rows for _, rows, _ in seen) > 64
    assert max(span for _, _, span in seen) == 20
    assert sum(got == 0 for got, _, _ in seen) >= 3


@pytest.mark.parametrize(
    "rows, rhs, message",
    [
        ((1, 1), (1,), "2 rows but 1 right-hand bits"),
        ((1,), (1, 0), "1 rows but 2 right-hand bits"),
        ((1, 0b10), (0, 1), "row 1 has a bit outside its 1 variables"),
        ((-1,), (0,), "row 0 has a bit outside its 1 variables"),
    ],
)
def test_strategy_system_checks_its_shape(rows, rhs, message):
    # Unchecked, feasible's solve would drop the row that has no rhs bit
    # while min_violations counted it, and the transpose would drop a bit
    # past the last variable or fail on it.
    with pytest.raises(ValueError, match=message):
        lhv.StrategySystem(variables=(("a", ()),), rows=rows, rhs=rhs)


def test_variable_order_does_not_change_bound_or_feasibility():
    # build_system numbers its variables by first appearance; any other
    # order, with the columns permuted to match, gives the same coset.
    rng = random.Random(41)
    sets = [load_fixture_set(name) for name in FIXTURES]
    for i in range(50):
        g = random_connected_graph(rng, 3 + i % 6)
        built = ig.build_inflated_set(ig.find_base_set(g), ig.inflate(g, 1 + i % 3))
        sets.append(built.measurement_set)
    # Dropping a pair breaks the paradox in some sets, so both verdicts occur.
    sets += [ig.MeasurementSet(s.graph, s.d, s.pairs[:-1]) for s in sets]
    verdicts = set()
    for s in sets:
        sys = ig.build_system(s)
        order = list(range(sys.n_variables))
        rng.shuffle(order)
        position = {j: p for p, j in enumerate(order)}
        rows = tuple(
            sum(1 << position[j] for j in range(sys.n_variables) if row >> j & 1)
            for row in sys.rows
        )
        variables = tuple(sys.variables[j] for j in order)
        shuffled = lhv.StrategySystem(variables, rows, sys.rhs)
        assert ig.min_violations(shuffled) == ig.min_violations(sys)
        assert ig.feasible(shuffled) == ig.feasible(sys)
        verdicts.add(ig.feasible(sys))
    assert verdicts == {True, False}


def test_min_violations_budget(monkeypatch):
    def independent_system(k):
        return lhv.StrategySystem(
            variables=tuple((f"v{j}", ("X",)) for j in range(k)),
            rows=tuple(1 << j for j in range(k)),
            rhs=tuple(1 for _ in range(k)),
        )

    # Span dimension 31 was refused by the old dimension cap; the coset
    # search sees the reduced rhs vanish in round 0.
    assert ig.min_violations(independent_system(31)) == 0
    # Every nonempty span costs at least one step, so a budget of 0 refuses
    # it before round 0.
    monkeypatch.setattr(gf2, "MAX_COSET_STEPS", 0)
    with pytest.raises(ValueError, match=r"too large.*round 0"):
        ig.min_violations(independent_system(31))


def test_bell_reports():
    assert ig.bell_report(load_fixture_set("ghz_path3")).to_json() == {
        "qm": 4,
        "bound": 2,
        "min_violations": 1,
        "ratio": "2/1",
    }
    assert ig.bell_report(load_fixture_set("chain7")).to_json() == {
        "qm": 6,
        "bound": 4,
        "min_violations": 1,
        "ratio": "3/2",
    }
    rep = ig.bell_report(load_fixture_set("cycle5"))
    assert rep.qm_value == 16 and rep.classical_bound == 14
    assert rep.ratio == Fraction(8, 7)


def test_odd_violations_for_certified_sets():
    for name in ("table1_9cycle", "chain7", "cycle5", "ghz_path3"):
        s = load_fixture_set(name)
        assert ig.verify_paradox(s).overall
        assert ig.min_violations(ig.build_system(s)) % 2 == 1


# ---------------------------------------------------------------------------
# Explicit model with flip rules
# ---------------------------------------------------------------------------


def reference_values(model, pair):
    """A pair's model expectation by both references: the per-case model
    value and explicit averaging."""
    x, z = pauli.to_xz(model.graph, pair.letters_dict)
    m = bits_of_by_shifts(model.graph, pair.mask)
    return model_values(model)(x, z, m), barrett_expectation_sampled(model, pair)


def test_barrett_generator_prediction():
    g = ig.build_graph([(1, 2), (2, 3)])
    model = lhv.BarrettModel(graph=g)
    pair = ig.MeasurementPair.make({"1": "Z", "2": "X", "3": "Z"}, {"1", "2", "3"})
    assert reference_values(model, pair) == (1, 1)


def test_barrett_triangle_flip():
    g = ig.build_graph([(1, 2), (1, 3), (2, 3)])
    rules = tuple(lhv.load_flip_rules()["triangle"])
    model = lhv.BarrettModel(graph=g, flip_rules=rules)
    pair = ig.MeasurementPair.make({"1": "X", "2": "X", "3": "X"}, {"1", "2", "3"})
    assert reference_values(model, pair) == (-1, -1)  # matches quantum
    no_flip = lhv.BarrettModel(graph=g)
    assert reference_values(no_flip, pair) == (1, 1)  # the model's only error


def test_barrett_non_stabilizer_is_zero():
    g = ig.build_graph([(1, 2), (2, 3)])
    model = lhv.BarrettModel(graph=g)
    pair = ig.MeasurementPair.make({"1": "Z", "2": "X", "3": "X"}, {"1", "2", "3"})
    assert reference_values(model, pair) == (0, 0)


def test_barrett_analytic_matches_explicit_average():
    """The two model references agree: the per-case value that the
    check_model tests compare with, and explicit averaging."""
    rng = random.Random(41)
    rules_by_graph = lhv.load_flip_rules()
    for gid, g in lhv.SMALL_GRAPHS.items():
        bundled = rules_by_graph[gid]
        for flip_rules in (
            tuple(bundled),
            tuple(r for r in bundled if rng.random() < 0.5),
        ):
            model = lhv.BarrettModel(graph=g, flip_rules=flip_rules)
            for _ in range(40):
                letters = {v: rng.choice("IXYZ") for v in g.vertices}
                mask = frozenset(v for v in g.vertices if rng.random() < 0.6)
                value, sampled = reference_values(
                    model, ig.MeasurementPair.make(letters, mask)
                )
                assert value == sampled


def test_flip_rule_neighborhood_validation():
    g = ig.build_graph([(1, 2), (2, 3)])
    with pytest.raises(ValueError, match="closed neighbourhood"):
        lhv.BarrettModel(
            graph=g,
            flip_rules=(lhv.FlipRule.make("1", {"1": "X", "3": "Z"}),),
        )
    with pytest.raises(ValueError, match="twice"):
        lhv.BarrettModel(
            graph=g,
            flip_rules=(
                lhv.FlipRule("2", (("1", "Z"), ("2", "X"), ("2", "Y"))),
            ),
        )
    with pytest.raises(ValueError, match="invalid Pauli letter 'W'"):
        lhv.BarrettModel(
            graph=g, flip_rules=(lhv.FlipRule.make("2", {"1": "Z", "2": "W"}),)
        )
    with pytest.raises(ValueError, match="unknown vertex '9'"):
        lhv.BarrettModel(graph=g, flip_rules=(lhv.FlipRule.make("9", {}),))


def test_verify_small_graphs_zero_mismatches():
    rules = lhv.load_flip_rules()
    for gid, g in lhv.SMALL_GRAPHS.items():
        model = lhv.BarrettModel(g, tuple(rules.get(gid, ())))
        assert lhv.check_model(model) == []


def test_triangle_without_flips_fails_only_on_negative_pattern():
    g = lhv.SMALL_GRAPHS["triangle"]
    mismatches = lhv.check_model(lhv.BarrettModel(graph=g))
    assert len(mismatches) == 1
    assert mismatches[0]["letters"] == {"1": "X", "2": "X", "3": "X"}
    assert sorted(mismatches[0]["mask"]) == ["1", "2", "3"]


def test_check_model_matches_letter_scan():
    """check_model's mismatch list equals a scan over letter dicts that
    reads the model from explicit averaging and the quantum value from the
    statevector."""
    rules_by_graph = lhv.load_flip_rules()
    for gid in ("path3", "triangle"):
        g = lhv.SMALL_GRAPHS[gid]
        state = statevector.graph_state(g)
        n = len(g.vertices)
        cases = []
        for combo in itertools.product("IXYZ", repeat=n):
            for bits in range(1 << n):
                pair = ig.MeasurementPair.make(
                    dict(zip(g.vertices, combo)),
                    {v for i, v in enumerate(g.vertices) if (bits >> i) & 1},
                )
                sub = {
                    v: l for v, l in pair.letters_dict.items() if v in pair.mask
                }
                quantum = round(statevector.pauli_expectation(state, sub))
                cases.append((pair, quantum))
        bundled = rules_by_graph[gid]
        for k in range(len(bundled) + 1):
            for flip_rules in itertools.combinations(bundled, k):
                model = lhv.BarrettModel(graph=g, flip_rules=flip_rules)
                expected = []
                for pair, quantum in cases:
                    value = barrett_expectation_sampled(model, pair)
                    if value != quantum:
                        expected.append(
                            {
                                "letters": dict(pair.letters),
                                "mask": sorted(pair.mask),
                                "quantum": quantum,
                                "model": str(value),
                            }
                        )
                assert lhv.check_model(model) == expected


def test_search_flip_rules_rediscovers_valid_sets():
    for gid in ("path3", "triangle", "star4"):
        g = lhv.SMALL_GRAPHS[gid]
        rules = lhv.search_flip_rules(g)
        assert rules is not None
        assert lhv.check_model(lhv.BarrettModel(graph=g, flip_rules=tuple(rules))) == []


def scalar_cases(g):
    """Test-local copy of the per-case generator the case table replaced:
    IXYZ**n with the first vertex most significant, then masks ascending."""
    n = len(g.vertices)
    for letters in itertools.product(pauli.LETTERS, repeat=n):
        x, z = pauli.to_xz(g, dict(zip(g.vertices, letters)))
        for m in range(1 << n):
            yield x, z, m


def scalar_check_model(model):
    """Test-local copy of the per-case check_model loop."""
    mismatches = []
    g = model.graph
    value = model_values(model)
    for x, z, m in scalar_cases(g):
        expected, negative = pauli._stabilizer(g, x & m)
        quantum = (-1 if negative else 1) if z & m == expected else 0
        classical = value(x, z, m)
        if classical != quantum:
            letters = pauli.letters_of(g.vertices, x, z)
            mismatches.append(
                {
                    "letters": dict(sorted(letters.items())),
                    "mask": sorted(members(g.vertices, m)),
                    "quantum": quantum,
                    "model": str(classical),
                }
            )
    return mismatches


def scalar_search_flip_rules(g):
    """Test-local copy of the per-case search_flip_rules loop."""
    closed = [(1 << i) | nbrs for i, nbrs in enumerate(g.adjacency)]
    candidates = {}
    rows = []
    rhs = []
    for x, z, m in scalar_cases(g):
        expected, negative = pauli._stabilizer(g, x & m)
        if z & m != expected:
            continue
        measured = (x | z) & m
        row = 0
        for i, c in enumerate(closed):
            if (measured >> i) & 1:
                j = candidates.setdefault((i, x & c, z & c), len(candidates))
                row ^= 1 << j
        rows.append(row)
        rhs.append(int(negative))
    chosen = gf2.solve(rows, rhs)
    if chosen is None:
        return None
    rules = []
    for (i, x, z), j in candidates.items():
        if (chosen >> j) & 1:
            v = g.vertices[i]
            letters = pauli.letters_of(g.vertices, x, z)
            rules.append(
                lhv.FlipRule.make(
                    v, {u: letters.get(u, "I") for u in (v, *g.neighbors[v])}
                )
            )
    return rules


def test_flip_scans_match_scalar_loops():
    """The case-table scans return exactly what the per-case loops did,
    order included: rule sets, and mismatch lists for the rules found, the
    bundled rules and random subsets of both (which leave mismatches)."""
    rng = random.Random(9)
    bundled = lhv.load_flip_rules()
    graphs = list(lhv.SMALL_GRAPHS.items())
    graphs.append((None, ig.build_graph([(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])))
    for n in [3] * 10 + [4] * 14 + [5] * 14 + [6] * 2:
        graphs.append((None, random_connected_graph(rng, n)))
    nonempty = no_rules = 0
    for gid, g in graphs:
        rules = lhv.search_flip_rules(g)
        assert rules == scalar_search_flip_rules(g)
        no_rules += rules is None
        rule_sets = [tuple(rules or ()), tuple(bundled.get(gid, ()))]
        rule_sets += [tuple(r for r in rs if rng.random() < 0.5) for rs in rule_sets]
        if len(g.vertices) == 6:
            rule_sets = rule_sets[2:3]  # the scalar loop takes ~1 s a scan
        for flip_rules in dict.fromkeys(rule_sets):
            model = lhv.BarrettModel(graph=g, flip_rules=flip_rules)
            mismatches = lhv.check_model(model)
            assert mismatches == scalar_check_model(model)
            nonempty += bool(mismatches)
    assert nonempty >= 20 and no_rules >= 1


def test_check_model_builds_its_own_tables(monkeypatch):
    """check_model reads no table of the rule search: with _cases raising,
    it still returns the scalar loop's mismatch lists."""
    rng = random.Random(13)
    bundled = lhv.load_flip_rules()
    models = [
        lhv.BarrettModel(graph=g, flip_rules=tuple(bundled[gid][1:]))
        for gid, g in lhv.SMALL_GRAPHS.items()
    ]
    for n in (4, 5):
        g = random_connected_graph(rng, n)
        rules = tuple(lhv.search_flip_rules(g) or ())
        models.append(lhv.BarrettModel(graph=g, flip_rules=rules))
        models.append(lhv.BarrettModel(graph=g, flip_rules=rules[::2]))
        # Repeated rules fire together and cancel.
        models.append(lhv.BarrettModel(graph=g, flip_rules=rules + rules[:3]))
    expected = [scalar_check_model(model) for model in models]

    def refuse(g):
        raise AssertionError("check_model read the search's case table")

    monkeypatch.setattr(lhv, "_cases", refuse)
    with pytest.raises(AssertionError):
        lhv.search_flip_rules(lhv.SMALL_GRAPHS["path3"])
    assert [lhv.check_model(model) for model in models] == expected
    assert sum(map(bool, expected)) >= 8


def patch_stabilizer(monkeypatch, target, z_bits=0, flip_sign=False):
    """Make pauli._stabilizer wrong at one subset: its z XOR z_bits, its
    sign flipped if flip_sign."""
    real = pauli._stabilizer

    def patched(g, s):
        z, negative = real(g, s)
        if s == target:
            return z ^ z_bits, negative ^ flip_sign
        return z, negative

    monkeypatch.setattr(pauli, "_stabilizer", patched)


def test_check_model_names_a_stabilizer_z_it_cannot_match(monkeypatch):
    """check_model compares the stabilizer rule's z of every subset with
    the model's own neighbour parity before it scans a case: a z with one
    extra bit is a fault of the program, named by its subset."""
    g = lhv.SMALL_GRAPHS["path4"]
    rules = tuple(lhv.search_flip_rules(g))
    # {1, 3} has neighbour parity {4}; the patched rule says {1, 4}.
    patch_stabilizer(monkeypatch, 0b0101, z_bits=0b0001)
    message = r"on subset \['1', '3'\]: z \['1', '4'\] .* against \['4'\]"
    with pytest.raises(RuntimeError, match=message):
        lhv.check_model(lhv.BarrettModel(graph=g, flip_rules=rules))


def test_check_model_names_an_adjacency_row_off_the_graph():
    """Both routes read g.adjacency, so a cached row that gains the bit of
    a vertex the graph lacks reaches both; the stabilizer's z keeps only
    the graph's n bits, the model's parity table keeps it, and the check
    raises at the first subset holding that row's vertex."""
    g = ig.build_graph([(1, 2), (2, 3), (3, 4)])
    adjacency = list(g.adjacency)
    adjacency[1] |= 1 << len(g.vertices)
    g.__dict__["adjacency"] = tuple(adjacency)
    with pytest.raises(RuntimeError, match=r"on subset \['2'\]: z \['1', '3'\]"):
        lhv.check_model(lhv.BarrettModel(graph=g))


def test_check_model_lists_the_cases_of_a_flipped_stabilizer_sign(monkeypatch):
    """With one subset's stabilizer sign flipped, the exact rule set's
    model misses every stabilizer case on that subset, and check_model lists
    exactly the scalar loop's cases under the same patch."""
    for gid, target in (("path4", 0b0110), ("k4", 0b1011)):
        g = lhv.SMALL_GRAPHS[gid]
        model = lhv.BarrettModel(graph=g, flip_rules=tuple(lhv.search_flip_rules(g)))
        assert lhv.check_model(model) == []
        with monkeypatch.context() as patch:
            patch_stabilizer(patch, target, flip_sign=True)
            expected = scalar_check_model(model)
            assert expected
            assert lhv.check_model(model) == expected


def stabilizer_row_key(g, x, z, m):
    """Test-local row key of a stabilizer case: its measured set and its
    letters on the union of the measured vertices' closed neighbourhoods,
    which fix its row of the rule search."""
    measured = (x | z) & m
    union = 0
    for i, nbrs in enumerate(g.adjacency):
        if (measured >> i) & 1:
            union |= (1 << i) | nbrs
    return measured, x & union, z & union, union


def test_search_cases_are_the_first_case_of_each_row():
    """Brute force over all 8^n cases: the search's cases are exactly the
    stabilizer cases whose mask is their measured set and whose letters are
    I off the closed neighbourhoods of that set, case indices included.
    They are also the first stabilizer case of each row key, one per key
    of any stabilizer case, and every copy of a key has the same sign."""
    rng = random.Random(19)
    graphs = [lhv.SMALL_GRAPHS["path3"], lhv.SMALL_GRAPHS["k4"]]
    graphs += [random_connected_graph(rng, n) for n in [3] * 3 + [4] * 4 + [5] * 4]
    for g in graphs:
        first = {}  # row key -> (case index, x, z, m, negative)
        expected = []
        for k, (x, z, m) in enumerate(scalar_cases(g)):
            stab_z, negative = pauli._stabilizer(g, x & m)
            if z & m != stab_z:
                continue
            measured, xu, zu, union = stabilizer_row_key(g, x, z, m)
            case = (k, x, z, m, negative)
            key = (measured, xu, zu)
            assert first.setdefault(key, case)[4] == negative
            if m == measured and (x | z) & ~union == 0:
                expected.append(case)
        got = lhv._cases(g)
        assert got == expected
        assert got == sorted(first.values())


def numpy_table_cases(g):
    """Test-local copy of the numpy enumeration _cases replaced: a table of
    all 6^n (mask m, subset s of m, letters off m) entries, filtered to
    m = s | z_s with letters only on the closed neighbourhoods of m."""
    n = len(g.vertices)
    # Per vertex, six choices: I, X, Y, Z off m, then X on s and Z on m - s.
    dtype = np.min_scalar_type((1 << n) - 1)
    digit = np.array([0, 1, 2, 3, 1, 3])
    in_m, in_s, has_x, has_z = np.array(
        [
            [0, 0, 0, 0, 1, 1],
            [0, 0, 0, 0, 1, 0],
            [0, 1, 1, 0, 1, 0],
            [0, 0, 1, 1, 0, 0],
        ],
        dtype,
    )
    digits = np.zeros(1, np.int64)
    m = s = x = z_off = np.zeros(1, dtype)
    for i in range(n):  # the first vertex most significant
        digits = (digits[:, None] * 4 + digit).ravel()
        m = (m[:, None] | in_m << i).ravel()
        s = (s[:, None] | in_s << i).ravel()
        x = (x[:, None] | has_x << i).ravel()
        z_off = (z_off[:, None] | has_z << i).ravel()
    position = digits << n | m
    # A stabilizer case has Y, not X, on s & z: its index moves by the
    # spread of those bits.
    spread = np.zeros(1 << n, np.int64)
    for i in range(n):
        spread[1 << i : 2 << i] = spread[: 1 << i] + (4 ** (n - 1 - i) << n)
    stabilizers = [pauli._stabilizer(g, t) for t in range(1 << n)]
    stab_z = np.array([z for z, _ in stabilizers], dtype)
    stab_negative = np.array([negative for _, negative in stabilizers], bool)
    union = np.zeros(1 << n, dtype)
    for i, nbrs in enumerate(g.adjacency):
        union[1 << i : 2 << i] = union[: 1 << i] | (1 << i) | nbrs
    kept = np.flatnonzero(
        ((s | stab_z[s]) == m) & (((x | z_off) & ~union[m]) == 0)
    )
    s = s[kept]
    z = stab_z[s]
    case = position[kept] + spread[s & z]
    order = np.argsort(case)
    kept, s, z = kept[order], s[order], z[order]
    tables = case[order], x[kept], z | z_off[kept], m[kept], stab_negative[s]
    return list(zip(*(table.tolist() for table in tables)))


def test_cases_match_numpy_case_table(monkeypatch):
    """_cases gives the numpy table's cases, order included, on random
    graphs with 6-7 vertices, K7 and the 7-path, and, with the cap patched
    to 8, on the star K1,7 and the 8-path."""
    monkeypatch.setattr(lhv, "MAX_FLIP_VERTICES", 8)
    rng = random.Random(37)
    graphs = [random_connected_graph(rng, 6 + k % 2) for k in range(6)]
    graphs += [
        ig.build_graph(list(itertools.combinations(range(1, 8), 2))),
        ig.build_graph([(i, i + 1) for i in range(1, 7)]),
        ig.build_graph([(1, i) for i in range(2, 9)]),
        ig.build_graph([(i, i + 1) for i in range(1, 8)]),
    ]
    for g in graphs:
        got = lhv._cases(g)
        assert got == numpy_table_cases(g)
        assert {negative for *_, negative in got} == {False, True}


def full_table_search(g):
    """Test-local copy of the rule search the reduced case table replaced:
    one numpy table of all 8^n (x, z, mask) cases, filtered to the
    stabilizer cases, candidates numbered by first appearance, duplicate
    rows dropped by key."""
    n = len(g.vertices)
    codes = np.arange(4**n)
    x_of = np.zeros(4**n, np.uint8)
    z_of = np.zeros(4**n, np.uint8)
    for i in range(n):
        d = (codes >> (2 * (n - 1 - i))) & 3
        x_of |= (((d ^ (d >> 1)) & 1) << i).astype(np.uint8)
        z_of |= ((d >> 1) << i).astype(np.uint8)
    masks = np.arange(1 << n, dtype=np.uint8)
    stabilizers = [pauli._stabilizer(g, s) for s in range(1 << n)]
    x, z, m = np.repeat(x_of, 1 << n), np.repeat(z_of, 1 << n), np.tile(masks, 4**n)
    stab_z = np.array([sz for sz, _ in stabilizers], np.uint8)
    stab_negative = np.array([neg for _, neg in stabilizers], bool)
    subset = x & m
    stabilizer = np.flatnonzero(z & m == stab_z[subset])
    x, z, m = x[stabilizer], z[stabilizer], m[stabilizer]
    negative = stab_negative[subset[stabilizer]]
    measured = (x | z) & m
    closed = [(1 << i) | nbrs for i, nbrs in enumerate(g.adjacency)]

    def key(i, x, z):
        c = closed[i]
        return (i << 2 * n) | ((x & c).astype(np.int32) << n) | (z & c)

    first = np.full(n << 2 * n, x.size)
    for i in range(n):
        held = np.flatnonzero(measured & (1 << i))
        np.minimum.at(first, key(i, x[held], z[held]), held)
    seen = np.flatnonzero(first < x.size)
    layout = np.full((x.size, n), -1, np.int32)
    layout[first[seen], seen >> 2 * n] = seen
    order = layout[layout >= 0]
    number = np.full(n << 2 * n, -1)
    number[order] = np.arange(order.size)
    union_of = np.zeros(1 << n, np.uint8)
    for i, c in enumerate(closed):
        union_of[1 << i : 2 << i] = union_of[: 1 << i] | c
    union = union_of[measured]
    row_key = (
        (measured.astype(np.int32) << 2 * n)
        | ((x & union).astype(np.int32) << n)
        | (z & union)
    )
    rhs = np.full(1 << 3 * n, -1, np.int8)
    rhs[row_key] = negative
    distinct = np.flatnonzero(rhs >= 0)
    low = (1 << n) - 1
    measured, x, z = distinct >> 2 * n, (distinct >> n) & low, distinct & low
    rows = np.zeros(distinct.size, object)
    for i in range(n):
        held = np.flatnonzero(measured & (1 << i))
        j = number[key(i, x[held], z[held])]
        rows[held] += np.left_shift(1, j.astype(object))
    chosen = gf2.solve(rows.tolist(), rhs[distinct].tolist())
    if chosen is None:
        return None
    rules = []
    for j, k in enumerate(order.tolist()):
        if (chosen >> j) & 1:
            v = g.vertices[k >> 2 * n]
            letters = pauli.letters_of(g.vertices, (k >> n) & low, k & low)
            rules.append(
                lhv.FlipRule.make(
                    v, {u: letters.get(u, "I") for u in (v, *g.neighbors[v])}
                )
            )
    return rules


def test_search_matches_full_case_table_at_six_and_seven_vertices():
    """The search returns the rule lists of the 8^n-case search, order
    included, on K7, the 7-path with and without chords (1,4) and (3,7),
    and 20 random graphs with 6-7 vertices."""
    rng = random.Random(29)
    path7 = [(i, i + 1) for i in range(1, 7)]
    graphs = [
        ig.build_graph(list(itertools.combinations(range(1, 8), 2))),
        ig.build_graph(path7),
        ig.build_graph(path7 + [(1, 4), (3, 7)]),
    ]
    graphs += [random_connected_graph(rng, 6 + k % 2) for k in range(20)]
    found = []
    for g in graphs:
        rules = lhv.search_flip_rules(g)
        assert rules == full_table_search(g)
        found.append(rules is not None)
    assert found[:3] == [True, False, False]
    assert 1 <= sum(found[3:]) < 20


def test_check_tables_are_read_only_and_cached():
    """check_model's cached graph-free tables refuse writes."""
    for n in (3, 5):
        tables = lhv._check_tables(n)
        assert lhv._check_tables(n) is tables
        for table in tables:
            with pytest.raises(ValueError):
                table[(0,) * table.ndim] = 1
            with pytest.raises(ValueError):
                table ^= 1


def test_check_model_flags_a_mutated_rule():
    """On a 5- and a 6-vertex graph, changing one letter of one rule found
    by the search gives the scalar loop's mismatches, and some."""
    graphs = [
        ig.build_graph([(1, 2), (2, 3), (3, 4), (4, 5), (2, 5)]),
        ig.build_graph([(i, i + 1) for i in range(1, 6)]),
    ]
    for g in graphs:
        rules = lhv.search_flip_rules(g)
        assert rules
        rule = rules[len(rules) // 2]
        pattern = dict(rule.pattern)
        # The rule's own letter is never I; take the next of X, Y, Z.
        pattern[rule.vertex] = "XYZX"["XYZ".index(pattern[rule.vertex]) + 1]
        mutated = rules[:]
        mutated[len(rules) // 2] = lhv.FlipRule.make(rule.vertex, pattern)
        model = lhv.BarrettModel(graph=g, flip_rules=tuple(mutated))
        mismatches = lhv.check_model(model)
        assert mismatches
        assert mismatches == scalar_check_model(model)


def test_paper_smallest_linear_graph():
    """The 6-path has an exact flip-rule model; the 7-path, the paper's
    smallest linear example, and the 5-cycle have none."""
    path6 = ig.build_graph([(i, i + 1) for i in range(1, 6)])
    rules = lhv.search_flip_rules(path6)
    assert rules is not None
    assert lhv.check_model(lhv.BarrettModel(graph=path6, flip_rules=tuple(rules))) == []
    path7 = ig.build_graph([(i, i + 1) for i in range(1, 7)])
    assert lhv.search_flip_rules(path7) is None
    cycle5 = ig.build_graph([(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
    assert lhv.search_flip_rules(cycle5) is None


def test_search_flip_rules_ignores_hash_seed():
    src = str(Path(lhv.__file__).resolve().parents[1])
    code = (
        "from inflated_graphs import lhv\n"
        "for gid, g in lhv.SMALL_GRAPHS.items():\n"
        "    print(gid, lhv.search_flip_rules(g))\n"
    )
    outputs = set()
    for seed in ("0", "1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        run = subprocess.run(
            [sys.executable, "-c", code],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        outputs.add(run.stdout)
    assert len(outputs) == 1


def test_flip_scans_refuse_more_than_seven_vertices():
    # MAX_FLIP_VERTICES is the scans' only size limit.  At 8 vertices
    # check_model peaks at about 125 MB, but K8's dense search rows wait for
    # the system's split into connected components, so both refuse up front.
    assert lhv.MAX_FLIP_VERTICES == 7
    path8 = ig.build_graph([(i, i + 1) for i in range(1, 8)])
    with pytest.raises(ValueError, match="limited to 7 vertices"):
        lhv.check_model(lhv.BarrettModel(graph=path8))
    with pytest.raises(ValueError, match="limited to 7 vertices"):
        lhv.search_flip_rules(path8)


def bare_mismatch_count(g):
    """Closed form of the rule-free model's mismatch count, which reads
    neither the model nor a letter oracle.  Without rules the model gives +1
    on every stabilizer-proportional case, so it misses exactly the negative
    ones.  Subset s, with support S = s | stab_z[s], is measured by every
    mask that holds S, with I on the rest of the mask and any letter off
    it: 5^(n - |S|) cases."""
    n = len(g.vertices)
    total = 0
    for s in range(1 << n):
        z, negative = pauli._stabilizer(g, s)
        if negative:
            total += 5 ** (n - (s | z).bit_count())
    return total


def test_bare_model_mismatches_match_closed_form():
    path7 = [(i, i + 1) for i in range(1, 7)]
    graphs = dict(lhv.SMALL_GRAPHS)
    graphs["cycle5"] = ig.build_graph([(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
    graphs["path7"] = ig.build_graph(path7)
    graphs["path7+(1,4)+(3,7)"] = ig.build_graph(path7 + [(1, 4), (3, 7)])
    counts = {}
    for gid, g in graphs.items():
        mismatches = lhv.check_model(lhv.BarrettModel(graph=g))
        assert all(r["quantum"] == -1 and r["model"] == "1" for r in mismatches)
        counts[gid] = len(mismatches)
    assert counts == {gid: bare_mismatch_count(g) for gid, g in graphs.items()}
    assert counts["triangle"] == 1
    assert counts["path7"] == 568 and counts["path7+(1,4)+(3,7)"] == 896


def test_check_model_is_exact_at_eight_vertices(monkeypatch):
    """With the cap patched to 8, check_model's keys widen to uint16 and
    stay exact: the bare 8-path and 8-cycle models miss the closed form's
    cases, and on sampled cases, for those models and one with random
    rules, a case is listed exactly when the scalar model value differs
    from the stabilizer's."""
    monkeypatch.setattr(lhv, "MAX_FLIP_VERTICES", 8)
    for n in range(3, 8):
        assert {t.dtype for t in lhv._check_tables(n)} == {np.dtype(np.uint8)}
    assert {t.dtype for t in lhv._check_tables(8)} == {np.dtype(np.uint16)}
    rng = random.Random(31)
    path8 = [(i, i + 1) for i in range(1, 8)]
    p8 = ig.build_graph(path8)
    c8 = ig.build_graph(path8 + [(1, 8)])
    rules = []
    for _ in range(12):
        v = rng.choice(c8.vertices)
        pattern = {u: rng.choice("IXYZ") for u in c8.neighbors[v]}
        pattern[v] = rng.choice("XYZ")
        rules.append(lhv.FlipRule.make(v, pattern))
    models = [
        lhv.BarrettModel(graph=p8),
        lhv.BarrettModel(graph=c8),
        lhv.BarrettModel(graph=c8, flip_rules=tuple(rules)),
    ]
    counts = []
    for model in models:
        g = model.graph
        mismatches = lhv.check_model(model)
        counts.append(len(mismatches))
        value = model_values(model)
        listed = {
            (tuple(r["letters"].items()), tuple(sorted(r["mask"]))): r
            for r in mismatches
        }
        for trial in range(2000):
            x, z, m = rng.getrandbits(8), rng.getrandbits(8), rng.getrandbits(8)
            if trial % 2:  # half the cases proportional to a stabilizer
                s = rng.getrandbits(8)
                stab_z, _ = pauli._stabilizer(g, s)
                m |= s | stab_z
                x = s | x & ~m
                z = stab_z | z & ~m
            expected, negative = pauli._stabilizer(g, x & m)
            quantum = (-1 if negative else 1) if z & m == expected else 0
            classical = value(x, z, m)
            key = (
                tuple(sorted(pauli.letters_of(g.vertices, x, z).items())),
                tuple(sorted(members(g.vertices, m))),
            )
            record = listed.get(key)
            assert (record is not None) == (classical != quantum)
            if record is not None:
                assert (record["quantum"], record["model"]) == (quantum, str(classical))
    assert counts[:2] == [bare_mismatch_count(p8), bare_mismatch_count(c8)]
    assert counts[:2] == [3000, 2768] and counts[2] > 0
    # The n = 8 zm table alone is 33 MB; do not keep it for later tests.
    lhv._check_tables.cache_clear()


# ---------------------------------------------------------------------------
# Binary games
# ---------------------------------------------------------------------------


def test_chsh_game_bound_at_each_distance():
    # All four terms can be won once vertex 3, which is only in the two
    # full terms, sees vertex 1's setting: from d = 2, its distance to it.
    assert [ig.game_bound(*ig.chsh_game(d)) for d in range(5)] == [2, 2, 4, 4, 4]


def test_binary_game_bound_distance_one():
    assert ig.game_bound(*ig.chsh_game(1)) == 2


def test_binary_game_bound_full_information():
    assert lhv.game_bound(*lhv.chsh_game(3)) == 4


def test_game_bound_refuses_past_its_budget(monkeypatch):
    # chsh_game(3)'s search ends in round 0 on one information set, so only
    # a budget of 0 steps refuses it.
    monkeypatch.setattr(gf2, "MAX_COSET_STEPS", 0)
    with pytest.raises(ValueError, match="too large: coset search"):
        lhv.game_bound(*lhv.chsh_game(3))


def test_game_bound_refuses_signs_other_than_one_and_minus_one():
    s, _ = lhv.chsh_game(1)
    for signs, bad in (((1, -1, 2, 1), "term 2 has sign 2"), ((0, 1, 1, 1), "term 0 ")):
        with pytest.raises(ValueError, match=bad):
            lhv.game_bound(s, signs)
    with pytest.raises(ValueError, match="4 rows but 3 right-hand bits"):
        lhv.game_bound(s, (1, 1, 1))


def test_game_bound_matches_dict_loop():
    """game_bound against an enumeration of every strategy that looks each
    output up in a dict keyed by (vertex, letters on its BFS ball): random
    graphs with n <= 4, d = 0..2, random letters, masks and signs, with
    pairs repeated under either sign."""
    rng = random.Random(17)
    games = [(lhv.chsh_game(d), d) for d in range(3)]
    for _ in range(120):
        n = rng.randrange(1, 5)
        edges = itertools.combinations(range(1, n + 1), 2)
        edges = [e for e in edges if rng.random() < 0.5]
        g = ig.build_graph(edges, vertices=range(1, n + 1))
        d = rng.randrange(3)
        # Two letters per vertex, or sometimes I, so that pairs share views.
        choices = {v: rng.sample("XYZ", 2) for v in g.vertices}
        distinct = [
            (
                {
                    v: rng.choice(choices[v]) if rng.random() < 0.8 else "I"
                    for v in g.vertices
                },
                [v for v in g.vertices if rng.random() < 0.7],
            )
            for _ in range(rng.randrange(1, 6))
        ]
        terms = [pair for pair in distinct for _ in range(rng.randrange(1, 3))]
        rng.shuffle(terms)
        pairs = tuple(ig.MeasurementPair.make(letters, mask) for letters, mask in terms)
        signs = tuple(rng.choice((1, -1)) for _ in terms)
        games.append(((ig.MeasurementSet(g, d, pairs), signs), d))
    for (s, signs), d in games:
        terms = [(c, p.letters_dict, p.mask) for c, p in zip(signs, s.pairs)]
        assert lhv.game_bound(s, signs) == game_bound_brute_force(s.graph, d, terms)


def test_standard_chsh_degenerate_instance():
    # Two parties that see only their own settings (d = 0): CHSH's 2.  At
    # d = 1 each sees both settings and every term can be won.
    pairs = tuple(
        ig.MeasurementPair.make({"A": a, "B": b}, ("A", "B"))
        for a in "XZ"
        for b in "XZ"
    )
    for d, bound in ((0, 2), (1, 4)):
        s = ig.MeasurementSet(ig.build_graph([("A", "B")]), d, pairs)
        assert lhv.game_bound(s, (1, 1, 1, -1)) == bound
