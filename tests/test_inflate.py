import importlib
import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import inflated_graphs as ig
from inflated_graphs import pauli, statevector
from inflated_graphs.cli import FIXTURES, _fixture_text, load_fixture_set
from inflated_graphs.graph import chain_vertex_name, edge_key, inflate
from conftest import bfs_ball, bits_of_by_shifts, random_connected_graph

# The package attribute "inflate" is the construction function, not the
# module.
infl_mod = importlib.import_module("inflated_graphs.inflate")


def triangle_base():
    g = ig.build_graph([(1, 2), (1, 3), (2, 3)])
    pairs = tuple(
        ig.MeasurementPair.make(
            dict(zip("123", letters)), frozenset("123"), name=f"M{i + 1}"
        )
        for i, letters in enumerate(["XZZ", "ZXZ", "ZZX", "XXX"])
    )
    return ig.MeasurementSet(graph=g, d=0, pairs=pairs)


# ---------------------------------------------------------------------------
# The letter-dict construction that build_inflated_set's bitmask arithmetic
# replaced, kept as its reference: every inflated and decoy pair is built as
# a letter dict over every chain vertex, and the base subset is read back
# from the base pair's letters.
# ---------------------------------------------------------------------------


def inflated_measurement(m, iginf):
    """Copy base letters onto power vertices; X on every chain vertex."""
    for v in m:
        if m[v] != "I":
            iginf.base.require_vertex(v)
    letters = {v: l for v, l in m.items() if l != "I"}
    for w in iginf.chain_index:
        letters[w] = "X"
    return letters


def _members(iginf, subset):
    """Inflated-graph vertices whose generators multiply to the inflated
    generators of a set of power vertices: each u itself plus the chain
    vertices of u's chains at even distance from u."""
    members = set()
    for u in subset:
        if u not in iginf.base.vertices:
            raise ValueError(f"{u!r} is not a power vertex")
        members.add(u)
        for v in iginf.base.neighbors[u]:
            edge = edge_key(u, v)
            for s in range(1, iginf.d + 1):
                # Position 2s counted from u; canonical names count from the
                # smaller endpoint.
                r = 2 * s if edge[0] == u else 2 * iginf.d + 1 - 2 * s
                members.add(chain_vertex_name(edge, r))
    return frozenset(members)


def inflated_stabilizer(iginf, subset):
    """Product of the inflated generators of a base-graph vertex subset, as
    (letters, sign)."""
    return pauli.subset_to_pauli(iginf.graph, _members(iginf, subset))


def assert_well_formed(spec, base_graph):
    """What a DecoySpec promises: two distinct base neighbors of its center
    and two distinct Pauli letters."""
    v1, v2 = spec.neighbors
    assert v1 != v2
    assert {v1, v2} <= set(base_graph.neighbors[spec.center])
    s1, s2 = spec.letters
    assert s1 != s2
    assert {s1, s2} <= set(pauli.LETTERS)


def shell_stabilizer(iginf, spec):
    """Product of the inflated generators of the two chosen neighbors, as
    (letters, sign): identity at the center vertex, sign always +1."""
    assert_well_formed(spec, iginf.base)
    letters, sign = inflated_stabilizer(iginf, spec.neighbors)
    assert spec.center not in letters
    assert sign == 1
    return letters, sign


def decoy_pair(iginf, spec):
    """Two measurements differing only at the center vertex, X on every
    chain vertex and the shell's letters on the other power vertices, with
    the shell stabilizer as their common submeasurement."""
    shell, _ = shell_stabilizer(iginf, spec)
    base_letters = {v: l for v, l in shell.items() if v not in iginf.chain_index}
    for w in iginf.chain_index:
        base_letters[w] = "X"
    mask = frozenset(shell)
    out = []
    for s in spec.letters:
        letters = dict(base_letters)
        if s != "I":
            letters[spec.center] = s
        pair = ig.MeasurementPair.make(letters, mask)
        assert all(pair.letters_dict.get(v) == l for v, l in shell.items())
        out.append(pair)
    return out[0], out[1]


def inflated_pair(p, base, iginf):
    """A base pair's inflated pair and its base subset, read back from the
    base pair's letters."""
    assert pauli.expectation(base.graph, p.letters_dict)
    subset = frozenset(v for v, l in p.letters_dict.items() if l in ("X", "Y"))
    stab, _ = inflated_stabilizer(iginf, subset)
    letters = inflated_measurement(p.letters_dict, iginf)
    return ig.MeasurementPair.make(letters, frozenset(stab), name=p.name), subset


def letter_build(base, iginf):
    """build_inflated_set on letter dicts: the same odd-class table and decoy
    plan, with every pair built by the helpers above."""
    pairs = []
    odd = {}
    for p in base.pairs:
        pair, subset = inflated_pair(p, base, iginf)
        pairs.append(pair)
        for f in subset:
            for c in base.graph.neighbors[f]:
                odd.setdefault(c, set()).symmetric_difference_update(
                    {(f, p.letters_dict.get(c, "I"))}
                )
    specs = []
    for center in sorted(odd):
        for spec in infl_mod._plan_decoys(center, odd[center]):
            specs.append(spec)
            pairs.extend(decoy_pair(iginf, spec))
    built = ig.MeasurementSet(graph=iginf.graph, d=iginf.d, pairs=tuple(pairs))
    return ig.BuildResult(
        measurement_set=built,
        decoy_specs=specs,
        certificate=ig.verify_paradox(built),
    )


def test_inflated_generator_is_stabilizer_element():
    g = ig.build_graph([(1, 2), (2, 3)])
    iginf = inflate(g, 1)
    f2, sign = inflated_stabilizer(iginf, {"2"})
    # it must be a +1 stabilizer element of the inflated graph
    assert pauli.expectation(iginf.graph, f2) == sign == 1
    # the letter at the power vertex itself is X
    assert f2["2"] == "X"


def test_inflated_measurement_letters():
    g = ig.build_graph([(1, 2)])
    iginf = inflate(g, 1)
    letters = inflated_measurement({"1": "Y", "2": "Z"}, iginf)
    assert letters["1"] == "Y" and letters["2"] == "Z"
    assert letters["1@(1,2)"] == "X" and letters["2@(1,2)"] == "X"


def test_shell_stabilizer_structure():
    g = ig.build_graph([(1, 2), (2, 3)])
    for d in (1, 2, 3):
        iginf = inflate(g, d)
        spec = ig.DecoySpec(center="2", neighbors=("1", "3"), letters=("X", "Y"))
        shell, sign = shell_stabilizer(iginf, spec)
        assert sign == 1
        # X on the two neighbors and on the chain vertices at odd distance
        # from the center; identity everywhere else
        expected = {"1": "X", "3": "X"}
        for w, (edge, r) in iginf.chain_index.items():
            # r counts from edge[0]; the chain is 2d + 1 edges long.
            if (r if edge[0] == "2" else 2 * d + 1 - r) % 2 == 1:
                expected[w] = "X"
        assert shell == expected


def test_decoy_pair_shares_shell_submeasurement():
    g = ig.build_graph([(1, 2), (1, 3), (2, 3)])
    iginf = inflate(g, 1)
    spec = ig.DecoySpec(center="1", neighbors=("2", "3"), letters=("X", "Z"))
    m1, m2 = decoy_pair(iginf, spec)
    assert m1.mask == m2.mask
    l1, l2 = m1.letters_dict, m2.letters_dict
    assert l1["1"] == "X" and l2["1"] == "Z"
    # equal letters everywhere except the center
    for v in iginf.graph.vertices:
        if v != "1":
            assert l1.get(v, "I") == l2.get(v, "I")
    # the shared submeasurement is a +1 stabilizer element
    for m in (m1, m2):
        sub = {v: l for v, l in m.letters_dict.items() if v in m.mask}
        assert pauli.expectation(iginf.graph, sub) == 1


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_built_decoy_specs_are_well_formed(data):
    """_plan_decoys only emits specs with two distinct base neighbors of the
    center and two distinct letters, on random connected graphs with
    n = 3..11 at d = 1..3."""
    rng = random.Random(data.draw(st.integers(min_value=0, max_value=2**32)))
    g = random_connected_graph(rng, data.draw(st.integers(min_value=3, max_value=11)))
    d = data.draw(st.integers(min_value=1, max_value=3))
    result = ig.build_inflated_set(ig.find_base_set(g), inflate(g, d))
    assert result.certificate.overall
    for spec in result.decoy_specs:
        assert_well_formed(spec, g)


def test_member_masks_partition_the_inflated_vertices():
    """The member masks are pairwise disjoint and cover the inflated graph,
    so their OR without the power bits is the chain mask, named by name."""
    rng = random.Random(33)
    cases = [
        inflate(random_connected_graph(rng, n), d)
        for n in range(3, 10)
        for d in (1, 2, 3)
    ]
    cases.append(inflate(ig.build_graph(itertools.combinations(range(1, 15), 2)), 3))
    for iginf in cases:
        g = iginf.graph
        union = 0
        for mask in infl_mod._member_masks(iginf):
            assert not union & mask
            union |= mask
        assert union == (1 << len(g.vertices)) - 1
        power = bits_of_by_shifts(g, iginf.base.vertices)
        assert union & ~power == bits_of_by_shifts(g, iginf.chain_index)


def test_build_reproduces_chain7_fixture():
    base = load_fixture_set("ghz_path3")
    result = ig.build_inflated_set(base, inflate(base.graph, 1))
    fixture = load_fixture_set("chain7")
    built = [(p.letters, p.mask) for p in result.measurement_set.pairs]
    expected = [(p.letters, p.mask) for p in fixture.pairs]
    assert built == expected
    assert result.report()["decoy_measurements"] == 2


def test_build_reproduces_table1_fixture():
    base = triangle_base()
    result = ig.build_inflated_set(base, inflate(base.graph, 1))
    fixture = load_fixture_set("table1_9cycle")
    built = [(p.letters, p.mask) for p in result.measurement_set.pairs]
    expected = [(p.letters, p.mask) for p in fixture.pairs]
    assert built == expected
    assert result.report()["decoy_measurements"] == 6
    assert result.certificate.overall


def test_build_requires_certified_full_mask_base():
    base = load_fixture_set("ghz_path3")
    iginf = inflate(base.graph, 1)
    broken = ig.MeasurementSet(graph=base.graph, d=0, pairs=base.pairs[:3])
    with pytest.raises(ValueError, match="not certified"):
        ig.build_inflated_set(broken, iginf)
    partial = ig.MeasurementSet(
        graph=base.graph,
        d=0,
        pairs=(
            ig.MeasurementPair.make(base.pairs[0].letters_dict, {"1", "2"}),
        )
        + base.pairs[1:],
    )
    with pytest.raises(ValueError, match="full submasks"):
        ig.build_inflated_set(partial, iginf)
    with pytest.raises(ValueError, match="d=0"):
        ig.build_inflated_set(
            ig.MeasurementSet(graph=base.graph, d=1, pairs=base.pairs), iginf
        )


def test_build_refuses_an_inflation_of_another_graph():
    base = load_fixture_set("ghz_path3")
    other = inflate(ig.build_graph([(1, 2), (1, 3), (2, 3)]), 1)
    with pytest.raises(ValueError, match="not built from the base set's graph"):
        ig.build_inflated_set(base, other)


def test_failed_reverification_names_the_odd_classes(monkeypatch):
    base = load_fixture_set("ghz_path3")
    iginf = inflate(base.graph, 1)
    inflated = ig.build_inflated_set(base, iginf).measurement_set.pairs[:4]
    odd = ig.verify_paradox(ig.MeasurementSet(iginf.graph, 1, inflated)).odd_classes
    assert odd
    monkeypatch.setattr(infl_mod, "_plan_decoys", lambda center, failing: [])
    with pytest.raises(RuntimeError, match="failed re-verification") as info:
        ig.build_inflated_set(base, iginf)
    assert str(info.value).endswith(f"; odd excerpt classes: {odd}")


def test_find_base_set_on_named_graphs():
    for edges in ([(1, 2), (2, 3)], [(1, 2), (1, 3), (2, 3)], [(1, 2), (1, 3), (1, 4)]):
        g = ig.build_graph(edges)
        base = ig.find_base_set(g)
        assert base is not None
        cert = ig.verify_paradox(base)
        assert cert.overall


def test_find_base_set_exact_outputs():
    # Pair names and letters in canonical vertex order; every mask is full.
    cases = [
        ([(1, 2), (2, 3)], ["ZXZ", "YYZ", "ZYY", "YXY"]),
        ([(1, 2), (1, 3), (2, 3)], ["XZZ", "ZXZ", "ZZX", "XXX"]),
        ([(1, 2), (2, 3), (3, 4), (1, 4)], ["ZXZI", "YYZZ", "ZYYZ", "YXYI"]),
        (
            [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (1, 8),
             (1, 5), (2, 6)],
            ["ZXZIIZII", "YYZIZZIZ", "ZYYZIZII", "YXYZZZIZ"],
        ),
    ]
    for edges, expected in cases:
        g = ig.build_graph(edges)
        base = ig.find_base_set(g)
        assert [p.name for p in base.pairs] == [
            f"M{i + 1}" for i in range(len(expected))
        ]
        assert [
            "".join(p.letters_dict.get(v, "I") for v in g.vertices)
            for p in base.pairs
        ] == expected
        assert all(p.mask == frozenset(g.vertices) for p in base.pairs)


def test_find_base_set_rejects_tiny_graphs():
    assert ig.find_base_set(ig.build_graph([(1, 2)])) is None


def test_find_base_set_has_no_vertex_limit():
    # The construction is local to one vertex triple, so graph size is no
    # limit: paths far past the old 16-vertex enumeration, and a random
    # 60-vertex graph.
    def path(n):
        return ig.build_graph([(i, i + 1) for i in range(1, n)])

    rng = random.Random(60)
    for g in (path(17), path(40), random_connected_graph(rng, 60)):
        base = ig.find_base_set(g)
        assert base is not None and len(base.pairs) == 4
        assert ig.verify_paradox(base).overall


def _reference_find_base_set(g):
    """The 2^n stabilizer-column GF(2) search that find_base_set replaced,
    on its own stabilizer letters, elimination and null space: columns are
    the stabilizer elements K_S in bitmask order of S, rows the parity of
    each (vertex, letter) and of the sign; the fully reduced solution is
    shrunk greedily along the null basis.  Returns the pairs as (name,
    letters, mask) triples, or None when the system has no solution."""
    vertices = g.vertices
    n = len(vertices)
    full = frozenset(vertices)
    columns = []
    for bits in range(1, 1 << n):
        members = {v for i, v in enumerate(vertices) if (bits >> i) & 1}
        letters = {}
        for v in vertices:
            z = sum(u in members for u in g.neighbors[v]) % 2
            letter = {(1, 0): "X", (1, 1): "Y", (0, 1): "Z"}.get((v in members, z))
            if letter:
                letters[v] = letter
        inner = sum(u in members for v in members for u in g.neighbors[v]) // 2
        ys = sum(l == "Y" for l in letters.values())
        columns.append((letters, (inner - ys // 2) % 2))
    # Augmented rows, right-hand bit at position m: one per (vertex,
    # letter) parity, whose right-hand side is 0, and the sign row.
    m = len(columns)
    rows = [
        sum(1 << j for j, (ls, _) in enumerate(columns) if ls.get(v) == l)
        for v in vertices
        for l in "XYZ"
    ]
    rows.append(sum(1 << j for j, (_, neg) in enumerate(columns) if neg) | 1 << m)
    # Gauss-Jordan elimination, pivots in ascending column order.
    pivots = {}  # column -> fully reduced row
    for col in range(m):
        hit = next((r for r in rows if (r >> col) & 1), None)
        if hit is None:
            continue
        rows.remove(hit)
        rows = [r ^ hit if (r >> col) & 1 else r for r in rows]
        pivots = {c: r ^ hit if (r >> col) & 1 else r for c, r in pivots.items()}
        pivots[col] = hit
    if 1 << m in rows:
        return None
    chosen = sum(1 << c for c, r in pivots.items() if (r >> m) & 1)
    null_basis = [
        (1 << f) | sum(1 << c for c, r in pivots.items() if (r >> f) & 1)
        for f in range(m)
        if f not in pivots
    ]
    improved = True
    while improved:
        improved = False
        for vec in null_basis:
            if (chosen ^ vec).bit_count() < chosen.bit_count():
                chosen ^= vec
                improved = True
    picked = [j for j in range(m) if (chosen >> j) & 1]
    return [
        (f"M{k + 1}", columns[j][0], full) for k, j in enumerate(picked)
    ]


def test_find_base_set_matches_reference_search():
    rng = random.Random(7)
    graphs = [random_connected_graph(rng, 3 + i % 8) for i in range(200)]
    for n in range(3, 13):
        graphs.append(ig.build_graph(list(itertools.combinations(range(1, n + 1), 2))))
        graphs.append(ig.build_graph([(i, i + 1) for i in range(1, n)]))
        graphs.append(ig.build_graph([(1, j) for j in range(2, n + 1)]))
    for g in graphs:
        base = ig.find_base_set(g)
        got = [(p.name, p.letters_dict, p.mask) for p in base.pairs]
        assert got == _reference_find_base_set(g), g
        if len(g.vertices) <= 10:
            state = statevector.graph_state(g)
            signs = ig.verify_paradox(base).stabilizer_signs
            for p, sign in zip(base.pairs, signs):
                value = statevector.pauli_expectation(state, p.letters_dict)
                assert abs(value - sign) < 1e-9


def test_build_random_graphs_d1_d2():
    rng = random.Random(23)
    for _ in range(10):
        g = random_connected_graph(rng, rng.randrange(3, 6))
        base = ig.find_base_set(g)
        assert base is not None
        for d in (1, 2):
            result = ig.build_inflated_set(base, inflate(g, d))
            assert result.certificate.overall
            assert not ig.feasible(ig.build_system(result.measurement_set))


def test_build_verifies_base_and_result_once_each(monkeypatch):
    calls = []

    def counting(s):
        calls.append(s.d)
        return ig.verify_paradox(s)

    monkeypatch.setattr(infl_mod, "verify_paradox", counting)
    for base, d in ((load_fixture_set("ghz_path3"), 2), (triangle_base(), 1)):
        calls.clear()
        result = ig.build_inflated_set(base, inflate(base.graph, d))
        assert result.certificate.overall
        assert calls == [0, d]


def _reference_build(base, iginf):
    """The decoy-completion fixpoint that build_inflated_set replaced:
    verify the working set, map each odd excerpt class to its power vertex
    and far branch, append the planned decoys, and repeat until every class
    is even.  Returns (pairs, decoy specs, rounds, certificate)."""
    pairs = [inflated_pair(p, base, iginf)[0] for p in base.pairs]
    specs = []
    rounds = 0
    while True:
        rounds += 1
        assert rounds <= len(iginf.graph.vertices), "did not converge"
        working = ig.MeasurementSet(graph=iginf.graph, d=iginf.d, pairs=tuple(pairs))
        certificate = ig.verify_paradox(working)
        failures = {}
        for w, odd in certificate.odd_classes.items():
            assert w in iginf.chain_index
            powers = [
                u for u in bfs_ball(iginf.graph, w, iginf.d) if u in iginf.base.vertices
            ]
            assert len(powers) == 1
            center = powers[0]
            edge, _ = iginf.chain_index[w]
            far = edge[0] if edge[1] == center else edge[1]
            for ks in odd:
                letter = pairs[ks[0]].letters_dict.get(center, "I")
                failures.setdefault(center, set()).add((far, letter))
        if not failures:
            return working.pairs, specs, rounds, certificate
        for center in sorted(failures):
            for spec in infl_mod._plan_decoys(center, failures[center]):
                specs.append(spec)
                pairs.extend(decoy_pair(iginf, spec))


def test_build_matches_reference_fixpoint():
    rng = random.Random(8)
    cases = [
        (random_connected_graph(rng, 3 + i % 9), 1 + i % 3) for i in range(210)
    ]
    bases = [(load_fixture_set("ghz_path3"), d) for d in (1, 2, 3)]
    bases += [(triangle_base(), d) for d in (1, 2, 3)]
    bases += [(ig.find_base_set(g), d) for g, d in cases]
    for base, d in bases:
        iginf = inflate(base.graph, d)
        result = ig.build_inflated_set(base, iginf)
        pairs, specs, rounds, certificate = _reference_build(base, iginf)
        assert ig.set_to_json(result.measurement_set) == ig.set_to_json(
            ig.MeasurementSet(graph=iginf.graph, d=d, pairs=pairs)
        )
        assert result.decoy_specs == specs
        assert result.report() == {
            "pairs": len(pairs),
            "decoy_pairs": len(specs),
            "decoy_measurements": 2 * len(specs),
            "iterations": rounds,
            "certificate": certificate.to_json(),
        }


def test_bit_build_matches_letter_build():
    """build_inflated_set's bitmask arithmetic gives the set, decoy plan and
    report of the letter-dict construction, on every fixture and on random
    connected graphs with n = 3..12 and d = 1..3."""
    bases = [load_fixture_set("ghz_path3"), triangle_base()]
    bases += [ig.find_base_set(load_fixture_set(name).graph) for name in FIXTURES]
    bases += [
        ig.find_base_set(ig.graph_from_json(json.loads(_fixture_text(name))))
        for name in ("path3", "triangle")
    ]
    cases = [(base, d) for base in bases for d in (1, 2, 3)]
    rng = random.Random(31)
    cases += [
        (ig.find_base_set(random_connected_graph(rng, 3 + i % 10)), 1 + i % 3)
        for i in range(120)
    ]
    decoys = 0
    for base, d in cases:
        iginf = inflate(base.graph, d)
        result = ig.build_inflated_set(base, iginf)
        reference = letter_build(base, iginf)
        assert ig.set_to_json(result.measurement_set) == ig.set_to_json(
            reference.measurement_set
        )
        assert result.decoy_specs == reference.decoy_specs
        assert result.report() == reference.report()
        decoys += len(result.decoy_specs)
    assert decoys > len(cases)
