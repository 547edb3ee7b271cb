import random

import pytest

import inflated_graphs as ig
from inflated_graphs import inflate as infl_mod
from inflated_graphs import pauli
from inflated_graphs.cli import load_fixture_set
from inflated_graphs.graph import distance, inflate
from conftest import random_connected_graph


def ghz_path3():
    g = ig.build_graph([(1, 2), (2, 3)])
    pairs = tuple(
        ig.MeasurementPair.make(
            dict(zip("123", letters)), frozenset("123"), name=f"M{i + 1}"
        )
        for i, letters in enumerate(["YXY", "YYZ", "ZYY", "ZXZ"])
    )
    return ig.MeasurementSet(graph=g, d=0, pairs=pairs)


def triangle_base():
    g = ig.build_graph([(1, 2), (1, 3), (2, 3)])
    pairs = tuple(
        ig.MeasurementPair.make(
            dict(zip("123", letters)), frozenset("123"), name=f"M{i + 1}"
        )
        for i, letters in enumerate(["XZZ", "ZXZ", "ZZX", "XXX"])
    )
    return ig.MeasurementSet(graph=g, d=0, pairs=pairs)


def test_inflated_generator_is_stabilizer_element():
    g = ig.build_graph([(1, 2), (2, 3)])
    iginf = inflate(g, 1)
    f2 = ig.inflated_generator(iginf, "2")
    # it must be a +1 stabilizer element of the inflated graph
    decomposition = pauli.pauli_to_subset(iginf.graph, f2.as_dict())
    assert decomposition is not None
    assert f2.phase == 0
    # the letter at the power vertex itself is X
    assert f2.letter("2") == "X"


def test_inflated_measurement_letters():
    g = ig.build_graph([(1, 2)])
    iginf = inflate(g, 1)
    letters = ig.inflated_measurement({"1": "Y", "2": "Z"}, iginf)
    assert letters["1"] == "Y" and letters["2"] == "Z"
    assert letters["1@(1,2)"] == "X" and letters["2@(1,2)"] == "X"


def test_shell_stabilizer_structure():
    g = ig.build_graph([(1, 2), (2, 3)])
    for d in (1, 2):
        iginf = inflate(g, d)
        spec = ig.DecoySpec(center="2", neighbors=("1", "3"), letters=("X", "Y"))
        shell = ig.shell_stabilizer(iginf, spec)
        assert shell.phase == 0
        assert shell.letter("2") == "I"
        # chain letters: X exactly at odd distance from the center
        for w, (edge, _) in iginf.chain_index.items():
            dist = distance(iginf.graph, w, "2")
            expected = "X" if dist <= 2 * d and dist % 2 == 1 else shell.letter(w)
            assert shell.letter(w) == expected


def test_decoy_pair_shares_shell_submeasurement():
    g = ig.build_graph([(1, 2), (1, 3), (2, 3)])
    iginf = inflate(g, 1)
    spec = ig.DecoySpec(center="1", neighbors=("2", "3"), letters=("X", "Z"))
    m1, m2 = ig.decoy_pair(iginf, spec)
    assert m1.mask == m2.mask
    assert m1.letter("1") == "X" and m2.letter("1") == "Z"
    # equal letters everywhere except the center
    for v in iginf.graph.vertices:
        if v != "1":
            assert m1.letter(v) == m2.letter(v)
    # the shared submeasurement is a +1 stabilizer element
    for m in (m1, m2):
        decomposition = pauli.pauli_to_subset(iginf.graph, m.submeasurement())
        assert decomposition is not None and decomposition[1] == 1


def test_decoy_spec_validation():
    g = ig.build_graph([(1, 2), (2, 3)])
    iginf = inflate(g, 1)
    with pytest.raises(ValueError, match="distinct"):
        ig.DecoySpec("2", ("1", "1"), ("X", "Y")).validate(iginf)
    with pytest.raises(ValueError, match="neighbor"):
        ig.DecoySpec("1", ("2", "3"), ("X", "Y")).validate(iginf)
    with pytest.raises(ValueError, match="distinct"):
        ig.DecoySpec("2", ("1", "3"), ("X", "X")).validate(iginf)


def test_build_reproduces_chain7_fixture():
    result = ig.build_inflated_set(ghz_path3(), inflate(ghz_path3().graph, 1))
    fixture = load_fixture_set("chain7")
    built = [(p.letters, p.mask) for p in result.measurement_set.pairs]
    expected = [(p.letters, p.mask) for p in fixture.pairs]
    assert built == expected
    assert result.decoy_count == 2


def test_build_reproduces_table1_fixture():
    base = triangle_base()
    result = ig.build_inflated_set(base, inflate(base.graph, 1))
    fixture = load_fixture_set("table1_9cycle")
    built = [(p.letters, p.mask) for p in result.measurement_set.pairs]
    expected = [(p.letters, p.mask) for p in fixture.pairs]
    assert built == expected
    assert result.decoy_count == 6
    assert result.certificate.overall


def test_build_requires_certified_full_mask_base():
    base = ghz_path3()
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
            "".join(p.letter(v) for v in g.vertices) for p in base.pairs
        ] == expected
        assert all(p.mask == frozenset(g.vertices) for p in base.pairs)


def test_find_base_set_rejects_tiny_graphs():
    assert ig.find_base_set(ig.build_graph([(1, 2)])) is None


def test_build_random_graphs_d1_d2():
    rng = random.Random(23)
    done = 0
    while done < 10:
        g = random_connected_graph(rng, rng.randrange(3, 6))
        base = ig.find_base_set(g)
        if base is None:
            continue
        for d in (1, 2):
            result = ig.build_inflated_set(base, inflate(g, d))
            assert result.certificate.overall
            assert not ig.feasible(ig.build_system(result.measurement_set))
        done += 1
