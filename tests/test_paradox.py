import json
import math
import random
import re

import pytest

import inflated_graphs as ig
from inflated_graphs import cli, gf2, graph, lhv, paradox, pauli
from inflated_graphs.cli import load_fixture_set
from inflated_graphs.graph import inflate
from conftest import (
    bfs_ball,
    bits_of_by_shifts,
    compile_pair_by_shifts,
    random_connected_graph,
)

FIXTURES = ("table1_9cycle", "chain7", "cycle5", "ghz_path3")


def test_ghz_set_verifies():
    cert = ig.verify_paradox(load_fixture_set("ghz_path3"))
    assert cert.overall
    assert cert.stabilizer_signs == (-1, 1, 1, 1)
    assert cert.product_is_minus_one
    assert cert.odd_classes == {}


def test_mutated_letter_breaks_certificate():
    s = load_fixture_set("ghz_path3")
    letters = dict(s.pairs[0].letters)
    letters["1"] = "X"  # YXY -> XXY
    mutated = ig.MeasurementSet(
        graph=s.graph,
        d=0,
        pairs=(ig.MeasurementPair.make(letters, s.pairs[0].mask),) + s.pairs[1:],
    )
    cert = ig.verify_paradox(mutated)
    assert not cert.overall
    # the mutated submeasurement is no longer stabilizer-proportional
    assert cert.stabilizer_signs[0] is None


def _classes_by_vertex(s):
    """The set's excerpt rows regrouped per vertex name, as
    {v: {(x, z): [pair indices]}} with vertices in graph order and classes
    in first-appearance order."""
    rows, classes = s.excerpt_rows
    vertices = s.graph.vertices
    out = {v: {} for v in vertices}
    for j, (i, x, z) in enumerate(classes):
        out[vertices[i]][(x, z)] = [k for k, row in enumerate(rows) if row >> j & 1]
    return out


def test_excerpt_is_ball_restricted():
    s = load_fixture_set("chain7")
    g = s.graph
    # d=1 ball around the middle power vertex has three vertices
    local = bfs_ball(g, "2", 1)
    assert len(local) == 3
    b = sum(1 << g.index[u] for u in local)
    classes = _classes_by_vertex(s)["2"]
    for (x, z), ks in classes.items():
        assert (x | z) & ~b == 0
        for k in ks:
            letters = s.pairs[k].letters_dict
            on_ball = {u: letters[u] for u in local if u in letters}
            assert pauli.to_xz(g, on_ball) == (x, z)
    # the four inflated base pairs keep the power vertex; the decoys' shell
    # has identity there
    assert sorted(k for ks in classes.values() for k in ks) == [0, 1, 2, 3]


def test_missing_decoy_pair_names_odd_classes():
    s = load_fixture_set("chain7")
    assert [p.name for p in s.pairs[4:]] == ["D1", "D2"]
    broken = ig.MeasurementSet(graph=s.graph, d=s.d, pairs=s.pairs[:5])
    cert = ig.verify_paradox(broken)
    # D1 is left alone at the two ends; at the middle chain vertices the
    # pair D2 cancelled (M3 on 1@(2,3), M2 on 2@(1,2)) is left alone.
    assert cert.odd_classes == {
        "1": ((4,),),
        "1@(2,3)": ((2,),),
        "2@(1,2)": ((1,),),
        "3": ((4,),),
    }
    assert [v for v, ok in cert.parity_ok.items() if not ok] == list(
        cert.odd_classes
    )
    assert set(cert.to_json()) == {
        "parity_ok",
        "stabilizer_signs",
        "product_is_minus_one",
        "overall",
    }


def test_odd_classes_fail_the_verdict_with_defined_signs():
    """ghz_path3 read at d = 1: every sign is defined and the product is -I,
    but each vertex now sees its neighbours' letters, and all three have odd
    excerpt classes.  The odd classes alone must fail the verdict, and
    parity_ok is False exactly at the vertices that hold them."""
    s = load_fixture_set("ghz_path3")
    cert = ig.verify_paradox(ig.MeasurementSet(graph=s.graph, d=1, pairs=s.pairs))
    assert None not in cert.stabilizer_signs
    assert cert.product_is_minus_one
    assert list(cert.odd_classes) == list(s.graph.vertices)
    assert cert.parity_ok == {v: v not in cert.odd_classes for v in s.graph.vertices}
    assert not cert.overall
    assert cert.to_json()["overall"] is False


def test_undefined_signs_fail_the_verdict_with_even_parity():
    """chain7 plus two copies of a pair with no stabilizer sign (X on the
    first vertex, kept alone).  The copies share one excerpt class and
    multiply to I, so parity stays even and the product stays -I: the two
    None signs alone must fail the verdict."""
    s = load_fixture_set("chain7")
    v = s.graph.vertices[0]
    lone_x = ig.MeasurementPair.make({v: "X"}, [v])
    cert = ig.verify_paradox(
        ig.MeasurementSet(graph=s.graph, d=s.d, pairs=s.pairs + (lone_x, lone_x))
    )
    assert cert.odd_classes == {}
    assert all(cert.parity_ok.values())
    assert cert.product_is_minus_one
    assert cert.stabilizer_signs[-2:] == (None, None)
    assert None not in cert.stabilizer_signs[:-2]
    assert not cert.overall
    assert cert.to_json()["overall"] is False


def _reference_classes(s, v):
    """Reference excerpt grouping of vertex v, keyed by letter tuples."""
    groups = {}
    for k, p in enumerate(s.pairs):
        letters = p.letters_dict
        if v in p.mask and letters.get(v, "I") != "I":
            excerpt = tuple(letters.get(u, "I") for u in bfs_ball(s.graph, v, s.d))
            groups.setdefault(excerpt, []).append(k)
    return groups


def _reference_system(s):
    """A strategy system on the reference grouping, or None when some pair
    has no stabilizer sign."""
    signs = [
        pauli.expectation(
            s.graph, {v: l for v, l in p.letters_dict.items() if v in p.mask}
        )
        for p in s.pairs
    ]
    if 0 in signs:
        return None
    variables = []
    rows = [0] * len(s.pairs)
    for v in s.graph.vertices:
        for excerpt, ks in _reference_classes(s, v).items():
            for k in ks:
                rows[k] |= 1 << len(variables)
            variables.append((v, excerpt))
    rhs = tuple(int(sign == -1) for sign in signs)
    return lhv.StrategySystem(tuple(variables), tuple(rows), rhs)


def _mutate(rng, s):
    """s with one letter of one pair changed."""
    k = rng.randrange(len(s.pairs))
    p = s.pairs[k]
    v = rng.choice(s.graph.vertices)
    letters = dict(p.letters)
    letters[v] = rng.choice([l for l in "IXYZ" if l != letters.get(v, "I")])
    pairs = list(s.pairs)
    pairs[k] = ig.MeasurementPair.make(letters, p.mask, name=p.name)
    return ig.MeasurementSet(graph=s.graph, d=s.d, pairs=tuple(pairs))


def test_excerpt_classes_match_letter_reference():
    """excerpt_rows, the certificate's witness and the strategy system
    agree with the letter-tuple grouping on fixtures, built sets and
    one-letter mutations of both."""
    rng = random.Random(11)
    sets = [load_fixture_set(name) for name in FIXTURES]
    for d in (1, 2, 3):
        for _ in range(4):
            g = random_connected_graph(rng, rng.randint(3, 6))
            built = ig.build_inflated_set(ig.find_base_set(g), inflate(g, d))
            sets.append(built.measurement_set)
    sets += [_mutate(rng, s) for s in sets for _ in range(4)]
    odd_seen = 0
    for s in sets:
        reference = {v: _reference_classes(s, v) for v in s.graph.vertices}
        grouped = _classes_by_vertex(s)
        for v, groups in reference.items():
            got = grouped[v]
            assert sorted(got.values()) == sorted(groups.values()), v
        odd = {
            v: tuple(tuple(ks) for ks in groups.values() if len(ks) % 2)
            for v, groups in reference.items()
        }
        odd = {v: classes for v, classes in odd.items() if classes}
        assert ig.verify_paradox(s).odd_classes == odd
        odd_seen += bool(odd)
        expected = _reference_system(s)
        if expected is None:
            with pytest.raises(ValueError, match="no stabilizer sign"):
                ig.build_system(s)
            continue
        system = ig.build_system(s)
        # Variable (v, key) labels the column of the pairs in that class.
        for j, (v, key) in enumerate(system.variables):
            column = [k for k, row in enumerate(system.rows) if row >> j & 1]
            assert column == grouped[v][key]
        assert system.n_variables == expected.n_variables
        assert system.rhs == expected.rhs
        assert gf2.rank(list(system.rows)) == gf2.rank(list(expected.rows))
        assert ig.feasible(system) == ig.feasible(expected)
        assert ig.min_violations(system) == ig.min_violations(expected)
    assert odd_seen >= 10


def _reference_excerpt_classes(s):
    """Reference per-vertex grouping: each vertex's ball summed into a
    bitmask, then every pair tested against the vertex."""
    index = s.graph.index
    out = {}
    for v in s.graph.vertices:
        b = sum(1 << index[u] for u in bfs_ball(s.graph, v, s.d))
        bit = 1 << index[v]
        classes = {}
        for k, (x, z, m) in enumerate(s.pair_bits):
            if m & bit and (x | z) & bit:
                classes.setdefault((x & b, z & b), []).append(k)
        out[v] = classes
    return out


def test_excerpt_classes_match_per_vertex_grouping():
    """excerpt_rows equals the per-vertex ball grouping, in the order of
    vertices, classes and pair indices, on 216 built sets."""
    rng = random.Random(12)
    checked = 0
    for i in range(216):
        g = random_connected_graph(rng, 3 + i % 6)
        s = ig.build_inflated_set(
            ig.find_base_set(g), inflate(g, 1 + i % 3)
        ).measurement_set
        reference = _reference_excerpt_classes(s)
        got = _classes_by_vertex(s)
        assert list(got) == list(reference)
        for v, classes in reference.items():
            assert list(got[v].items()) == list(classes.items()), v
        checked += 1
    assert checked >= 200


def test_excerpt_classes_and_signs_computed_once_per_set(monkeypatch):
    # The certificate, the strategy system and the Bell report of one set
    # compute its ball masks once (one computation for the graph at radius
    # d) and derive each pair's sign once between them.
    s = load_fixture_set("chain7")
    calls = {"ball": [], "sign": 0}
    real_grow_balls, real_stabilizer = graph._grow_balls, pauli._stabilizer

    def counting_grow_balls(adjacency, neighbours, d):
        calls["ball"].append((len(adjacency), d))
        return real_grow_balls(adjacency, neighbours, d)

    def counting_stabilizer(*args):
        calls["sign"] += 1
        return real_stabilizer(*args)

    monkeypatch.setattr(graph, "_grow_balls", counting_grow_balls)
    monkeypatch.setattr(pauli, "_stabilizer", counting_stabilizer)
    assert ig.verify_paradox(s).overall
    assert not ig.feasible(ig.build_system(s))
    assert ig.bell_report(s).min_violations == 1
    assert calls == {"ball": [(len(s.graph.vertices), s.d)], "sign": len(s.pairs)}


def test_pair_repr_evaluates_back_and_equality_is_pairs_only():
    made = ig.MeasurementPair.make({"2": "Z", "1": "X", "3": "I"}, ["2", "1"], "M1")
    for p in (made, load_fixture_set("chain7").pairs[0]):
        back = eval(repr(p), {"MeasurementPair": ig.MeasurementPair})
        assert back == p and hash(back) == hash(p)
    assert made.__eq__(made.letters) is NotImplemented
    assert (made == made.letters) is False
    assert made != "M1"


def test_masks_must_reference_known_vertices():
    g = ig.build_graph([(1, 2)])
    with pytest.raises(ValueError, match="unknown vertex"):
        ig.MeasurementSet(
            graph=g,
            d=0,
            pairs=(ig.MeasurementPair.make({"1": "X"}, {"9"}),),
        )


def test_negative_d_rejected():
    g = ig.build_graph([(1, 2)])
    with pytest.raises(ValueError):
        ig.MeasurementSet(graph=g, d=-1, pairs=())


def test_json_roundtrip(tmp_path):
    s = load_fixture_set("ghz_path3")
    path = tmp_path / "s.json"
    paradox.save_measurement_set(s, str(path))
    loaded = paradox.load_measurement_set(str(path))
    assert loaded == s
    # serialized shape matches the documented schema
    obj = json.loads(path.read_text())
    assert set(obj) == {"graph", "d", "pairs"}
    assert set(obj["pairs"][0]) == {"letters", "mask", "name"}


def test_certificate_soundness_cross_oracle():
    # overall=True must imply no perfect deterministic strategy exists.
    for name in ("ghz_path3", "cycle5", "chain7"):
        s = load_fixture_set(name)
        assert ig.verify_paradox(s).overall
        assert not ig.feasible(ig.build_system(s))


def _multiset(rng, s):
    """s with its pairs repeated, dropped or listed again as a whole, in
    random order half the time.  Extra copies come in twos, so unless one
    count is moved by one, every excerpt class keeps the parity it has in s
    listed `whole` times: even parity with defined signs and sign product
    +1 is common."""
    whole = rng.randint(0, 2)
    counts = [whole + 2 * rng.randint(0, 1) for _ in s.pairs]
    if rng.random() < 0.3:
        k = rng.randrange(len(counts))
        counts[k] = max(0, counts[k] + rng.choice((-1, 1)))
    pairs = [p for p, c in zip(s.pairs, counts) for _ in range(c)] or [s.pairs[0]]
    if rng.random() < 0.5:
        rng.shuffle(pairs)
    return ig.MeasurementSet(graph=s.graph, d=s.d, pairs=tuple(pairs))


def test_product_phase_matches_the_stabilizer_signs():
    """Where parity holds and every sign is defined, the signed
    submeasurements multiply to a stabilizer element proportional to I,
    which is +I: so the plain product is -I exactly when the signs
    multiply to -1.  This pits pauli.multiply's phase against
    pauli._stabilizer's signs, two routes that share no code.  A certified
    set must also have no perfect classical strategy."""
    rng = random.Random(31)
    sources = [load_fixture_set(name) for name in FIXTURES]
    for i in range(6):
        base = ig.find_base_set(random_connected_graph(rng, 4 + i % 3))
        sources.append(base)
        for d in (1, 2, 3):
            sources.append(
                ig.build_inflated_set(base, inflate(base.graph, d)).measurement_set
            )
    seen = {True: 0, False: 0}
    for s in sources:
        for _ in range(12):
            m = _multiset(rng, s)
            cert = ig.verify_paradox(m)
            if all(cert.parity_ok.values()) and None not in cert.stabilizer_signs:
                minus = math.prod(cert.stabilizer_signs) == -1
                assert cert.product_is_minus_one == minus, m.pairs
                seen[minus] += 1
            if cert.overall:
                assert not ig.feasible(ig.build_system(m)), m.pairs
    assert min(seen.values()) >= 50, seen


def test_bundled_fixtures_verify():
    for name in FIXTURES:
        cert = ig.verify_paradox(load_fixture_set(name))
        assert cert.overall, name


def _letter_writer(s):
    """The JSON form written from the pairs' letters and masks, keys and
    mask sorted by vertex name: the reference for set_to_json."""
    return {
        "graph": graph.graph_to_json(s.graph),
        "d": s.d,
        "pairs": [
            {
                "letters": dict(sorted(p.letters_dict.items())),
                "mask": sorted(p.mask),
                **({"name": p.name} if p.name else {}),
            }
            for p in s.pairs
        ],
    }


def _stored_form_sets():
    """The fixtures, loaded, and sets built from random graphs with
    n = 6..10 and d = 1..3, with their bases."""
    for name in FIXTURES:
        yield load_fixture_set(name)
    rng = random.Random(16)
    for i in range(30):
        g = random_connected_graph(rng, 6 + i % 5)
        base = ig.find_base_set(g)
        yield base
        yield ig.build_inflated_set(base, inflate(g, 1 + i // 10)).measurement_set


def test_stored_bits_match_letter_path():
    """Built and loaded pairs are stored over their graph's vertices, and
    their bits, JSON form and equality agree with the letter path they
    replace: letters compiled by to_xz and masks by the shift loop, written
    sorted, and pairs from MeasurementPair.make."""
    checked = 0
    for s in _stored_form_sets():
        g = s.graph
        obj = paradox.set_to_json(s)
        assert obj == _letter_writer(s)
        assert list(obj["pairs"][0]["letters"]) == sorted(s.pairs[0].letters_dict)
        loaded = paradox.set_from_json(json.loads(json.dumps(obj)))
        assert loaded == s and loaded.pair_bits == s.pair_bits
        for p, q in zip(s.pairs, loaded.pairs):
            for pair in (p, q):
                assert pair.vertices == g.vertices
                assert (pair.x, pair.z) == pauli.to_xz(g, pair.letters_dict)
                assert pair.m == bits_of_by_shifts(g, pair.mask)
                made = ig.MeasurementPair.make(pair.letters_dict, pair.mask, pair.name)
                assert made == pair and pair == made
                assert hash(made) == hash(pair)
                assert made.bits_on(g) == (pair.x, pair.z, pair.m)
            renamed = ig.MeasurementPair.make(p.letters_dict, p.mask, p.name + "'")
            assert renamed != p and p != renamed
        made_set = ig.MeasurementSet(
            graph=g,
            d=s.d,
            pairs=tuple(
                ig.MeasurementPair.make(p.letters_dict, p.mask, p.name)
                for p in s.pairs
            ),
        )
        assert made_set == s and hash(made_set) == hash(s)
        assert made_set.pair_bits == s.pair_bits
        assert paradox.set_to_json(made_set) == obj
        checked += 1
    assert checked == len(FIXTURES) + 60


def test_fixtures_rewrite_byte_for_byte():
    for name in FIXTURES:
        text = cli._fixture_text(name)
        s = paradox.set_from_json(json.loads(text))
        assert json.dumps(paradox.set_to_json(s), indent=2) + "\n" == text, name


# Malformed pairs: (letters, mask) of one pair of ghz_path3, and the message.
MALFORMED_PAIRS = {
    "letter W": ({"1": "W"}, ["1"], "invalid Pauli letter 'W'"),
    "list letter": ({"1": ["X"]}, ["1"], "invalid Pauli letter ['X']"),
    "object letter": ({"1": {"a": 1}}, ["1"], "invalid Pauli letter {'a': 1}"),
    "number letter": ({"1": 5}, ["1"], "invalid Pauli letter 5"),
    "unknown letter vertex": ({"9": "X"}, ["1"], "unknown vertex '9'"),
    "unknown mask vertex": ({"1": "X"}, ["9"], "unknown vertex '9'"),
    "smallest letter vertex": ({"9": "X", "8": "Z"}, ["7"], "unknown vertex '8'"),
    "smallest mask vertex": ({"1": "X"}, ["9", "8"], "unknown vertex '8'"),
    "letter vertex first": ({"9": "X"}, ["8"], "unknown vertex '9'"),
    "letter before vertex": ({"9": "X", "1": "W"}, ["7"], "invalid Pauli letter 'W'"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_PAIRS))
def test_malformed_pair_keeps_its_message(tmp_path, capsys, case):
    letters, mask, message = MALFORMED_PAIRS[case]
    obj = paradox.set_to_json(load_fixture_set("ghz_path3"))
    obj["pairs"][1] = {"letters": letters, "mask": mask}
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        paradox.set_from_json(obj)
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(obj))
    assert cli.main(["verify", str(path)]) == 2
    assert f"input error: {message}\n" in capsys.readouterr().err
    # The same pair from MeasurementPair.make fails at make (a bad letter)
    # or when a set on the graph takes it (an unknown vertex).
    g = load_fixture_set("ghz_path3").graph
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ig.MeasurementSet(
            graph=g, d=0, pairs=(ig.MeasurementPair.make(letters, mask),)
        )


# Letters no compile accepts: one of every JSON type.
INVALID_LETTERS = ("W", "", "XY", "x", 5, 1.5, True, None, ["X"], {"a": 1})


def _boundary_graphs(rng):
    """Random graphs with n = 0, 1, 2..12 and 600 on shuffled names (some
    of them digit strings, which int keys can name), and a 5,000-vertex
    path."""
    for n in (0, 1, *range(2, 13), 600):
        names = [str(k) if rng.random() < 0.5 else f"v{k}" for k in range(n)]
        rng.shuffle(names)
        edges = {graph.edge_key(names[i], names[rng.randrange(i)]) for i in range(1, n)}
        for _ in range(n // 3 if n > 1 else 0):
            u, v = rng.sample(names, 2)
            edges.add(graph.edge_key(u, v))
        yield graph.build_graph(sorted(edges), vertices=names)
    yield graph.build_graph([(k, k + 1) for k in range(4999)])


def _boundary_pair(rng, g):
    """Random (letters, mask) on g: identity letters on unknown vertices,
    now and then an invalid letter, an unknown vertex or an int key, and
    masks with repeated, unknown and int entries.  Some pairs mix names:
    digit-named vertices written as ints, anywhere among the string keys
    and mask entries, which the reader must read as their str()."""
    vertices = g.vertices
    chosen = rng.sample(vertices, rng.randrange(len(vertices) + 1))
    letters = {v: rng.choice("IXYZ") for v in chosen}
    mask = rng.sample(vertices, rng.randrange(len(vertices) + 1))
    mask += rng.sample(mask, rng.randrange(len(mask) + 1) // 4)
    numbers = [int(v) for v in vertices if v.isdigit()] + [9999]
    for _ in range(rng.randrange(4)):
        letters[f"u{rng.randrange(5)}"] = "I"
    if rng.random() < 0.2:
        letters[f"u{rng.randrange(5)}"] = rng.choice("XYZ")
    if rng.random() < 0.2:
        letters[rng.choice(numbers)] = rng.choice("IXYZ")
    if rng.random() < 0.15:
        key = rng.choice([*vertices, "u0"]) if vertices else "u0"
        letters[key] = rng.choice(INVALID_LETTERS)
    if rng.random() < 0.15:
        mask += rng.sample(["u1", "u2", "u3"], rng.randrange(1, 4))
    if rng.random() < 0.2:
        mask.append(rng.choice(numbers))
    if rng.random() < 0.1:
        letters = {_mixed_name(rng, v): l for v, l in letters.items()}
        mask = [_mixed_name(rng, v) for v in mask]
    rng.shuffle(mask)
    return letters, mask


def _mixed_name(rng, v):
    """A digit-string name as an int half the time; others as they are."""
    return int(v) if isinstance(v, str) and v.isdigit() and rng.random() < 0.5 else v


def _outcome(f, *args):
    try:
        return f(*args)
    except ValueError as e:
        return f"ValueError: {e}"


def _set_bits_by_shifts(obj):
    """set_from_json's pairs by the shift loops: names read with str(),
    and every letter of every pair checked before the first unknown vertex
    is named."""
    index = {v: i for i, v in enumerate(obj["graph"]["vertices"])}
    bits = []
    unknown = None
    for p in obj["pairs"]:
        letters = p["letters"]
        x, z, m, missing = compile_pair_by_shifts(
            zip(map(str, letters), letters.values()), map(str, p["mask"]), index
        )
        if unknown is None:
            unknown = missing
        bits.append((x, z, m))
    if unknown is not None:
        raise ValueError(f"unknown vertex {unknown!r}")
    return tuple(bits)


def _mask_outcome(mask, index):
    """pauli.compile_pair on a mask alone.  Unknown entries of mixed types
    make its min() raise TypeError, which set_from_json answers by reading
    the names again through str()."""
    try:
        return pauli.compile_pair((), mask, index)
    except TypeError:
        return "TypeError"


def _boundary_outcomes(cases, read_set):
    """Per case: what read_set, MeasurementPair.make plus MeasurementSet,
    pauli.to_xz and pauli.compile_pair on the mask alone give."""
    found = []
    for g, pairs in cases:
        obj = {
            "graph": graph.graph_to_json(g),
            "d": 0,
            "pairs": [{"letters": letters, "mask": mask} for letters, mask in pairs],
        }
        found.append(_outcome(read_set, obj))
        for letters, mask in pairs:
            made = lambda: ig.MeasurementSet(
                graph=g, d=0, pairs=(ig.MeasurementPair.make(letters, mask),)
            ).pair_bits
            found.append(_outcome(made))
            found.append(_outcome(pauli.to_xz, g, letters))
            found.append(_mask_outcome(mask, g.index))
    return found


def test_digit_compile_matches_the_shift_loops(monkeypatch):
    rng = random.Random(28)
    cases = []
    for g in _boundary_graphs(rng):
        for _ in range(3 if len(g.vertices) > 1000 else 12):
            cases.append((g, [_boundary_pair(rng, g) for _ in range(3)]))
    found = _boundary_outcomes(cases, lambda obj: paradox.set_from_json(obj).pair_bits)
    with monkeypatch.context() as m:
        m.setattr(pauli, "compile_pair", compile_pair_by_shifts)
        expected = _boundary_outcomes(cases, _set_bits_by_shifts)
    assert found == expected
    # Bits and both errors all occur.
    errors = [e for e in found if isinstance(e, str)]
    assert any("invalid Pauli letter" in e for e in errors)
    assert any("unknown vertex" in e for e in errors)
    assert len(errors) < len(found) // 2


def test_identity_letter_on_unknown_vertex_is_ignored():
    obj = paradox.set_to_json(load_fixture_set("ghz_path3"))
    obj["pairs"][0]["letters"]["9"] = "I"
    s = paradox.set_from_json(obj)
    assert s == load_fixture_set("ghz_path3")
    pair = ig.MeasurementPair.make({"9": "I", "1": "X"}, ["1"])
    assert pair.vertices == ("1",) and pair.letters == (("1", "X"),)


def test_non_string_vertex_is_unknown():
    g = ig.build_graph([(1, 2)])
    for letters, mask in (({1: "X"}, {1}), ({1: "X"}, {"1"}), ({"1": "X"}, {2})):
        with pytest.raises(ValueError, match="^unknown vertex [12]$"):
            ig.MeasurementSet(
                graph=g, d=0, pairs=(ig.MeasurementPair.make(letters, mask),)
            )


def test_json_lists_vertices_by_name_on_unsorted_graph():
    s = load_fixture_set("chain7")
    g = graph.Graph(vertices=s.graph.vertices[::-1], edges=s.graph.edges)
    unsorted = ig.MeasurementSet(graph=g, d=s.d, pairs=s.pairs)
    assert unsorted.pair_bits != s.pair_bits
    assert paradox.set_to_json(unsorted)["pairs"] == paradox.set_to_json(s)["pairs"]
