import functools
import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inflated_graphs import MeasurementPair, MeasurementSet, gf2, lhv, pauli

from conftest import random_connected_graph


def brute_force_solvable(rows, rhs, n_cols):
    for bits in range(1 << n_cols):
        if all(
            ((row & bits).bit_count() & 1) == b for row, b in zip(rows, rhs)
        ):
            return True
    return False


def brute_force_min_weight(vectors, target):
    best = target.bit_count()
    for combo in range(1 << len(vectors)):
        acc = target
        for i, vec in enumerate(vectors):
            if (combo >> i) & 1:
                acc ^= vec
        best = min(best, acc.bit_count())
    return best


def test_rank_simple():
    assert gf2.rank([]) == 0
    assert gf2.rank([0b1, 0b10, 0b11]) == 2
    assert gf2.rank([0b111, 0b111]) == 1


def test_solve_inconsistent():
    # x1 = 0 and x1 = 1 simultaneously
    assert gf2.solve([0b1, 0b1], [0, 1]) is None


@pytest.mark.parametrize(
    "rows, rhs", [([1, 1], [0]), ([1], [0, 1]), ([1, 1, 1], [0, 1])]
)
def test_solve_refuses_rows_and_rhs_of_different_lengths(rows, rhs):
    # Zipped without a length check, a short rhs would solve only a prefix
    # of the rows: [1, 1] with [0] would return 0.  The lengths are checked
    # before any row is reduced, so [1, 1, 1] with [0, 1] does not return
    # None at its second row, which reduces to 0 = 1.
    with pytest.raises(ValueError):
        gf2.solve(rows, rhs)


def test_solve_particular_and_nullspace_satisfy():
    rng = random.Random(7)
    for _ in range(200):
        n_cols = rng.randrange(1, 9)
        n_rows = rng.randrange(0, 9)
        rows = [rng.randrange(1 << n_cols) for _ in range(n_rows)]
        rhs = [rng.randrange(2) for _ in range(n_rows)]
        x = gf2.solve(rows, rhs)
        assert (x is not None) == brute_force_solvable(rows, rhs, n_cols)
        if x is None:
            continue
        for row, b in zip(rows, rhs):
            assert ((row & x).bit_count() & 1) == b


def full_rref_solve(rows, rhs, n_cols):
    """Test-local copy of the solve that one-pass back-substitution
    replaced: forward elimination, then full reduction of every row."""
    col_mask = (1 << n_cols) - 1
    echelon = {}
    for row, b in zip(rows, rhs):
        row |= b << n_cols
        while row & col_mask:
            col = ((row & col_mask) & -(row & col_mask)).bit_length() - 1
            if col in echelon:
                row ^= echelon[col]
            else:
                echelon[col] = row
                row = 0
        if row:
            return None
    for col in sorted(echelon, reverse=True):
        row = echelon[col]
        for other in echelon:
            if other != col and (echelon[other] >> col) & 1:
                echelon[other] ^= row
    solution = 0
    for col, row in echelon.items():
        if (row >> n_cols) & 1:
            solution |= 1 << col
    return solution


def test_solve_matches_full_reduction():
    # Consistent systems (rhs taken from a planted solution) and random
    # ones, with zero rows and repeated rows mixed in; wide systems too.
    rng = random.Random(3)
    outcomes = set()
    for trial in range(600):
        n_cols = rng.randrange(1, 12) if trial < 500 else rng.randrange(60, 200)
        n_rows = rng.randrange(0, 2 * n_cols + 3)
        rows = [rng.getrandbits(n_cols) for _ in range(n_rows)]
        if rows and rng.random() < 0.5:
            rows += [0] * rng.randrange(1, 4)
        if rows and rng.random() < 0.5:
            rows += rng.choices(rows, k=rng.randrange(1, 4))
        rng.shuffle(rows)
        if rng.random() < 0.5:
            planted = rng.getrandbits(n_cols)
            rhs = [(row & planted).bit_count() & 1 for row in rows]
        else:
            rhs = [rng.randrange(2) for _ in rows]
        got = gf2.solve(rows, rhs)
        assert got == full_rref_solve(rows, rhs, n_cols)
        outcomes.add(got is None)
    assert outcomes == {True, False}


def test_span_min_weight_matches_brute_force():
    rng = random.Random(11)
    for _ in range(100):
        width = rng.randrange(1, 10)
        k = rng.randrange(0, 7)
        vectors = [rng.randrange(1 << width) for _ in range(k)]
        target = rng.randrange(1 << width)
        assert gf2.span_min_weight(vectors, target) == brute_force_min_weight(
            vectors, target
        )


def test_span_min_weight_budget_names_search_state():
    # A random 200-row, rank-100 coset: the search refuses the round that
    # would take it past MAX_COSET_STEPS and says how far it got.
    rng = random.Random(1)
    vectors = [rng.getrandbits(200) for _ in range(100)]
    assert gf2.rank(vectors) == 100
    with pytest.raises(
        ValueError,
        match=(
            r"too large: coset search over a span of dimension 100 with 2 "
            r"information sets would pass its budget of 16777216 steps in "
            r"round 5 \(best weight found 28, lower bound reached 9\)"
        ),
    ):
        gf2.span_min_weight(vectors, rng.getrandbits(200))


@pytest.mark.parametrize("budget, passes", [(44, True), (43, False)])
def test_span_min_weight_budget_is_checked_before_each_round(
    monkeypatch, budget, passes
):
    # v_i = e_i + e_{6+i} and target e_0 + ... + e_5: every coset vector has
    # weight 6.  Two disjoint information sets reach the bound 2w at w = 3,
    # after rounds 0, 1 and 2, which cost 2 * (1 + 6 + 15) = 44 steps.
    vectors = [(1 << i) | (1 << (6 + i)) for i in range(6)]
    monkeypatch.setattr(gf2, "MAX_COSET_STEPS", budget)
    if passes:
        assert gf2.span_min_weight(vectors, 0b111111) == 6
    else:
        with pytest.raises(
            ValueError,
            match=r"round 2 \(best weight found 6, lower bound reached 4\)",
        ):
            gf2.span_min_weight(vectors, 0b111111)


def walk_min_weight(vectors, target):
    """Test-local copy of the coset search as it was before the word
    tables: the same forms and rounds, each round walking the w-subsets of
    a form depth first on Python ints, the last two levels over a table of
    pair sums (no step budget)."""
    basis = {}
    for vec in vectors:
        gf2._insert(basis, vec)
    k = len(basis)
    forms = [form[:3] for form in gf2._systematic_forms(list(basis.values()), target)]
    pair_sums = [
        [rows[i] ^ rows[j] for i in range(k) for j in range(i + 1, k)]
        for rows, _, _ in forms
    ]
    best = target.bit_count()
    for w in range(k + 1):
        if best <= sum(max(0, w - overlap) for *_, overlap in forms):
            break
        for (rows, reduced, _), pairs in zip(forms, pair_sums):
            best = min(best, walk_subset_weight(rows, pairs, reduced, w))
    return best


def walk_subset_weight(rows, pairs, start, w):
    if w == 0:
        return start.bit_count()
    if w == 1:
        return min(map(int.bit_count, map(start.__xor__, rows)))
    k = len(rows)

    def walk(i, acc, left):
        if left == 2:
            tail = pairs[i * (2 * k - i - 1) // 2 :]
            return min(map(int.bit_count, map(acc.__xor__, tail)))
        return min(
            walk(j + 1, acc ^ rows[j], left - 1) for j in range(i, k - left + 1)
        )

    return walk(0, start, w)


def coset_cases(rng, width, k):
    """Cosets of k vectors of the given width: random, with a zero target,
    with a target in the span, with dependent and duplicate vectors, and
    with sparse vectors (small minima, so the search runs more rounds)."""
    vectors = [rng.getrandbits(width) for _ in range(k)]
    in_span = 0
    for vec in vectors:
        if rng.getrandbits(1):
            in_span ^= vec
    dependent = list(vectors)
    if k >= 2:
        dependent[-1] = dependent[0] ^ dependent[1]
        dependent[k // 2] = dependent[0]
        dependent[1] = 0
    sparse = [
        sum(1 << rng.randrange(width) for _ in range(3)) for _ in range(k)
    ]
    return [
        (vectors, rng.getrandbits(width)),
        (vectors, 0),
        (vectors, in_span),
        (dependent, rng.getrandbits(width)),
        (sparse, sum(1 << rng.randrange(width) for _ in range(5))),
    ]


def test_span_min_weight_matches_subset_walk(monkeypatch):
    # Word tables of every width (64 bits to a word) against the walk they
    # replace.  A small or zero word budget sends the deeper rounds (all of
    # them at 0) through the walk over the deepest table that fits.
    rng = random.Random(18)
    cases = [
        (width, k, vectors, target)
        for width in (1, 63, 64, 65, 130, 600)
        for k in range(17)
        for vectors, target in coset_cases(rng, width, k)
    ]
    for width, k, vectors, target in cases:
        expected = walk_min_weight(vectors, target)
        for table_words in (1 << 21, 40, 0):
            monkeypatch.setattr(gf2, "MAX_TABLE_WORDS", table_words)
            got = gf2.span_min_weight(vectors, target)
            assert got == expected, (width, k, table_words)


def eager_min_weight(vectors, target):
    """Test-local copy of the coset search as it was before its information
    sets became lazy: every form is built before round 0 and searches every
    round, on one word table over all forms (no step budget, no table cap,
    so no walk)."""
    basis = {}
    for vec in vectors:
        gf2._insert(basis, vec)
    k = len(basis)
    forms = [form[:3] for form in gf2._systematic_forms(list(basis.values()), target)]
    best = target.bit_count()
    minima = None
    for w in range(k + 1):
        if best <= sum(max(0, w - overlap) for *_, overlap in forms):
            break
        if w == 0:
            for _, reduced, _ in forms:
                best = min(best, reduced.bit_count())
        else:
            if minima is None:
                minima = eager_round_minima(forms)
            best = min(best, next(minima))
    return best


def eager_round_minima(forms):
    k = len(forms[0][0])
    width = max(max(max(rows), reduced).bit_length() for rows, reduced, _ in forms)
    n_words = max(1, -(-width // 64))

    def words(ints):
        data = b"".join(i.to_bytes(8 * n_words, "little") for i in ints)
        return np.frombuffer(data, "<u8").reshape(len(forms), -1, n_words)

    rows = words([row for form_rows, _, _ in forms for row in form_rows])
    level = words([reduced for _, reduced, _ in forms])
    for w in range(1, k + 1):
        counts = [math.comb(k - 1 - i, w - 1) for i in range(k - w + 1)]
        size = level.shape[1]
        level = np.concatenate([level[:, size - c :] for c in counts], axis=1)
        level ^= np.repeat(rows[:, : len(counts)], counts, axis=1)
        yield int(np.bitwise_count(level).sum(axis=2).min())


def bell_bound_cosets(rng, count):
    """Cosets of strategy systems shaped like the benchmark's bell_bound
    jobs: 30-44 distinct stabilizer elements of a random connected graph on
    9-11 vertices, each measured on every vertex (spans up to 21)."""
    cases = []
    for _ in range(count):
        g = random_connected_graph(rng, rng.randrange(9, 12))
        n = len(g.vertices)
        pairs = []
        for i, bits in enumerate(rng.sample(range(1, 1 << n), rng.randint(30, 44))):
            subset = frozenset(v for j, v in enumerate(g.vertices) if bits >> j & 1)
            letters, _ = pauli.subset_to_pauli(g, subset)
            pairs.append(
                MeasurementPair.make(letters, frozenset(g.vertices), name=f"S{i}")
            )
        system = lhv.build_system(MeasurementSet(graph=g, d=0, pairs=tuple(pairs)))
        columns = [
            sum(1 << i for i, row in enumerate(system.rows) if row >> j & 1)
            for j in range(system.n_variables)
        ]
        cases.append((columns, sum(b << i for i, b in enumerate(system.rhs))))
    return cases


def test_lazy_search_matches_eager_search(monkeypatch):
    # Random cosets at widths around one and two 64-bit words, and systems
    # shaped like the benchmark's, each with the tables capped at 2^21, 40
    # and 0 words, so that deeper rounds (all of them at 0) walk.
    rng = random.Random(27)
    cases = [
        (vectors, target)
        for width in (1, 63, 64, 65, 130)
        for k in range(17)
        for vectors, target in coset_cases(rng, width, k)
    ]
    cases += bell_bound_cosets(rng, 40)

    # Record, per search, the forms built and the forms that join the
    # tables in each round, so that the test can check that every built form
    # of overlap o joins in round max(o, 1) if the search gets there, and
    # show what it covered.  On spans of dimension 13 or less, each round's
    # minimum is also checked against an enumeration of the subsets it
    # covers: w rows of the forms that joined before, 1..w rows of those
    # that join in it.
    built, late, joined, members, searched = [], set(), {}, [], []
    seen = {"no form": 0, "late catch-up": 0, "walk": 0}
    forms, search, walk = gf2._systematic_forms, gf2._Tables.search, gf2._Tables.walk

    def spy_forms(basis, target):
        least = 0
        for form in forms(basis, target):
            built.append(form)
            if least >= 2:  # built after round 1
                late.add(id(form[0]))
            least = form[3]
            yield form

    def least_weight(form, sizes):
        rows, reduced, _ = form
        return min(
            functools.reduce(int.__xor__, subset, reduced).bit_count()
            for size in sizes
            for subset in itertools.combinations(rows, size)
        )

    def spy_search(self, w, joining):
        for rows, _, _ in joining:
            joined[id(rows)] = w
            seen["late catch-up"] += id(rows) in late
        searched.append(w)
        got = search(self, w, joining)
        if self.k <= 13:
            expected = min(
                [least_weight(form, [w]) for form in members]
                + [least_weight(form, range(1, w + 1)) for form in joining]
            )
            assert got == expected, (w, len(members), len(joining))
        members.extend(joining)
        return got

    def spy_walk(self, *args):
        seen["walk"] += 1
        return walk(self, *args)

    monkeypatch.setattr(gf2, "_systematic_forms", spy_forms)
    monkeypatch.setattr(gf2._Tables, "search", spy_search)
    monkeypatch.setattr(gf2._Tables, "walk", spy_walk)
    for vectors, target in cases:
        expected = eager_min_weight(vectors, target)
        for table_words in (1 << 21, 40, 0):
            monkeypatch.setattr(gf2, "MAX_TABLE_WORDS", table_words)
            built.clear()
            late.clear()
            joined.clear()
            members.clear()
            searched.clear()
            assert gf2.span_min_weight(vectors, target) == expected
            last = max(searched, default=0)
            for rows, _, overlap, _ in built:
                start = max(overlap, 1)
                assert joined.get(id(rows)) == (start if start <= last else None)
            seen["no form"] += not built
    assert all(seen.values()), seen


def test_span_min_weight_wide_search_stays_within_its_tables():
    # A random 600-bit, rank-40 coset runs out of steps in round 6, after
    # rounds 0-5 over 16 information sets; uncapped, the tables of round 5
    # alone would take 16 * C(40, 5) * 10 words, 842 MB.
    rng = random.Random(1)
    vectors = [rng.getrandbits(600) for _ in range(40)]
    target = rng.getrandbits(600)
    tracemalloc.start()
    try:
        with pytest.raises(
            ValueError,
            match=(
                r"too large: coset search over a span of dimension 40 with 15 "
                r"information sets would pass its budget of 16777216 steps in "
                r"round 6 \(best weight found 226, lower bound reached 89\)"
            ),
        ):
            gf2.span_min_weight(vectors, target)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 48 << 20, peak


def test_round_plan_cache_stays_within_its_cap(monkeypatch):
    # Searches over spans of dimension up to 100 ask for plans of up to
    # C(100, 3) subsets, more than the cache may keep in all; it keeps what
    # fits, read-only, and the searches build the rest for themselves.
    monkeypatch.setattr(gf2, "_PLANS", {})
    plan, asked = gf2._plan, set()

    def spy_plan(k, w):
        asked.add((k, w))
        return plan(k, w)

    monkeypatch.setattr(gf2, "_plan", spy_plan)
    rng = random.Random(4)
    for k in (5, 20, 40, 60, 80, 90, 100):
        vectors = [rng.getrandbits(2 * k) for _ in range(k)]
        try:
            gf2.span_min_weight(vectors, rng.getrandbits(2 * k))
        except ValueError as exc:  # spans of 60 or more pass the step budget
            assert "too large" in str(exc)
        held = sum(len(src) for src, _ in gf2._PLANS.values())
        assert held <= gf2.PLAN_CACHE_SUBSETS
    assert sum(math.comb(k, w) for k, w in asked) > gf2.PLAN_CACHE_SUBSETS
    assert max(k for k, _ in gf2._PLANS) == 100
    for src, rep in gf2._PLANS.values():
        assert not src.flags.writeable and not rep.flags.writeable


def gauss_jordan_forms(basis, target):
    """Test-local copy of the systematic forms as built before the stopping
    rule moved ahead of the elimination: full Gauss-Jordan passes, each
    pivot found by its index, until a form covers no new position (that
    last form is computed and discarded)."""
    forms = []
    covered = 0
    while True:
        rows = list(basis)
        reduced = target
        pivots = 0
        for i in range(len(rows)):
            j = next((j for j in range(i, len(rows)) if rows[j] & ~covered), i)
            rows[i], rows[j] = rows[j], rows[i]
            low = rows[i] & ~covered or rows[i]
            p = (low & -low).bit_length() - 1
            for r in range(len(rows)):
                if r != i and (rows[r] >> p) & 1:
                    rows[r] ^= rows[i]
            if (reduced >> p) & 1:
                reduced ^= rows[i]
            pivots |= 1 << p
        overlap = (pivots & covered).bit_count()
        if overlap == len(rows):
            return forms
        forms.append((rows, reduced, overlap))
        covered |= pivots


def random_basis(rng, width, k):
    """k independent vectors of the given width (k <= width)."""
    basis = []
    while len(basis) < k:
        vec = rng.getrandbits(width)
        if gf2.rank(basis + [vec]) > len(basis):
            basis.append(vec)
    return basis


def test_systematic_forms_match_gauss_jordan():
    rng = random.Random(12)
    cases = [([], 0), ([], 0b1011), ([0b100], 0b110), ([1 << 70], 1 << 3)]
    for trial in range(1200):
        if trial < 900:  # narrow, every fourth of full rank
            width = rng.randrange(1, 12)
            k = width if trial % 4 == 0 else rng.randrange(0, width + 1)
        else:  # wide
            width = rng.randrange(40, 160)
            k = rng.randrange(0, 25)
        cases.append((random_basis(rng, width, k), rng.getrandbits(width)))
    # Slot widths (the basis support's bit length) at and past one and two
    # 64-bit words, k up to 40, and targets wider than the support.
    for width in (1, 63, 64, 65, 130):
        for k in sorted({1, min(width, 17), min(width, 40)}):
            # One vector holds the top bit, so the slots are width bits.
            top = 1 << (width - 1) | rng.getrandbits(width - 1)
            basis = random_basis(rng, width - 1, k - 1) + [top]
            rng.shuffle(basis)
            cases.append((basis, rng.getrandbits(width)))
            cases.append((basis, rng.getrandbits(width + 70)))
    # Bases with support of size k, which the first form covers.
    first_covers = []
    for k in (1, 2, 5, 9):
        shift = rng.randrange(0, 30)
        basis = [vec << shift for vec in random_basis(rng, k, k)]
        first_covers.append((basis, rng.getrandbits(k + 40)))
    form_counts = set()
    for basis, target in cases + first_covers:
        forms = list(gf2._systematic_forms(basis, target))
        assert [form[:3] for form in forms] == gauss_jordan_forms(basis, target)
        form_counts.add(len(forms))
        # least bounds the next form's overlap from below, and is k after
        # the last form.
        for (*_, least), (_, _, overlap, _) in zip(forms, forms[1:]):
            assert least <= overlap
        assert [least for *_, least in forms[-1:]] in ([], [len(basis)])
        for rows, reduced, overlap, _ in forms:
            # Row i holds a pivot bit that no other row holds and on which
            # reduced is zero; reduced stays in target + span.
            for i, row in enumerate(rows):
                others = 0
                for r, other in enumerate(rows):
                    if r != i:
                        others |= other
                assert row & ~others & ~reduced
            assert len(rows) == gf2.rank(rows) == len(basis)
            assert gf2.rank(basis + [reduced ^ target]) == len(basis)
            assert 0 <= overlap < len(rows)
    assert set(range(5)) <= form_counts  # 0, 1, 2, 3 and 4 forms all occur
    assert all(len(list(gf2._systematic_forms(*case))) == 1 for case in first_covers)


@given(
    st.lists(st.integers(min_value=0, max_value=255), max_size=8),
    st.integers(min_value=0, max_value=255),
)
@settings(max_examples=200, deadline=None)
def test_residue_membership_property(rows, vec):
    # A vector is in the span iff adding it does not raise the rank.
    in_span = gf2.span_min_weight(rows, vec) == 0
    assert in_span == (gf2.rank(rows + [vec]) == gf2.rank(rows))


@given(st.lists(st.integers(min_value=0, max_value=1023), max_size=10))
@settings(max_examples=100, deadline=None)
def test_rank_bounds(rows):
    r = gf2.rank(rows)
    assert 0 <= r <= min(len(rows), 10)
    assert gf2.rank(rows + rows) == r
