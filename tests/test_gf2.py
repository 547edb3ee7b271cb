import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inflated_graphs import gf2


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
    assert gf2.solve_with_nullspace([0b1, 0b1], [0, 1], 1) is None


def test_solve_particular_and_nullspace_satisfy():
    rng = random.Random(7)
    for _ in range(200):
        n_cols = rng.randrange(1, 9)
        n_rows = rng.randrange(0, 9)
        rows = [rng.randrange(1 << n_cols) for _ in range(n_rows)]
        rhs = [rng.randrange(2) for _ in range(n_rows)]
        sol = gf2.solve_with_nullspace(rows, rhs, n_cols)
        assert (sol is not None) == brute_force_solvable(rows, rhs, n_cols)
        if sol is None:
            continue
        x, null_basis = sol
        for row, b in zip(rows, rhs):
            assert ((row & x).bit_count() & 1) == b
        for vec in null_basis:
            for row in rows:
                assert ((row & vec).bit_count() & 1) == 0
        # nullspace dimension matches rank-nullity
        assert len(null_basis) == n_cols - gf2.rank(rows)


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


def test_span_min_weight_cap():
    vectors = [1 << i for i in range(5)]
    with pytest.raises(ValueError, match="too large"):
        gf2.span_min_weight(vectors, 0, cap=4)
    assert gf2.span_min_weight(vectors, 0b10101, cap=5) == 0


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
