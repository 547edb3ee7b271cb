"""GF(2) linear algebra on int bitsets.

Rows are Python ints; bit j of a row is the coefficient of variable j.

`span_min_weight` finds the minimum weight of a coset target + span(vectors)
exactly, by the Brouwer-Zimmermann information-set search (Zimmermann 1996;
Grassl, "Searching for linear codes with large minimum distance", 2006)
applied to a coset.  The span, of dimension k, is put in systematic form on
several information sets, chosen greedily so that each puts its k pivots
outside the positions covered by the earlier ones where it can; overlap_j
counts the pivots of form j that it could not.  Forms are added until the
covered positions hold the span's whole support (the OR of the basis); the
form after that would cover nothing new, so it is never computed.

In form j every coset vector is the reduced target plus a subset of the
rows, and its weight on the pivots is the subset's size.  Round w visits
every w-subset of every form.  After it, each coset vector not yet seen has
weight at least w + 1 on every form's pivots, so at least
sum_j max(0, w + 1 - overlap_j) in all; the search stops once the best
weight found is at or below that bound, and at the latest after round k,
when the whole coset has been seen.  One step is one subset visited; a
round that would take the total past MAX_COSET_STEPS raises ValueError
("too large") before it starts.
"""

from __future__ import annotations

import math

# Subsets the coset search may visit: about 3.5 s at the 0.2 us per subset
# of a 2-core x86_64 machine.
MAX_COSET_STEPS = 1 << 24


def _insert(basis: dict[int, int], vec: int) -> int:
    """Reduce vec against a top-bit-indexed basis, inserting the remainder.

    Returns the reduced vector (0 if vec was already in the span).
    """
    while vec:
        top = vec.bit_length() - 1
        if top not in basis:
            basis[top] = vec
            return vec
        vec ^= basis[top]
    return 0


def rank(rows: list[int]) -> int:
    """Rank of the row set over GF(2)."""
    basis: dict[int, int] = {}
    for row in rows:
        _insert(basis, row)
    return len(basis)


def solve(rows: list[int], rhs: list[int], n_cols: int) -> int | None:
    """Solve rows·x = rhs over GF(2).

    Returns the solution whose free variables are all 0, or None if the
    system is inconsistent.
    """
    # Augment each row with its rhs bit at position n_cols.
    col_mask = (1 << n_cols) - 1
    echelon: dict[int, int] = {}  # pivot column (lowest set bit) -> row
    for row, b in zip(rows, rhs):
        row |= b << n_cols
        while row & col_mask:
            # The rhs bit sits above every column, so the row's lowest bit
            # is its lowest column.
            col = (row & -row).bit_length() - 1
            pivot = echelon.get(col)
            if pivot is None:
                echelon[col] = row
                row = 0
            else:
                row ^= pivot
        if row:
            return None  # reduced to 0 = 1
    # Back-substitute, higher pivots first: every other bit of a row sits
    # above its pivot, so those variables are already fixed (free ones at 0).
    solution = 0
    for col in sorted(echelon, reverse=True):
        row = echelon[col]
        if ((row >> n_cols) ^ (row & solution).bit_count()) & 1:
            solution |= 1 << col
    return solution


def span_min_weight(vectors: list[int], target: int) -> int:
    """Minimum Hamming weight of target XOR v over the span of vectors.

    Exact coset search on the greedy information sets of the span (see the
    module docstring).  Raises ValueError, naming the search state, before
    a round that would take it past MAX_COSET_STEPS.
    """
    basis_map: dict[int, int] = {}
    for vec in vectors:
        _insert(basis_map, vec)
    k = len(basis_map)
    forms = _systematic_forms(list(basis_map.values()), target)
    best = target.bit_count()
    steps = 0
    pair_sums: list[list[int] | None] = [None] * len(forms)
    for w in range(k + 1):
        # After rounds 0..w-1, a coset vector not yet seen has weight >= w
        # on each form's pivots, at most overlap of which an earlier form
        # already counted.
        bound = sum(max(0, w - overlap) for *_, overlap in forms)
        if best <= bound:
            break
        steps += len(forms) * math.comb(k, w)
        if steps > MAX_COSET_STEPS:
            raise ValueError(
                f"instance too large: coset search over a span of dimension "
                f"{k} with {len(forms)} information sets would pass its "
                f"budget of {MAX_COSET_STEPS} steps in round {w} (best weight "
                f"found {best}, lower bound reached {bound})"
            )
        if w == 2:
            pair_sums = [_pair_sums(rows) for rows, _, _ in forms]
        for (rows, reduced, _), pairs in zip(forms, pair_sums):
            best = min(best, _min_subset_weight(rows, pairs, reduced, w))
    return best


def _systematic_forms(
    basis: list[int], target: int
) -> list[tuple[list[int], int, int]]:
    """Systematic forms of span(basis) on greedily chosen information sets.

    basis must be linearly independent.  Each form is (rows, reduced,
    overlap): row i holds the form's i-th pivot and no other, and reduced
    is the vector of target + span that is zero on every pivot.  A form
    takes its pivots outside the positions covered by the earlier forms
    wherever the span allows; overlap counts the pivots it could not place
    there.  Stops once the span has no position left outside the covered
    ones: the next form would put every pivot on a covered position and
    cover nothing new, so it is never computed.
    """
    support = 0
    for row in basis:
        support |= row
    forms = []
    covered = 0
    k = len(basis)
    while support & ~covered:
        free = ~covered
        rows = list(basis)
        reduced = target
        pivots = 0
        for i in range(k):
            # The rows from i on are independent and zero on the pivots so
            # far; prefer the first with a free (uncovered) bit.
            j = i
            while j < k and not rows[j] & free:
                j += 1
            if j == k:
                j = i
            row = rows[j]
            rows[j] = rows[i]
            low = row & free or row
            bit = low & -low
            rows = [r ^ row if r & bit else r for r in rows]
            rows[i] = row
            if reduced & bit:
                reduced ^= row
            pivots |= bit
        forms.append((rows, reduced, (pivots & covered).bit_count()))
        covered |= pivots
    return forms


def _pair_sums(rows: list[int]) -> list[int]:
    """rows[i] ^ rows[j] for all i < j, by i then j: the
    i * (2k - i - 1) / 2 pairs that use a row before rows[i] come first."""
    k = len(rows)
    return [rows[i] ^ rows[j] for i in range(k) for j in range(i + 1, k)]


def _min_subset_weight(
    rows: list[int], pairs: list[int] | None, start: int, w: int
) -> int:
    """Smallest weight of start XOR the sum of some w of the rows.

    Depth first with a running XOR; the last two levels scan pairs, the
    rows' :func:`_pair_sums` (needed only for w >= 2).
    """
    if w == 0:
        return start.bit_count()
    if w == 1:
        return min(map(int.bit_count, map(start.__xor__, rows)))
    k = len(rows)

    def walk(i: int, acc: int, left: int) -> int:
        if left == 2:
            tail = pairs[i * (2 * k - i - 1) // 2 :]
            return min(map(int.bit_count, map(acc.__xor__, tail)))
        return min(
            walk(j + 1, acc ^ rows[j], left - 1) for j in range(i, k - left + 1)
        )

    return walk(0, start, w)
