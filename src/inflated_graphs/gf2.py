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
form after that would cover nothing new, so it is never computed.  Each form
is a Gauss-Jordan pass over the k basis rows packed into one int, w = the
support's bit length bits per row (:func:`_systematic_forms`): a pivot clears
its bit from every other row with one shift, mask and multiply on k*w bits.
The multiply grows with w^2 once w passes about two machine words: at 600
bits and k = 40 the 16 forms take about 7 ms, 2 % of that 0.35 s search.

In form j every coset vector is the reduced target plus a subset of the
rows, and its weight on the pivots is the subset's size.  Round w visits
every w-subset of every form.  After it, each coset vector not yet seen has
weight at least w + 1 on every form's pivots, so at least
sum_j max(0, w + 1 - overlap_j) in all; the search stops once the best
weight found is at or below that bound, and at the latest after round k,
when the whole coset has been seen.  One step is one subset visited; a
round that would take the total past MAX_COSET_STEPS raises ValueError
("too large") before it starts.

Rounds 1 and up run on numpy tables of uint64 words, 64 bits of a vector to
a word (:func:`_round_minima`).  The rows of all forms become one array,
once per search; round w builds the table of the reduced targets XOR every
w-subset sum from round w-1's with one repeat and one concatenation, and
takes its least popcount.  Only the newest table is kept, and only while it
fits MAX_TABLE_WORDS words over all forms together; a deeper round walks
its leading rows in Python and scans, for each choice, the part of that
table that completes it.  Peak memory is about twice the largest table.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator

import numpy as np

# Subsets the coset search may visit.  A random 40-dimensional span reaches
# it in round 6, after visiting 3.0 M subsets (4 forms) at 120 bits in
# 0.1 s, or 12.2 M (16 forms) at 600 bits in 0.7 s: 30-60 ns per subset on a
# 2-core x86_64 machine.
MAX_COSET_STEPS = 1 << 24

# uint64 words the coset search keeps in its subset-sum tables, over all
# forms together: 16 MiB.
MAX_TABLE_WORDS = 1 << 21


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


def solve(rows: Iterable[int], rhs: Iterable[int]) -> int | None:
    """Solve rows·x = rhs over GF(2).

    Returns the solution whose free variables are all 0, or None if the
    system is inconsistent.
    """
    # Pivot column (lowest set bit) -> (row, rhs bit); the bit stays beside
    # its row, so a row is never wider than its highest column.
    echelon: dict[int, tuple[int, int]] = {}
    for row, b in zip(rows, rhs):
        while row:
            col = (row & -row).bit_length() - 1
            pivot = echelon.get(col)
            if pivot is None:
                echelon[col] = (row, b)
                break
            row ^= pivot[0]
            b ^= pivot[1]
        else:
            if b:
                return None  # reduced to 0 = 1
    # Back-substitute, higher pivots first: every other bit of a row sits
    # above its pivot, so those variables are already fixed (free ones at 0).
    solution = 0
    for col in sorted(echelon, reverse=True):
        row, b = echelon[col]
        if (b ^ (row & solution).bit_count()) & 1:
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
    minima = None
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
        if w == 0:
            # The empty subset: each form's reduced target on its own.
            for _, reduced, _ in forms:
                best = min(best, reduced.bit_count())
        else:
            # The word tables start in round 1, so a search that ends in
            # round 0 converts nothing.
            if minima is None:
                minima = _round_minima(forms)
            best = min(best, next(minima))
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
    # All k rows of a form live in one int, row i in the w-bit slot at bit
    # i*w; `ones` has bit 0 of every slot set.
    w = support.bit_length()
    mask = (1 << w) - 1
    slots = [i * w for i in range(len(basis))]
    ones = sum(1 << shift for shift in slots)
    packed = sum(row << shift for row, shift in zip(basis, slots))
    forms = []
    covered = 0
    while support & ~covered:
        free = support & ~covered
        free_bits = ones * free  # free in every slot
        m = packed
        reduced = target
        pivots = 0
        for shift in slots:
            # The rows from this slot on are independent and zero on the
            # pivots so far; prefer the first with a free (uncovered) bit,
            # swapping it into this slot.
            row = (m >> shift) & mask
            if not row & free:
                later = (m & free_bits) >> shift
                if later:
                    offset = (later & -later).bit_length() - 1
                    other = shift + offset - offset % w
                    swap = row ^ (m >> other) & mask
                    m ^= (swap << shift) ^ (swap << other)
                    row ^= swap
            low = row & free or row
            bit = low & -low
            # XOR row into every other slot holding the pivot bit; row is
            # below 2**w, so the product's terms never overlap or carry.
            m ^= (((m >> (bit.bit_length() - 1)) & ones) ^ (1 << shift)) * row
            if reduced & bit:
                reduced ^= row
            pivots |= bit
        rows = [(m >> shift) & mask for shift in slots]
        forms.append((rows, reduced, (pivots & covered).bit_count()))
        covered |= pivots
    return forms


def _round_minima(forms: list[tuple[list[int], int, int]]) -> Iterator[int]:
    """Yield, for w = 1, 2, ..., k, the least weight of reduced XOR the sum
    of some w rows, over all forms (at least one, as
    :func:`_systematic_forms` gives them).

    Level w, of shape (forms, C(k, w), words), holds reduced XOR every
    w-subset sum, ordered by first index: the subsets that start at row i
    are row i plus each (w-1)-subset that starts after i, the last
    C(k-1-i, w-1) entries of level w-1.
    """
    k = len(forms[0][0])
    width = max(
        max(max(rows), reduced).bit_length() for rows, reduced, _ in forms
    )
    n_words = max(1, -(-width // 64))

    def words(ints: list[int]) -> np.ndarray:
        data = b"".join(i.to_bytes(8 * n_words, "little") for i in ints)
        return np.frombuffer(data, "<u8").reshape(len(forms), -1, n_words)

    rows = words([row for form_rows, _, _ in forms for row in form_rows])
    level = words([reduced for _, reduced, _ in forms])
    depth = 0

    def walk(i: int, acc: np.ndarray, left: int) -> int:
        # Choose `left` more leading rows from row i on; the level's
        # subsets that start at row i or later complete them.
        if left == 0:
            tail = level[:, level.shape[1] - math.comb(k - i, depth) :]
            return np.bitwise_count(tail ^ acc).sum(axis=2).min()
        return min(
            walk(j + 1, acc ^ rows[:, j : j + 1], left - 1)
            for j in range(i, k - depth - left + 1)
        )

    for w in range(1, k + 1):
        if depth == w - 1 and (
            len(forms) * n_words * math.comb(k, w) <= MAX_TABLE_WORDS
        ):
            # Block i holds row i XOR the C(k-1-i, w-1) subsets of level
            # w-1 that start after i: the last that many of its entries.
            counts = [math.comb(k - 1 - i, w - 1) for i in range(k - w + 1)]
            size = level.shape[1]
            level = np.concatenate(
                [level[:, size - c :] for c in counts], axis=1
            )
            level ^= np.repeat(rows[:, : len(counts)], counts, axis=1)
            depth = w
            yield int(np.bitwise_count(level).sum(axis=2).min())
        else:
            yield int(walk(0, np.zeros_like(level[:, :1]), w - depth))
