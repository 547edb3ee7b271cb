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
bits and k = 40 the 15 forms that search builds take about 6.5 ms, 2 % of
its 0.33 s.

In form j every coset vector is the reduced target plus a subset of the
rows, and its weight on the pivots is the subset's size.  Round w of form j
visits its w-subsets.  Once form j has done rounds 0..w, each coset vector
not yet seen has weight at least w + 1 on its pivots, overlap_j of which an
earlier form may have counted, so at least sum_j max(0, w + 1 - overlap_j)
in all; the search stops once the best weight found is at or below that
bound, and at the latest after round k, when the whole coset has been seen.

Information sets are built lazily.  Form j adds nothing to the bound before
round overlap_j + 1, and its overlap is at least k minus the support
positions that the earlier forms left uncovered; it is built in the first
round w at which that least overlap is at most w, so a search that ends
sooner never builds it.  Its reduced target, its round 0, is visited when
it is built.  It searches the tables from round max(overlap_j, 1) on, and
there first catches up on its rounds 1..overlap_j, so that it has done
rounds 0..w-1 before its term enters the bound.  One step is one subset
actually visited, catch-up included; a round that would take the total past
MAX_COSET_STEPS raises ValueError ("too large") before it starts, and the
"m information sets" of that message counts the sets built so far.

Rounds 1 and up run on numpy tables of uint64 words, 64 bits of a vector to
a word (:class:`_Tables`).  Level w of a form holds its reduced target XOR
every w-subset sum of its rows; it is gathered from level w-1 by an index
plan that depends only on (k, w) (:func:`_plan`), cached across searches up
to PLAN_CACHE_SUBSETS entries in all.  Forms that join in one round share a
table.  Only the newest level of each table is kept, and only while the
levels, with the plan of the newest, fit MAX_TABLE_WORDS words over all
forms together; a deeper round walks its leading rows in Python and scans,
for each choice, the part of the deepest level held that completes it.
Peak memory is about twice the largest table.
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence

import numpy as np

# Subsets the coset search may visit, catch-up included.  A random
# 40-dimensional span reaches it in round 7 at 120 bits, after visiting
# 13.8 M subsets on 3 forms in 0.23 s, and in round 6 at 600 bits, after
# 11.4 M on 15 forms in 0.33 s: 16-29 ns per subset on a 2-core x86_64
# machine.
MAX_COSET_STEPS = 1 << 24

# uint64 words the coset search keeps in its subset-sum tables, over all
# forms together: 16 MiB.
MAX_TABLE_WORDS = 1 << 21

# Subsets the round plans kept across searches may hold in all (16 bytes
# each: 4 MiB); a plan that does not fit is built for its search alone.
PLAN_CACHE_SUBSETS = 1 << 18
_PLANS: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}


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


def solve(rows: Sequence[int], rhs: Sequence[int]) -> int | None:
    """Solve rows·x = rhs over GF(2).

    Returns the solution whose free variables are all 0, or None if the
    system is inconsistent.  Raises ValueError when rows and rhs have
    different lengths.
    """
    if len(rows) != len(rhs):
        raise ValueError(f"{len(rows)} rows but {len(rhs)} right-hand bits")
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
    basis = list(basis_map.values())
    k = len(basis)
    pending = _systematic_forms(basis, target)
    forms: list[tuple[list[int], int, int]] = []
    least = 0  # no form left to build has a smaller overlap
    tables = _Tables(k, max([target, *basis]).bit_length())
    best = target.bit_count()
    steps = 0
    joined = 0  # forms that search the tables
    for w in range(k + 1):
        # After rounds 0..w-1, a coset vector not yet seen has weight >= w
        # on each form's pivots, at most overlap of which an earlier form
        # already counted.  A form of overlap w or more adds nothing yet,
        # so the next one is built only once its least overlap is <= w
        # (least is k once no form is left; round k needs no new form).
        bound = sum(w - overlap for _, _, overlap in forms if overlap < w)
        if best <= bound:
            break
        built = len(forms)
        while least <= w < k:
            rows, reduced, overlap, least = next(pending)
            forms.append((rows, reduced, overlap))
        # A form of overlap o searches the tables from round max(o, 1) on;
        # there it catches up on its rounds 1..o.
        joining = [form for form in forms if max(form[2], 1) == w]
        steps += len(forms) - built + joined * math.comb(k, w)
        if joining:
            caught_up = sum(math.comb(k, v) for v in range(1, w + 1))
            steps += len(joining) * caught_up
        joined += len(joining)
        if steps > MAX_COSET_STEPS:
            raise ValueError(
                f"instance too large: coset search over a span of dimension "
                f"{k} with {len(forms)} information sets would pass its "
                f"budget of {MAX_COSET_STEPS} steps in round {w} (best weight "
                f"found {best}, lower bound reached {bound})"
            )
        for _, reduced, _ in forms[built:]:
            best = min(best, reduced.bit_count())  # the form's round 0
        if joined and best > bound:
            best = min(best, tables.search(w, joining))
    return best


def _systematic_forms(
    basis: list[int], target: int
) -> Iterator[tuple[list[int], int, int, int]]:
    """Systematic forms of span(basis) on greedily chosen information sets.

    basis must be linearly independent.  Yields (rows, reduced, overlap,
    least) per form, building each only when asked for it: row i holds the
    form's i-th pivot and no other, and reduced is the vector of target +
    span that is zero on every pivot.  A form takes its pivots outside the
    positions covered by the earlier forms wherever the span allows;
    overlap counts the pivots it could not place there.  least is k minus
    the positions of the span's support still uncovered after this form, so
    no later form has a smaller overlap.  Stops once the span has no
    position left outside the covered ones (least = k): the next form would
    put every pivot on a covered position and cover nothing new, so it is
    never computed.
    """
    k = len(basis)
    support = 0
    for row in basis:
        support |= row
    # All k rows of a form live in one int, row i in the w-bit slot at bit
    # i*w; `ones` has bit 0 of every slot set.
    w = support.bit_length()
    mask = (1 << w) - 1
    slots = [i * w for i in range(k)]
    ones = sum(1 << shift for shift in slots)
    packed = sum(row << shift for row, shift in zip(basis, slots))
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
        overlap = (pivots & covered).bit_count()
        covered |= pivots
        yield rows, reduced, overlap, k - (support & ~covered).bit_count()


def _plan(k: int, w: int) -> tuple[np.ndarray, np.ndarray]:
    """Index plan of round w over k rows: entry s of level w is entry
    src[s] of level w-1 XOR row rep[s].

    Block i of level w holds row i XOR the C(k-1-i, w-1) subsets of level
    w-1 that start after i: the last that many of its entries.  A plan is
    cached, read-only, while the cache stays within PLAN_CACHE_SUBSETS.
    """
    plan = _PLANS.get((k, w))
    if plan is None:
        counts = [math.comb(k - 1 - i, w - 1) for i in range(k - w + 1)]
        rep = np.repeat(np.arange(len(counts)), counts)
        ends = np.cumsum(counts)
        src = np.arange(len(rep)) + (math.comb(k, w - 1) - ends)[rep]
        plan = src, rep
        held = sum(len(cached) for cached, _ in _PLANS.values())
        if held + len(src) <= PLAN_CACHE_SUBSETS:
            src.flags.writeable = rep.flags.writeable = False
            _PLANS[k, w] = plan
    return plan


class _Tables:
    """Subset-sum tables of the forms that search, on uint64 words.

    Forms are held in groups [rows, level, depth]: rows has shape (forms,
    k, words), and level, of shape (forms, C(k, depth), words), holds each
    form's reduced target XOR every depth-subset sum of its rows, ordered by
    first index, so that the subsets that start at row i or later are its
    last C(k-i, depth) entries.  The forms that join in one round make one
    group.
    """

    def __init__(self, k: int, width: int) -> None:
        self.k = k
        self.n_words = max(1, -(-width // 64))
        self.groups: list[list] = []

    def search(self, w: int, joining: list[tuple[list[int], int, int]]) -> int:
        """Least weight of reduced XOR a w-subset sum over the groups, and
        over rounds 1..w of the joining forms."""
        minima = [self.advance(group, w) for group in self.groups]
        if joining:
            # Each form's rows, then its reduced target, as one array.
            ints = [i for form in joining for i in (*form[0], form[1])]
            size = 8 * self.n_words
            data = b"".join(i.to_bytes(size, "little") for i in ints)
            words = np.frombuffer(data, "<u8").reshape(
                len(joining), -1, self.n_words
            )
            new = [words[:, : self.k], words[:, self.k :], 0]
            self.groups.append(new)
            minima += [self.advance(new, v) for v in range(1, w + 1)]
        return int(min(minima))

    def advance(self, group: list, w: int) -> int:
        """Round w of one group: its level w from level w-1 when that level
        and its plan (two index words per subset) fit MAX_TABLE_WORDS beside
        the other groups' levels, otherwise a walk over the deepest level
        it holds."""
        rows, level, depth = group
        size = (level.shape[0] * self.n_words + 2) * math.comb(self.k, w)
        held = sum(other[1].size for other in self.groups) - level.size
        if depth == w - 1 and held + size <= MAX_TABLE_WORDS:
            src, rep = _plan(self.k, w)
            level = level.take(src, axis=1)
            level ^= rows.take(rep, axis=1)
            group[1:] = level, w
            return np.bitwise_count(level).sum(axis=2).min()
        start = np.zeros_like(level[:, :1])
        return self.walk(rows, level, depth, 0, start, w - depth)

    def walk(
        self,
        rows: np.ndarray,
        level: np.ndarray,
        depth: int,
        i: int,
        acc: np.ndarray,
        left: int,
    ) -> int:
        # Choose `left` more leading rows from row i on; the level's
        # subsets that start at row i or later complete them.
        if left == 0:
            tail = level[:, level.shape[1] - math.comb(self.k - i, depth) :]
            return np.bitwise_count(tail ^ acc).sum(axis=2).min()
        return min(
            self.walk(
                rows, level, depth, j + 1, acc ^ rows[:, j : j + 1], left - 1
            )
            for j in range(i, self.k - depth - left + 1)
        )
