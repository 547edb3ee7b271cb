"""GF(2) linear algebra on int bitsets.

Rows are Python ints; bit j of a row is the coefficient of variable j.
"""

from __future__ import annotations


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


def solve_with_nullspace(
    rows: list[int], rhs: list[int], n_cols: int
) -> tuple[int, list[int]] | None:
    """Solve rows·x = rhs over GF(2).

    Returns (particular solution, nullspace basis) or None if inconsistent.
    """
    # Augment each row with its rhs bit at position n_cols.
    col_mask = (1 << n_cols) - 1
    echelon: dict[int, int] = {}  # pivot column (lowest set bit) -> row
    for row, b in zip(rows, rhs):
        row |= b << n_cols
        while row & col_mask:
            col = _lowest_set_bit(row & col_mask)
            if col in echelon:
                row ^= echelon[col]
            else:
                echelon[col] = row
                row = 0
        if row:
            return None  # reduced to 0 = 1
    # Back-substitute to fully reduced form (higher pivots first; every
    # non-pivot bit of a row sits above its own pivot column).
    for col in sorted(echelon, reverse=True):
        row = echelon[col]
        for other in echelon:
            if other != col and (echelon[other] >> col) & 1:
                echelon[other] ^= row
    particular = 0
    for col, row in echelon.items():
        if (row >> n_cols) & 1:
            particular |= 1 << col
    null_basis = []
    for col in range(n_cols):
        if col in echelon:
            continue
        vec = 1 << col
        for pivot, row in echelon.items():
            if (row >> col) & 1:
                vec |= 1 << pivot
        null_basis.append(vec)
    return particular, null_basis


def span_min_weight(vectors: list[int], target: int, cap: int = 30) -> int:
    """Minimum Hamming weight of target XOR v over the span of vectors.

    Raises ValueError if the span dimension exceeds cap.
    """
    basis_map: dict[int, int] = {}
    for vec in vectors:
        _insert(basis_map, vec)
    basis = sorted(basis_map.values(), reverse=True)
    if len(basis) > cap:
        raise ValueError(
            f"instance too large: span dimension {len(basis)} exceeds cap {cap}"
        )
    best = target.bit_count()
    current = target
    # Gray-code walk over the span: one basis XOR per step.
    for i in range(1, 1 << len(basis)):
        current ^= basis[_lowest_set_bit(i)]
        weight = current.bit_count()
        if weight < best:
            best = weight
    return best


def _lowest_set_bit(x: int) -> int:
    return (x & -x).bit_length() - 1
