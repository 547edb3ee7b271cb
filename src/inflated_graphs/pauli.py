"""Signed Pauli-product algebra and graph-state stabilizer machinery.

A Pauli string has two forms.  At the boundary (JSON files,
``MeasurementPair.make``, the statevector oracle) it is a letter dict
``{vertex: letter}``; a vertex absent from the dict carries the identity.
For arithmetic and storage (measurement pairs keep only their bits) it is a
triple (x, z, phase) of ints over ``g.index``: a letter is a pair of bits
(x, z) with X = (1, 0), Z = (0, 1) and Y = (1, 1) = i X Z, and the string is
i**phase times the tensor product of its letters, with phase exact mod 4.
:func:`compile_pair` is the only writer from names to bits: it turns letters
and a mask of vertices into (x, z, m), writing each vertex as a binary digit
and reading each mask with one ``int(digits, 2)``; :func:`to_xz`,
:func:`subset_to_pauli` and every measurement pair go through it.  The
readers are :func:`letters_of`, which turns bits back into letters, and
:func:`graph.members`, which turns a mask back into vertices.  This module
holds the only letter tables.

The stabilizer element of a graph state generated by a vertex subset S (the
product of the generators X_v Z_N(v) over v in S) has x = S and z = the
neighbourhood parity of S, and its sign is (-1)**(|E(S)| - #Y/2), where E(S)
are the edges inside S and #Y counts the vertices with x = z = 1 (Hein,
Eisert & Briegel 2004).  :func:`_stabilizer` is the one place this rule
lives.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from .graph import Graph

LETTERS = ("I", "X", "Y", "Z")  # indexed by (x ^ z) + 2 z
_NON_IDENTITY = ("X", "Y", "Z")
_LETTER_OF_DIGITS = {"1": {"0": "X", "1": "Y"}, "0": {"1": "Z"}}


def multiply(
    a: tuple[int, int, int], b: tuple[int, int, int]
) -> tuple[int, int, int]:
    """Product of two (x, z, phase) triples with exact phase tracking.

    Per vertex, (x1, z1)(x2, z2) = i**(y1 + y2 - y + 2 z1 x2) (x1^x2, z1^z2),
    where y = x & z counts the i of a Y: moving Z**z1 past X**x2 costs
    (-1)**(z1 x2) (Aaronson & Gottesman 2004).  Summed over the vertices this
    is one popcount per term.
    """
    x1, z1, p1 = a
    x2, z2, p2 = b
    x, z = x1 ^ x2, z1 ^ z2
    phase = (
        p1
        + p2
        + (x1 & z1).bit_count()
        + (x2 & z2).bit_count()
        - (x & z).bit_count()
        + 2 * (z1 & x2).bit_count()
    )
    return x, z, phase % 4


def _stabilizer(g: Graph, x: int) -> tuple[int, bool]:
    """The stabilizer element generated by the vertex bitmask x.

    Bitmasks run over ``g.index``.  Returns (z, negative): z is the
    neighbourhood parity of x, and the element equals minus the letters
    (x, z) exactly when negative is True.
    """
    adjacency = g.adjacency
    z = 0
    inner = 0  # twice the number of edges inside x
    rest = x
    while rest:
        low = rest & -rest
        nbrs = adjacency[low.bit_length() - 1]
        z ^= nbrs
        inner += (nbrs & x).bit_count()
        rest ^= low
    return z, bool((inner // 2 + (x & z).bit_count() // 2) & 1)


def compile_pair(
    letters: Iterable[tuple[str, str]], mask: Iterable[str], index: Mapping[str, int]
) -> tuple[int, int, int, str | None]:
    """(x, z, m) bitmasks over ``index`` of letter items (vertex, letter)
    and a mask of vertices, plus the vertex an "unknown vertex" error names,
    or None when every vertex is in ``index``.

    Every letter is checked first, so an invalid letter raises ValueError
    ahead of any unknown vertex, and an identity letter's vertex is never
    looked up.  The vertex named is the smallest unknown letter vertex (by
    ``str``), else the smallest unknown mask vertex; the mask is not read
    when a letter vertex is unknown.

    This is the one place names become bits.  Each letter or mask entry
    writes a "1" into a string of binary digits, most significant first:
    vertex i is digit n - i, after a leading "0" that keeps an empty
    index's string readable.  One ``int(digits, 2)`` per mask reads them.
    """
    n = len(index)
    xs = bytearray(b"0") * (n + 1)
    zs = bytearray(xs)
    unknown = []
    for v, l in letters:
        if l == "I":
            continue
        try:
            i = n - index[v]
        except KeyError:
            # Tuple membership compares by equality, so an unhashable
            # letter is rejected with ValueError rather than TypeError.
            if l not in _NON_IDENTITY:
                raise ValueError(f"invalid Pauli letter {l!r}") from None
            unknown.append(v)
            continue
        if l == "X":
            xs[i] = 49  # b"1"
        elif l == "Z":
            zs[i] = 49
        elif l == "Y":
            xs[i] = zs[i] = 49
        else:
            raise ValueError(f"invalid Pauli letter {l!r}")
    if unknown:
        # Graph vertices are strings; key=str orders keys of other types too.
        return int(xs, 2), int(zs, 2), 0, min(unknown, key=str)
    ms = bytearray(b"0") * (n + 1)
    missing = []
    for v in mask:
        try:
            ms[n - index[v]] = 49
        except KeyError:
            missing.append(v)
    # Unkeyed: unknown entries of mixed types raise TypeError, which
    # set_from_json answers by reading the pair again through str().
    return int(xs, 2), int(zs, 2), int(ms, 2), min(missing) if missing else None


def to_xz(g: Graph, letters: Mapping[str, str]) -> tuple[int, int]:
    """Bitmasks of a letter assignment over ``g.index``; ValueError names
    an invalid letter, else the smallest unknown vertex of a non-identity
    letter."""
    x, z, _, unknown = compile_pair(letters.items(), (), g.index)
    if unknown is not None:
        raise ValueError(f"unknown vertex {unknown!r}")
    return x, z


def letters_of(vertices: Sequence[str], x: int, z: int) -> dict[str, str]:
    """Letter assignment of bitmasks over a vertex tuple (bit i is
    vertices[i]), identity omitted, in that order; over ``g.vertices`` it
    is the inverse of :func:`to_xz`."""
    # One binary digit string per mask, lowest index first: walking strings
    # beats shifting wide ints once per vertex.
    n = len(vertices)
    xs = format(x, f"0{n}b")[::-1]
    zs = format(z, f"0{n}b")[::-1]
    return {
        v: _LETTER_OF_DIGITS[a][b]
        for v, a, b in zip(vertices, xs, zs)
        if a == "1" or b == "1"
    }


def subset_to_pauli(
    g: Graph, subset: frozenset[str] | set[str]
) -> tuple[dict[str, str], int]:
    """The stabilizer element generated by a vertex subset (the product of
    the graph-state generators at its vertices) as (letters, sign);
    ValueError names the smallest vertex not in the graph."""
    _, _, x, unknown = compile_pair((), subset, g.index)
    if unknown is not None:
        raise ValueError(f"unknown vertex {unknown!r}")
    z, negative = _stabilizer(g, x)
    return letters_of(g.vertices, x, z), -1 if negative else 1


def expectation(g: Graph, letters: Mapping[str, str]) -> int:
    """Exact graph-state expectation of a Pauli measurement: -1, 0 or +1."""
    x, z = to_xz(g, letters)
    expected, negative = _stabilizer(g, x)
    if z != expected:
        return 0
    return -1 if negative else 1
