"""Dense exact simulation of graph states.

Independent oracle for Pauli expectations and the evaluator of the 4-path
Bell operator.  Every observable it evaluates is a real Pauli sum: a
sequence of ``(coefficient, letters)`` terms, ``letters`` a phaseless Pauli
product on named vertices.  Amplitude index convention: vertex i (in the
graph's canonical vertex order) is bit i of the amplitude index.

The graph state's amplitude at k is (-1)**|E(k)| / sqrt(2**n), with E(k)
the edges inside the vertex set k: :func:`graph_state` builds the signs in
one pass per vertex from the CZ phases between it and its lower-indexed
neighbours.  Those amplitudes are real, so a graph state is a float64
array; any other state, such as a random complex one, is a complex array.
A Pauli string with bitmasks x, z over the state's vertex order is
i**#Y X**x Z**z, so it acts on amplitudes by the permutation k -> k ^ x and
the sign (-1)**popcount(k & z): :func:`pauli_expectation` needs no
matrices, only a gather over a cached index array and one sum, and
:func:`expect` sums it over the terms.  A rotated setting
cos(theta/2) Z + sin(theta/2) Y is two such terms.

Independence: this module reads only Pauli action and CZ phases.  It imports
nothing from :mod:`inflated_graphs.pauli` and never uses the stabilizer rule,
so it stays an oracle for that arithmetic rather than a copy of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import Iterable, Mapping

import numpy as np

from .graph import Graph

# Largest graph a dense state is built for: 2**14 amplitudes.
CAP = 14

# (x, z) bits of each letter: Y = i X Z.  Kept apart from the stabilizer
# arithmetic on purpose.
_PAULI_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}


@dataclass(frozen=True)
class StateVector:
    """A state of one qubit per vertex as a dense amplitude array: float64
    for a graph state, complex for a general one."""

    amplitudes: np.ndarray
    vertices: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.amplitudes.shape != (1 << len(self.vertices),):
            raise ValueError("amplitude array has the wrong length")
        # The plain sum of |psi|**2, as in pauli_expectation: np.linalg.norm's
        # BLAS dot product runs multi-threaded when BLAS threads are unpinned.
        a = self.amplitudes
        norm = math.sqrt(np.add.reduce((a.conj() * a).real))
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"state is not normalized (norm {norm})")


@cache
def _indices(n: int) -> np.ndarray:
    """The amplitude indices 0 .. 2**n - 1 in the smallest unsigned dtype
    that holds them, read-only and cached per qubit count."""
    k = np.arange(1 << n, dtype=np.min_scalar_type((1 << n) - 1))
    k.flags.writeable = False
    return k


def graph_state(g: Graph) -> StateVector:
    """|+>^n with a controlled-Z applied across every edge.

    The CZ phase of amplitude k is the parity of |E(k)|.  Vertex v adds the
    edges to its lower-indexed neighbours, so the parities of the indices
    with top bit v are those below 2**v flipped by popcount(k & lower(v)):
    one pass per vertex doubles the table.  The amplitudes are the real
    numbers +-1/sqrt(2**n), held as float64.
    """
    n = len(g.vertices)
    if n > CAP:
        raise ValueError(f"graph has {n} vertices; cap is {CAP}")
    dim = 1 << n
    k = _indices(n)
    parity = np.zeros(1, dtype=np.uint8)
    for v, neighbours in enumerate(g.adjacency):
        lower = neighbours & ((1 << v) - 1)
        flips = np.bitwise_count(k[: 1 << v] & lower) & 1
        parity = np.concatenate([parity, parity ^ flips])
    amplitudes = (1.0 - 2.0 * parity) / math.sqrt(dim)
    return StateVector(amplitudes=amplitudes, vertices=g.vertices)


def pauli_expectation(sv: StateVector, letters: Mapping[str, str]) -> float:
    """Expectation of a phaseless Pauli product; cross-oracle for the exact
    stabilizer arithmetic.

    With x, z the letters' bitmasks over the state's vertex order, the
    value is i**#Y * sum_k conj(psi[k]) (-1)**popcount((k ^ x) & z)
    psi[k ^ x], for real and complex amplitudes alike.  The terms are one
    explicit product array, added up by ``np.add.reduce``: a BLAS dot
    product would leave a rounding residue (such as -8e-18) where the exact
    value is 0.  "I" letters are allowed; an unknown vertex or letter raises
    ValueError.
    """
    x = z = ys = 0
    for v, l in letters.items():
        bits = _PAULI_BITS.get(l)
        if bits is None:
            raise ValueError(f"invalid Pauli letter {l!r}")
        try:
            i = sv.vertices.index(v)
        except ValueError:
            raise ValueError(f"unknown vertex {v!r}") from None
        x |= bits[0] << i
        z |= bits[1] << i
        ys += bits[0] & bits[1]
    psi = sv.amplitudes
    source = _indices(len(sv.vertices)) ^ x
    signs = 1.0 - 2.0 * (np.bitwise_count(source & z) & 1)
    total = np.add.reduce(psi.conj() * psi.take(source) * signs)
    value = (1, 1j, -1, -1j)[ys % 4] * total
    if abs(value.imag) > 1e-10:
        raise ValueError(f"expectation has imaginary part {value.imag}")
    return float(value.real)


def expect(
    sv: StateVector, terms: Iterable[tuple[float, Mapping[str, str]]]
) -> float:
    """<psi|H|psi> for the real Pauli sum H = sum of coefficient * letters."""
    return math.fsum(c * pauli_expectation(sv, letters) for c, letters in terms)


def chsh_operator(
    theta1: float, theta2: float
) -> tuple[tuple[float, dict[str, str]], ...]:
    """The 4-path Bell operator (vertices "1".."4") as a real Pauli sum.

    Bracket k has the sign and mask of pair k of
    :func:`inflated_graphs.lhv.chsh_game`: vertex 1 measures
    cos(theta/2) Z + sin(theta/2) Y at theta1 or theta2 (the pair's X or Y
    there), vertex 4 measures X or Y, and the two brackets that ignore
    vertex 3 differ by a sign.  Each bracket expands at vertex 1 into a Z
    and a Y term: 8 terms, bracket by bracket.  At (pi/2, 3*pi/2) the brackets
    collapse to sqrt(2) times the stabilizer elements Z1 X2 X4 and
    Y1 X2 X3 Y4, so the graph-state value is 2*sqrt(2).
    """
    near = {"2": "X", "4": "X"}
    full = {"2": "X", "3": "X", "4": "Y"}
    brackets = (
        (1.0, theta1, near),
        (-1.0, theta2, near),
        (1.0, theta1, full),
        (1.0, theta2, full),
    )
    return tuple(
        (sign * part(theta / 2), {"1": letter, **rest})
        for sign, theta, rest in brackets
        for part, letter in ((math.cos, "Z"), (math.sin, "Y"))
    )
