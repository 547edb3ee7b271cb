"""Dense exact simulation of graph states.

Independent oracle for Pauli expectations, and the only evaluator for
non-Pauli observables such as single-qubit rotations.  Amplitude index
convention: vertex i (in the graph's canonical vertex order) is bit i of
the amplitude index.

The graph state's amplitude at k is (-1)**|E(k)| / sqrt(2**n), with E(k)
the edges inside the vertex set k: :func:`graph_state` builds the signs in
one pass per vertex from the CZ phases between it and its lower-indexed
neighbours.  A Pauli string with bitmasks x, z over the state's vertex order
is i**#Y X**x Z**z, so it acts on amplitudes by the permutation k -> k ^ x
and the sign (-1)**popcount(k & z): :func:`pauli_expectation` needs no
matrices.  Rotated and other non-Pauli settings go through
:func:`expect`'s per-factor contraction.

Independence: this module reads only Pauli action and CZ phases.  It imports
nothing from :mod:`inflated_graphs.pauli` and never uses the stabilizer rule,
so it stays an oracle for that arithmetic rather than a copy of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .graph import Graph

# Largest graph a dense state is built for: 2**14 complex amplitudes.
CAP = 14

# (x, z) bits of each letter: Y = i X Z.  Kept apart from the stabilizer
# arithmetic on purpose.
_PAULI_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}

PAULI_MATRICES: dict[str, np.ndarray] = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


@dataclass(frozen=True)
class StateVector:
    """An n-qubit state as a dense complex amplitude array."""

    n: int
    amplitudes: np.ndarray
    vertices: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.amplitudes.shape != (1 << self.n,):
            raise ValueError("amplitude array has the wrong length")
        norm = float(np.linalg.norm(self.amplitudes))
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"state is not normalized (norm {norm})")

    def qubit(self, v: str) -> int:
        return self.vertices.index(v)


@dataclass(frozen=True)
class Observable:
    """A scalar coefficient times a tensor product of per-vertex 2x2
    Hermitian factors (identity on absent vertices)."""

    coefficient: float
    factors: tuple[tuple[str, tuple[tuple[complex, ...], ...]], ...]

    @staticmethod
    def make(
        factors: Mapping[str, np.ndarray], coefficient: float = 1.0
    ) -> "Observable":
        items = []
        for v, mat in sorted(factors.items()):
            arr = np.asarray(mat, dtype=complex)
            if arr.shape != (2, 2):
                raise ValueError(f"factor at {v!r} is not 2x2")
            if not np.allclose(arr, arr.conj().T, atol=1e-12):
                raise ValueError(f"factor at {v!r} is not Hermitian")
            items.append((str(v), tuple(tuple(row) for row in arr)))
        return Observable(coefficient=float(coefficient), factors=tuple(items))

    def factor_arrays(self) -> list[tuple[str, np.ndarray]]:
        return [(v, np.array(mat, dtype=complex)) for v, mat in self.factors]


def graph_state(g: Graph) -> StateVector:
    """|+>^n with a controlled-Z applied across every edge.

    The CZ phase of amplitude k is the parity of |E(k)|.  Vertex v adds the
    edges to its lower-indexed neighbours, so the parities of the indices
    with top bit v are those below 2**v flipped by popcount(k & lower(v)):
    one pass per vertex doubles the table.
    """
    n = len(g.vertices)
    if n > CAP:
        raise ValueError(f"graph has {n} vertices; cap is {CAP}")
    dim = 1 << n
    k = np.arange(dim)
    parity = np.zeros(1, dtype=np.uint8)
    for v, neighbours in enumerate(g.adjacency):
        lower = neighbours & ((1 << v) - 1)
        flips = np.bitwise_count(k[: 1 << v] & lower) & 1
        parity = np.concatenate([parity, parity ^ flips])
    amplitudes = (1.0 - 2.0 * parity).astype(complex) / math.sqrt(dim)
    return StateVector(n=n, amplitudes=amplitudes, vertices=g.vertices)


def apply_observable(sv: StateVector, obs: Observable) -> np.ndarray:
    """O|psi> via sparse per-factor contraction (never a 2^n x 2^n matrix)."""
    psi = sv.amplitudes.reshape([2] * sv.n)
    for v, mat in obs.factor_arrays():
        axis = sv.n - 1 - sv.qubit(v)  # C-order: axis 0 is the top bit
        psi = np.moveaxis(
            np.tensordot(mat, psi, axes=([1], [axis])), 0, axis
        )
    return obs.coefficient * psi.reshape(-1)


def expect(
    sv: StateVector, obs: Observable | Iterable[Observable]
) -> float:
    """<psi|O|psi> for an observable or a sum of observable terms."""
    terms = [obs] if isinstance(obs, Observable) else list(obs)
    value = 0.0 + 0.0j
    for term in terms:
        value += np.vdot(sv.amplitudes, apply_observable(sv, term))
    if abs(value.imag) > 1e-10:
        raise ValueError(f"expectation has imaginary part {value.imag}")
    return float(value.real)


def pauli_expectation(sv: StateVector, letters: Mapping[str, str]) -> float:
    """Expectation of a phaseless Pauli product; cross-oracle for the exact
    stabilizer arithmetic.

    With x, z the letters' bitmasks over the state's vertex order, the
    value is i**#Y * sum_k conj(psi[k]) (-1)**popcount((k ^ x) & z)
    psi[k ^ x].  "I" letters are allowed; an unknown vertex or letter
    raises ValueError.
    """
    x = z = ys = 0
    for v, l in letters.items():
        bits = _PAULI_BITS.get(l)
        if bits is None:
            raise ValueError(f"invalid Pauli letter {l!r}")
        if v not in sv.vertices:
            raise ValueError(f"unknown vertex {v!r}")
        i = sv.qubit(v)
        x |= bits[0] << i
        z |= bits[1] << i
        ys += bits[0] & bits[1]
    psi = sv.amplitudes
    source = np.arange(len(psi)) ^ x
    signs = 1.0 - 2.0 * (np.bitwise_count(source & z) & 1)
    value = (1, 1j, -1, -1j)[ys % 4] * np.vdot(psi, signs * psi[source])
    if abs(value.imag) > 1e-10:
        raise ValueError(f"expectation has imaginary part {value.imag}")
    return float(value.real)


def rotation_observable(theta: float) -> np.ndarray:
    """cos(theta/2) Z + sin(theta/2) Y."""
    return (
        math.cos(theta / 2) * PAULI_MATRICES["Z"]
        + math.sin(theta / 2) * PAULI_MATRICES["Y"]
    )


def chsh_operator(theta1: float, theta2: float) -> tuple[Observable, ...]:
    """Four-term Bell operator on the 4-path (vertices "1".."4").

    The bracket whose terms ignore vertex 3 carries the relative minus sign
    between the two rotation settings; the bracket acting on all four
    vertices carries the plus.  At (pi/2, 3*pi/2) the brackets collapse to
    sqrt(2) times the stabilizer elements Z1 X2 X4 and Y1 X2 X3 Y4, so the
    graph-state expectation is 2*sqrt(2).
    """
    x = PAULI_MATRICES["X"]
    y = PAULI_MATRICES["Y"]
    r1 = rotation_observable(theta1)
    r2 = rotation_observable(theta2)
    return (
        Observable.make({"1": r1, "2": x, "4": x}, coefficient=1.0),
        Observable.make({"1": r2, "2": x, "4": x}, coefficient=-1.0),
        Observable.make({"1": r1, "2": x, "3": x, "4": y}, coefficient=1.0),
        Observable.make({"1": r2, "2": x, "3": x, "4": y}, coefficient=1.0),
    )
