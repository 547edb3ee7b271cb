"""Signed Pauli-product algebra and graph-state stabilizer machinery.

Phases are tracked exactly as integer exponents of i (mod 4).  Letters are
stored sparsely: a vertex absent from a string carries the identity.

Arithmetic works on the symplectic form: a letter is a pair of bits (x, z)
with X = (1, 0), Z = (0, 1) and Y = (1, 1) = i X Z.  The stabilizer element
of a graph state generated by a vertex subset S (the product of the
generators X_v Z_N(v) over v in S) has x = S and z = the neighbourhood
parity of S, and its sign is (-1)**(|E(S)| - #Y/2), where E(S) are the edges
inside S and #Y counts the vertices with x = z = 1 (Hein, Eisert & Briegel
2004).  :func:`_stabilizer` is the one place this rule lives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .graph import Graph

_XZ = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_LETTER = {xz: l for l, xz in _XZ.items()}
LETTERS = tuple(_XZ)

_PHASE_TOKEN = {0: "+1", 1: "+i", 2: "-1", 3: "-i"}
_TOKEN_PHASE = {t: p for p, t in _PHASE_TOKEN.items()}


@dataclass(frozen=True)
class PauliString:
    """A phase i**phase times a sparse tensor product of Pauli letters."""

    phase: int = 0
    letters: tuple[tuple[str, str], ...] = ()

    @staticmethod
    def from_dict(letters: Mapping[str, str], phase: int = 0) -> "PauliString":
        items = tuple(
            sorted((v, l) for v, l in letters.items() if l != "I")
        )
        for _, l in items:
            if l not in LETTERS:
                raise ValueError(f"invalid Pauli letter {l!r}")
        return PauliString(phase=phase % 4, letters=items)

    def letter(self, v: str) -> str:
        return self.as_dict().get(v, "I")

    def as_dict(self) -> dict[str, str]:
        return dict(self.letters)

    @property
    def sign(self) -> int:
        """The real sign, for strings with phase exponent 0 or 2."""
        if self.phase == 0:
            return 1
        if self.phase == 2:
            return -1
        raise ValueError(f"phase i**{self.phase} is not a real sign")

    def is_identity_letters(self) -> bool:
        return not self.letters

    def __mul__(self, other: "PauliString") -> "PauliString":
        return multiply(self, other)

    def __str__(self) -> str:
        body = " ".join(f"{l}@{v}" for v, l in self.letters)
        return _PHASE_TOKEN[self.phase] + (f" {body}" if body else "")


def multiply(a: PauliString, b: PauliString) -> PauliString:
    """Product with exact phase tracking.

    Per vertex, (x1, z1)(x2, z2) = i**(y1 + y2 - y + 2 z1 x2) (x1^x2, z1^z2),
    where y = x & z counts the i of a Y: moving Z**z1 past X**x2 costs
    (-1)**(z1 x2) (Aaronson & Gottesman 2004).
    """
    phase = a.phase + b.phase
    letters = a.as_dict()
    for v, lb in b.letters:
        x1, z1 = _XZ[letters.get(v, "I")]
        x2, z2 = _XZ[lb]
        x, z = x1 ^ x2, z1 ^ z2
        phase += (x1 & z1) + (x2 & z2) - (x & z) + 2 * (z1 & x2)
        if x or z:
            letters[v] = _LETTER[x, z]
        else:
            letters.pop(v, None)
    return PauliString(phase=phase % 4, letters=tuple(sorted(letters.items())))


def parse(text: str) -> PauliString:
    """Parse the text form, e.g. ``"-1 X@1 Z@2"``."""
    parts = text.split()
    if not parts or parts[0] not in _TOKEN_PHASE:
        raise ValueError(f"missing phase token in {text!r}")
    letters = {}
    for item in parts[1:]:
        l, _, v = item.partition("@")
        if not v or l not in LETTERS:
            raise ValueError(f"bad letter assignment {item!r}")
        letters[v] = l
    return PauliString.from_dict(letters, phase=_TOKEN_PHASE[parts[0]])


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


def _to_xz(g: Graph, letters: Mapping[str, str]) -> tuple[int, int]:
    """Bitmasks of a letter assignment over ``g.index``."""
    index = g.index
    x = z = 0
    for v, l in letters.items():
        g.require_vertex(v)
        if l not in _XZ:
            raise ValueError(f"invalid Pauli letter {l!r}")
        bx, bz = _XZ[l]
        x |= bx << index[v]
        z |= bz << index[v]
    return x, z


def subset_to_pauli(g: Graph, subset: frozenset[str] | set[str]) -> PauliString:
    """Pauli form of the stabilizer element generated by a vertex subset:
    the product of the graph-state generators at its vertices."""
    x = 0
    for v in subset:
        g.require_vertex(v)
        x |= 1 << g.index[v]
    z, negative = _stabilizer(g, x)
    letters = {
        v: _LETTER[(x >> i) & 1, (z >> i) & 1]
        for i, v in enumerate(g.vertices)
        if ((x | z) >> i) & 1
    }
    return PauliString.from_dict(letters, phase=2 if negative else 0)


def pauli_to_subset(
    g: Graph, p: PauliString | Mapping[str, str]
) -> tuple[frozenset[str], int] | None:
    """Invert subset_to_pauli for a phaseless Pauli product.

    Returns (subset, sign) with subset_to_pauli(subset) == sign * p, or None
    when p is proportional to no stabilizer element.  X and Y mark the
    subset; the Z part must then be its neighbourhood parity.
    """
    letters = p.as_dict() if isinstance(p, PauliString) else p
    sign = expectation(g, letters)
    if not sign:
        return None
    return frozenset(v for v, l in letters.items() if l in ("X", "Y")), sign


def expectation(g: Graph, m: PauliString | Mapping[str, str]) -> int:
    """Exact graph-state expectation of a Pauli measurement: -1, 0 or +1."""
    letters = m.as_dict() if isinstance(m, PauliString) else m
    x, z = _to_xz(g, letters)
    expected, negative = _stabilizer(g, x)
    if z != expected:
        return 0
    return -1 if negative else 1
