"""Measurement/submeasurement sets and the no-go condition checks.

A scenario is a set of (measurement, submeasurement) pairs on a graph state
together with a communication distance d.  The three checks are:

* excerpt parity: at every vertex, measurements whose submeasurement keeps
  that vertex group into even-sized classes by their local excerpt (their
  letters on the vertex's distance-d ball),
* stabilizer signs: every submeasurement is proportional to a stabilizer
  element with a definite sign,
* sign product: the signed submeasurements multiply to minus identity.

A set passing all three cannot be reproduced by any deterministic classical
model whose per-vertex outputs see measurement settings up to distance d.

A :class:`MeasurementPair` is stored as (x, z, mask) bitmasks over a vertex
tuple, and its letters are views derived from them.  At the set-file
boundary, :func:`set_from_json` compiles each pair's letters and mask
straight onto the graph's vertices with :func:`pauli.compile_pair`, the
only writer from names to bits, and :func:`set_to_json` reads names back
off the bits with the two readers, :func:`pauli.letters_of` and
:func:`graph.members`.  A
:class:`MeasurementSet` takes its pairs' bits over ``graph.index`` (moving a
pair over other vertices onto the graph by name once) and derives from
them, once per set, its stabilizer signs and its excerpt rows:
:func:`excerpt_rows`, the one excerpt grouping, numbers the classes
(vertex, letters on its ball) and gives each pair a row of the classes that
hold it.  The parity check is the XOR of those rows, the strategy system
takes them as its rows, and the flip-rule search runs the same function on
its own cases.  A certificate names its odd excerpt classes as a witness,
kept out of its JSON form, and derives its parity verdict from it.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property

from . import pauli
from .graph import Graph, graph_from_json, graph_to_json, members


@dataclass(frozen=True, eq=False, repr=False)
class MeasurementPair:
    """A Pauli measurement plus the submask of vertices whose outcome is kept.

    Stored as bitmasks over ``vertices``: the measurement's letters as (x, z)
    and the kept vertices as m.  :meth:`make` compiles letters over the
    pair's own sorted support; the library builders and :func:`set_from_json`
    compile over their graph's vertices.  ``letters``, ``letters_dict`` and
    ``mask`` are views derived from the bits, and equality and hashing go by
    them and the name, whatever the vertex tuple.
    """

    vertices: tuple[str, ...]
    x: int
    z: int
    m: int
    name: str = ""

    @staticmethod
    def make(
        letters: Mapping[str, str], mask: Iterable[str], name: str = ""
    ) -> "MeasurementPair":
        mask = set(mask)
        support = mask.union(v for v, l in letters.items() if l in pauli._NON_IDENTITY)
        try:
            vertices = tuple(sorted(support))
        except TypeError:  # no graph has vertices of mixed types
            v = next(v for v in support if not isinstance(v, str))
            raise ValueError(f"unknown vertex {v!r}") from None
        index = {v: i for i, v in enumerate(vertices)}
        x, z, m, _ = pauli.compile_pair(letters.items(), mask, index)
        return MeasurementPair(vertices, x, z, m, name)

    @cached_property
    def letters(self) -> tuple[tuple[str, str], ...]:
        """The non-identity letters as (vertex, letter), sorted by vertex."""
        return tuple(sorted(pauli.letters_of(self.vertices, self.x, self.z).items()))

    @cached_property
    def letters_dict(self) -> dict[str, str]:
        return dict(self.letters)

    @cached_property
    def mask(self) -> frozenset[str]:
        return frozenset(members(self.vertices, self.m))

    def bits_on(self, g: Graph) -> tuple[int, int, int]:
        """(x, z, m) over ``g.index``: the stored bits when the pair is over
        g's vertices (the same tuple, as the set reader and the builders
        make it, or an equal one), else its letters and mask moved onto them
        by name."""
        if self.vertices is g.vertices or self.vertices == g.vertices:
            return self.x, self.z, self.m
        x, z, m, unknown = pauli.compile_pair(self.letters, self.mask, g.index)
        if unknown is not None:
            raise ValueError(f"unknown vertex {unknown!r}")
        return x, z, m

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MeasurementPair):
            return NotImplemented
        mine = (self.letters, self.mask, self.name)
        return mine == (other.letters, other.mask, other.name)

    def __hash__(self) -> int:
        return hash((self.letters, self.mask, self.name))

    def __repr__(self) -> str:
        return (
            f"MeasurementPair.make({self.letters_dict!r}, "
            f"{sorted(self.mask)!r}, name={self.name!r})"
        )


ExcerptClass = tuple[int, int, int]  # (vertex index, x & B, z & B)


def excerpt_rows(
    balls: Sequence[int], pair_bits: Iterable[tuple[int, int, int]]
) -> tuple[tuple[int, ...], tuple[ExcerptClass, ...]]:
    """Group pairs (x, z, mask) into excerpt classes, with B = balls[i].

    Pair k is in class (i, x & B, z & B) when its mask keeps vertex i with a
    non-identity letter: its letters on vertex i's ball.  Classes are
    numbered by first appearance, pairs in order and each pair's vertices
    by index; bit j of rows[k] is set iff pair k is in class j.
    """
    number: dict[ExcerptClass, int] = {}
    rows = []
    for x, z, m in pair_bits:
        row = 0
        kept = m & (x | z)
        while kept:
            low = kept & -kept
            i = low.bit_length() - 1
            b = balls[i]
            row |= 1 << number.setdefault((i, x & b, z & b), len(number))
            kept ^= low
        rows.append(row)
    return tuple(rows), tuple(number)


@dataclass(frozen=True)
class MeasurementSet:
    """An ordered list of measurement pairs on a graph, with a distance d.

    d = 0 describes a plain local-model scenario; d >= 1 allows each vertex
    to learn the settings of vertices up to d edges away.
    """

    graph: Graph
    d: int
    pairs: tuple[MeasurementPair, ...]

    def __post_init__(self) -> None:
        if self.d < 0:
            raise ValueError("communication distance d must be >= 0")
        self.pair_bits  # rebasing the pairs validates their vertices

    @cached_property
    def pair_bits(self) -> tuple[tuple[int, int, int], ...]:
        """Each pair as (x, z, mask) bitmasks over ``graph.index``."""
        return tuple(p.bits_on(self.graph) for p in self.pairs)

    @cached_property
    def excerpt_rows(self) -> tuple[tuple[int, ...], tuple[ExcerptClass, ...]]:
        """:func:`excerpt_rows` over the distance-d balls of the graph."""
        return excerpt_rows(self.graph.ball_masks(self.d), self.pair_bits)

    @cached_property
    def stabilizer_signs(self) -> tuple[int | None, ...]:
        """Per pair, the sign of its submeasurement as a stabilizer element,
        or None when it is proportional to no stabilizer element."""
        signs: list[int | None] = []
        for x, z, m in self.pair_bits:
            expected, negative = pauli._stabilizer(self.graph, x & m)
            signs.append(None if z & m != expected else -1 if negative else 1)
        return tuple(signs)


def check_product_minus_one(s: MeasurementSet) -> bool:
    """The submeasurement operators multiply to minus identity.

    Each submeasurement is the plain product of its letters; the phases
    arising from letter multiplication are what carry the overall sign.
    """
    product = (0, 0, 0)
    for x, z, m in s.pair_bits:
        product = pauli.multiply(product, (x & m, z & m, 0))
    return product == (0, 0, 2)


@dataclass(frozen=True)
class ParadoxCertificate:
    """Per-vertex and per-pair verification record for one measurement set.
    Stored: the vertices, the signs, the product verdict and the witness
    odd_classes (not in to_json), which maps each failing vertex, in vertex
    order, to the pair indices of its odd excerpt classes in first-appearance
    order.  Derived from them: parity_ok and overall."""

    vertices: tuple[str, ...]
    stabilizer_signs: tuple[int | None, ...]
    product_is_minus_one: bool
    odd_classes: Mapping[str, tuple[tuple[int, ...], ...]]

    @property
    def parity_ok(self) -> dict[str, bool]:
        """Per vertex, in vertex order: no odd excerpt class there."""
        return {v: v not in self.odd_classes for v in self.vertices}

    @property
    def overall(self) -> bool:
        return (
            not self.odd_classes
            and None not in self.stabilizer_signs
            and self.product_is_minus_one
        )

    def to_json(self) -> dict:
        return {
            "parity_ok": dict(self.parity_ok),
            "stabilizer_signs": list(self.stabilizer_signs),
            "product_is_minus_one": self.product_is_minus_one,
            "overall": self.overall,
        }


def verify_paradox(s: MeasurementSet) -> ParadoxCertificate:
    """Run all three checks; overall=True certifies the paradox at distance d.

    A class is odd iff its bit is set in the XOR of the excerpt rows.
    """
    rows, classes = s.excerpt_rows
    parity = 0
    for row in rows:
        parity ^= row
    odd: dict[int, list[tuple[int, ...]]] = {}  # vertex index -> odd classes
    for j in members(range(len(classes)), parity):
        odd.setdefault(classes[j][0], []).append(
            tuple(k for k, row in enumerate(rows) if row >> j & 1)
        )
    vertices = s.graph.vertices
    return ParadoxCertificate(
        vertices=vertices,
        stabilizer_signs=s.stabilizer_signs,
        product_is_minus_one=check_product_minus_one(s),
        odd_classes={vertices[i]: tuple(odd[i]) for i in sorted(odd)},
    )


def set_to_json(s: MeasurementSet) -> dict:
    """The set as JSON, each pair's letters and mask read off its bits and
    keyed or listed by vertex name."""
    g = s.graph
    by_name = list(g.vertices) == sorted(g.vertices)
    pairs = []
    for p, (x, z, m) in zip(s.pairs, s.pair_bits):
        letters = pauli.letters_of(g.vertices, x, z)
        mask = list(members(g.vertices, m))
        if not by_name:
            letters = dict(sorted(letters.items()))
            mask.sort()
        pairs.append(
            {"letters": letters, "mask": mask, **({"name": p.name} if p.name else {})}
        )
    return {"graph": graph_to_json(g), "d": s.d, "pairs": pairs}


def set_from_json(obj: Mapping) -> MeasurementSet:
    """Parse a measurement set; raises ValueError on any other shape."""
    if not isinstance(obj, Mapping):
        raise ValueError("a measurement set must be a JSON object")
    for key in ("graph", "d", "pairs"):
        if key not in obj:
            raise ValueError(f"measurement set has no {key!r} key")
    if not isinstance(obj["d"], int) or isinstance(obj["d"], bool):
        raise ValueError('measurement set "d" must be an integer')
    if not isinstance(obj["pairs"], list) or not all(
        isinstance(p, Mapping)
        and isinstance(p.get("letters"), Mapping)
        and isinstance(p.get("mask"), list)
        and isinstance(p.get("name", ""), str)
        for p in obj["pairs"]
    ):
        raise ValueError(
            'measurement set "pairs" must be a list of objects with '
            '"letters" (an object), "mask" (a list) and an optional "name"'
        )
    graph = graph_from_json(obj["graph"])
    index = graph.index
    # Letters and masks compile straight onto the graph's vertices.  Every
    # letter of every pair is checked before an unknown vertex is named.
    # Names are read as their str().  The index holds only strings, so a
    # pair whose names are all found as given is read in one pass with no
    # str() copies; a pair with a name not found (or not hashable) is read
    # again through str(), which also names its unknown vertex.
    pairs = []
    unknown = None
    for p in obj["pairs"]:
        letters = p["letters"]
        mask = p["mask"]
        try:
            x, z, m, missing = pauli.compile_pair(letters.items(), mask, index)
            found = missing is None
        except TypeError:  # an unhashable mask entry, or unknown ones of mixed types
            found = False
        if not found:
            x, z, m, missing = pauli.compile_pair(
                zip(map(str, letters), letters.values()), map(str, mask), index
            )
        if unknown is None:
            unknown = missing
        pairs.append(MeasurementPair(graph.vertices, x, z, m, p.get("name", "")))
    if unknown is not None:
        raise ValueError(f"unknown vertex {unknown!r}")
    return MeasurementSet(graph=graph, d=obj["d"], pairs=tuple(pairs))


def load_measurement_set(path: str) -> MeasurementSet:
    with open(path) as fh:
        return set_from_json(json.load(fh))


def save_measurement_set(s: MeasurementSet, path: str) -> None:
    """Write the set as JSON indented by two, plus a newline.  One dumps
    call and one write: json.dump would write every token on its own."""
    with open(path, "w") as fh:
        fh.write(json.dumps(set_to_json(s), indent=2) + "\n")
