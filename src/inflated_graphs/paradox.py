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

A :class:`MeasurementSet` compiles its pairs once into (x, z, mask) bitmasks
over ``graph.index`` and derives from them, once per set, its stabilizer
signs and its excerpt rows: :func:`excerpt_rows`, the one excerpt grouping,
numbers the classes (vertex, letters on its ball) and gives each pair a row
of the classes that hold it.  The parity check is the XOR of those rows,
the strategy system takes them as its rows, and the flip-rule search runs
the same function on its own cases.  A certificate names its odd excerpt
classes as a witness kept out of its JSON form.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from . import pauli
from .graph import Graph, graph_from_json, graph_to_json

_NON_IDENTITY = ("X", "Y", "Z")


@dataclass(frozen=True)
class MeasurementPair:
    """A Pauli measurement plus the submask of vertices whose outcome is kept."""

    letters: tuple[tuple[str, str], ...]
    mask: frozenset[str]
    name: str = ""

    @staticmethod
    def make(
        letters: Mapping[str, str], mask: Iterable[str], name: str = ""
    ) -> "MeasurementPair":
        items = []
        for v, l in letters.items():
            # Tuple membership compares by equality, so an unhashable letter
            # is rejected here with ValueError rather than TypeError.
            if l in _NON_IDENTITY:
                items.append((v, l))
            elif l != "I":
                raise ValueError(f"invalid Pauli letter {l!r}")
        items.sort()
        return MeasurementPair(letters=tuple(items), mask=frozenset(mask), name=name)

    @cached_property
    def letters_dict(self) -> dict[str, str]:
        return dict(self.letters)


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
        self.pair_bits  # compiling the pairs validates vertices and letters

    @cached_property
    def pair_bits(self) -> tuple[tuple[int, int, int], ...]:
        """Each pair as (x, z, mask) bitmasks over ``graph.index``."""
        g = self.graph
        return tuple(
            (*pauli.to_xz(g, p.letters_dict), g.bits_of(p.mask)) for p in self.pairs
        )

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
    """Per-vertex and per-pair verification record for one measurement set;
    odd_classes, not in to_json, maps each failing vertex, in vertex order,
    to the pair indices of its odd excerpt classes in first-appearance
    order."""

    parity_ok: Mapping[str, bool]
    stabilizer_signs: tuple[int | None, ...]
    product_is_minus_one: bool
    odd_classes: Mapping[str, tuple[tuple[int, ...], ...]]

    @property
    def overall(self) -> bool:
        return (
            all(self.parity_ok.values())
            and all(sign is not None for sign in self.stabilizer_signs)
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
    while parity:
        low = parity & -parity
        odd.setdefault(classes[low.bit_length() - 1][0], []).append(
            tuple(k for k, row in enumerate(rows) if row & low)
        )
        parity ^= low
    vertices = s.graph.vertices
    odd_classes = {vertices[i]: tuple(odd[i]) for i in sorted(odd)}
    return ParadoxCertificate(
        parity_ok={v: v not in odd_classes for v in vertices},
        stabilizer_signs=s.stabilizer_signs,
        product_is_minus_one=check_product_minus_one(s),
        odd_classes=odd_classes,
    )


def set_to_json(s: MeasurementSet) -> dict:
    return {
        "graph": graph_to_json(s.graph),
        "d": s.d,
        "pairs": [
            {
                "letters": dict(p.letters),
                "mask": sorted(p.mask),
                **({"name": p.name} if p.name else {}),
            }
            for p in s.pairs
        ],
    }


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
    pairs = tuple(
        MeasurementPair.make(
            {str(v): l for v, l in p["letters"].items()},
            (str(v) for v in p["mask"]),
            name=p.get("name", ""),
        )
        for p in obj["pairs"]
    )
    return MeasurementSet(graph=graph, d=obj["d"], pairs=pairs)


def load_measurement_set(path: str) -> MeasurementSet:
    with open(path) as fh:
        return set_from_json(json.load(fh))


def save_measurement_set(s: MeasurementSet, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(set_to_json(s), fh, indent=2, sort_keys=False)
        fh.write("\n")
