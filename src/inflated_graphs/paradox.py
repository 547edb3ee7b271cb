"""Measurement/submeasurement sets and the no-go condition checks.

A scenario is a set of (measurement, submeasurement) pairs on a graph state
together with a communication distance d.  The three checks are:

* excerpt parity: at every vertex, measurements whose submeasurement keeps
  that vertex group into even-sized classes by their local excerpt,
* stabilizer signs: every submeasurement is proportional to a stabilizer
  element with a definite sign,
* sign product: the signed submeasurements multiply to minus identity.

A set passing all three cannot be reproduced by any deterministic classical
model whose per-vertex outputs see measurement settings up to distance d.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

from . import pauli
from .graph import Graph, ball, graph_from_json, graph_to_json
from .pauli import PauliString


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
        items = tuple(sorted((v, l) for v, l in letters.items() if l != "I"))
        for _, l in items:
            if l not in pauli.LETTERS:
                raise ValueError(f"invalid Pauli letter {l!r}")
        return MeasurementPair(letters=items, mask=frozenset(mask), name=name)

    def letter(self, v: str) -> str:
        return self.letters_dict.get(v, "I")

    @cached_property
    def letters_dict(self) -> dict[str, str]:
        return dict(self.letters)

    def submeasurement(self) -> dict[str, str]:
        """Letters restricted to the mask; identity elsewhere."""
        return {v: l for v, l in self.letters if v in self.mask}


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
        for p in self.pairs:
            for v, _ in p.letters:
                self.graph.require_vertex(v)
            for v in p.mask:
                self.graph.require_vertex(v)


def excerpt(s: MeasurementSet, pair: MeasurementPair, v: str) -> tuple[str, ...]:
    """Letters of the pair's measurement over ball(v, d), canonically ordered."""
    return tuple(pair.letter(u) for u in ball(s.graph, v, s.d))


def comm_parity_classes(s: MeasurementSet, v: str) -> Counter:
    """Counts of local excerpts at v over pairs whose submeasurement keeps v."""
    counts: Counter = Counter()
    for p in s.pairs:
        if v in p.mask and p.letter(v) != "I":
            counts[excerpt(s, p, v)] += 1
    return counts


def check_comm_parity(s: MeasurementSet, v: str) -> bool:
    """Communication-aware parity at v: each excerpt class has even size."""
    return all(c % 2 == 0 for c in comm_parity_classes(s, v).values())


def check_stabilizer_signs(s: MeasurementSet) -> list[int | None]:
    """Per pair, the sign of its submeasurement as a stabilizer element,
    or None when it is proportional to no stabilizer element."""
    signs: list[int | None] = []
    for p in s.pairs:
        decomposition = pauli.pauli_to_subset(s.graph, p.submeasurement())
        signs.append(None if decomposition is None else decomposition[1])
    return signs


def check_product_minus_one(s: MeasurementSet) -> bool:
    """The submeasurement operators multiply to minus identity.

    Each submeasurement is the plain product of its letters; the phases
    arising from letter multiplication are what carry the overall sign.
    """
    product = PauliString()
    for p in s.pairs:
        product = product * PauliString.from_dict(p.submeasurement())
    return product.is_identity_letters() and product.phase == 2


@dataclass(frozen=True)
class ParadoxCertificate:
    """Per-vertex and per-pair verification record for one measurement set."""

    parity_ok: Mapping[str, bool]
    stabilizer_signs: tuple[int | None, ...]
    product_is_minus_one: bool

    @property
    def overall(self) -> bool:
        return (
            all(self.parity_ok.values())
            and all(sign is not None for sign in self.stabilizer_signs)
            and self.product_is_minus_one
        )

    def failing_vertices(self) -> list[str]:
        return [v for v, ok in self.parity_ok.items() if not ok]

    def to_json(self) -> dict:
        return {
            "parity_ok": dict(self.parity_ok),
            "stabilizer_signs": list(self.stabilizer_signs),
            "product_is_minus_one": self.product_is_minus_one,
            "overall": self.overall,
        }


def verify_paradox(s: MeasurementSet) -> ParadoxCertificate:
    """Run all three checks; overall=True certifies the paradox at distance d."""
    parity_ok = {v: check_comm_parity(s, v) for v in s.graph.vertices}
    signs = tuple(check_stabilizer_signs(s))
    product = check_product_minus_one(s)
    return ParadoxCertificate(
        parity_ok=parity_ok,
        stabilizer_signs=signs,
        product_is_minus_one=product,
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
    if not isinstance(obj["d"], int):
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
