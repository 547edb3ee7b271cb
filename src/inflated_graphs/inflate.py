"""Constructive pipeline: inflated measurements, inflated and shell
stabilizers, decoy measurements, and the completion loop that turns any
local-model-refuting set on a base graph into a certified set refuting
distance-d communication-assisted models on the inflated graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from . import gf2, pauli
from .graph import Graph, InflatedGraph, ball, chain_vertex_name, edge_key
from .paradox import (
    MeasurementPair,
    MeasurementSet,
    ParadoxCertificate,
    comm_parity_classes,
    verify_paradox,
)
from .pauli import PauliString


def inflated_measurement(
    m: Mapping[str, str], ig: InflatedGraph
) -> dict[str, str]:
    """Copy base letters onto power vertices; X on every chain vertex."""
    for v in m:
        if m[v] != "I":
            ig.base.require_vertex(v)
    letters = {v: l for v, l in m.items() if l != "I"}
    for w in ig.chain_index:
        letters[w] = "X"
    return letters


def _members(ig: InflatedGraph, subset: Iterable[str]) -> frozenset[str]:
    """Inflated-graph vertices whose generators multiply to the inflated
    generators of a set of power vertices: each u itself plus the chain
    vertices of u's chains at even distance from u.  The member sets of
    distinct power vertices are disjoint."""
    members = set()
    for u in subset:
        if not ig.is_power(u):
            raise ValueError(f"{u!r} is not a power vertex")
        members.add(u)
        for v in ig.base.neighbors[u]:
            edge = edge_key(u, v)
            for s in range(1, ig.d + 1):
                # Position 2s counted from u; canonical names count from the
                # smaller endpoint.
                r = 2 * s if edge[0] == u else 2 * ig.d + 1 - 2 * s
                members.add(chain_vertex_name(edge, r))
    return frozenset(members)


def inflated_generator(ig: InflatedGraph, u: str) -> PauliString:
    """Product of the inflated graph's generators at u and at the chain
    vertices of u's chains at even distance from u."""
    return inflated_stabilizer(ig, {u})


def inflated_stabilizer(ig: InflatedGraph, subset: Iterable[str]) -> PauliString:
    """Product of the inflated generators of a base-graph vertex subset."""
    return pauli.subset_to_pauli(ig.graph, _members(ig, subset))


@dataclass(frozen=True)
class DecoySpec:
    """A decoy-pair recipe: a power vertex, two of its base neighbors, and
    two distinct letters the pair shows at the power vertex."""

    center: str
    neighbors: tuple[str, str]
    letters: tuple[str, str]

    def validate(self, ig: InflatedGraph) -> None:
        v1, v2 = self.neighbors
        if v1 == v2:
            raise ValueError("decoy neighbors must be distinct")
        base_nbrs = set(ig.base.neighbors[self.center])
        for v in self.neighbors:
            if v not in base_nbrs:
                raise ValueError(
                    f"{v!r} is not a base neighbor of {self.center!r}"
                )
        s1, s2 = self.letters
        if s1 == s2:
            raise ValueError("decoy letters must be distinct")
        for s in self.letters:
            if s not in pauli.LETTERS:
                raise ValueError(f"invalid Pauli letter {s!r}")


def shell_stabilizer(ig: InflatedGraph, spec: DecoySpec) -> PauliString:
    """Product of the inflated generators of the two chosen neighbors.

    Identity at the center vertex; sign always +1.
    """
    spec.validate(ig)
    shell = inflated_stabilizer(ig, spec.neighbors)
    assert shell.letter(spec.center) == "I"
    assert shell.phase == 0
    return shell


def decoy_pair(
    ig: InflatedGraph, spec: DecoySpec
) -> tuple[MeasurementPair, MeasurementPair]:
    """Two measurements differing only at the center vertex and sharing the
    shell stabilizer as their common submeasurement.

    Both measurements carry X on every chain vertex of the graph (the shell's
    chain letters are all X or identity, so it stays a submeasurement); on
    power vertices other than the center they carry the shell's letters.
    Uniform X on chains keeps the pair in the same excerpt class as the rows
    it must cancel even when the center has further chains within distance d.
    """
    spec.validate(ig)
    shell = shell_stabilizer(ig, spec)
    base_letters = {
        v: l for v, l in shell.letters if v not in ig.chain_index
    }
    base_letters.pop(spec.center, None)
    for w in ig.chain_index:
        base_letters[w] = "X"
    mask = frozenset(v for v, _ in shell.letters)
    out = []
    for s in spec.letters:
        letters = dict(base_letters)
        if s != "I":
            letters[spec.center] = s
        pair = MeasurementPair.make(letters, mask)
        # The shell must be a submeasurement of the decoy measurement.
        assert all(pair.letter(v) == l for v, l in shell.letters)
        out.append(pair)
    return out[0], out[1]


@dataclass
class BuildResult:
    """Output of build_inflated_set: the set plus its re-verified certificate."""

    measurement_set: MeasurementSet
    decoy_specs: list[DecoySpec]
    iterations: int
    certificate: ParadoxCertificate

    @property
    def decoy_count(self) -> int:
        return 2 * len(self.decoy_specs)

    def report(self) -> dict:
        return {
            "pairs": len(self.measurement_set.pairs),
            "decoy_pairs": len(self.decoy_specs),
            "decoy_measurements": self.decoy_count,
            "iterations": self.iterations,
            "certificate": self.certificate.to_json(),
        }


def build_inflated_set(
    base: MeasurementSet, ig: InflatedGraph, max_rounds: int | None = None
) -> BuildResult:
    """Inflate a certified base set and append decoy pairs until the excerpt
    parity check passes everywhere; the postcondition is the re-verified
    certificate, not trust in the construction."""
    if ig.base != base.graph:
        raise ValueError("inflated graph was not built from the base set's graph")
    if base.d != 0:
        raise ValueError("base set must be a d=0 scenario")
    if len(base.graph.vertices) < 3 or not base.graph.is_connected:
        raise ValueError("base graph must have at least 3 connected vertices")
    full = frozenset(base.graph.vertices)
    if any(p.mask != full for p in base.pairs):
        raise ValueError("base set must use full submasks")
    if not verify_paradox(base).overall:
        raise ValueError("base set is not certified at d=0")

    pairs = []
    for p in base.pairs:
        decomposition = pauli.pauli_to_subset(base.graph, p.letters_dict)
        assert decomposition is not None  # certified above
        subset, _ = decomposition
        stab = inflated_stabilizer(ig, subset)
        letters = inflated_measurement(p.letters_dict, ig)
        mask = frozenset(v for v, _ in stab.letters)
        pairs.append(MeasurementPair.make(letters, mask, name=p.name))

    working = MeasurementSet(graph=ig.graph, d=ig.d, pairs=tuple(pairs))
    decoy_specs: list[DecoySpec] = []
    cap = max_rounds if max_rounds is not None else len(ig.graph.vertices)
    iterations = 0
    while iterations < cap:
        iterations += 1
        failures = _failing_classes(working, ig)
        if not failures:
            break
        for center in sorted(failures):
            for spec in _plan_decoys(center, failures[center]):
                decoy_specs.append(spec)
                working = MeasurementSet(
                    graph=ig.graph,
                    d=ig.d,
                    pairs=working.pairs + decoy_pair(ig, spec),
                )
    else:
        raise RuntimeError(
            "decoy completion did not converge within the iteration cap; "
            f"remaining failures: {_failing_classes(working, ig)}"
        )

    certificate = verify_paradox(working)
    if not certificate.overall:
        raise RuntimeError(
            "constructed set failed re-verification: "
            f"{certificate.to_json()}"
        )
    return BuildResult(
        measurement_set=working,
        decoy_specs=decoy_specs,
        iterations=iterations,
        certificate=certificate,
    )


def _failing_classes(
    s: MeasurementSet, ig: InflatedGraph
) -> dict[str, set[tuple[str, str]]]:
    """Odd excerpt-parity classes, grouped by the power vertex whose letter
    distinguishes them.

    Returns center -> set of (far power vertex, letter at center).  Failures
    only ever sit on chain vertices whose excerpt contains exactly one power
    vertex; anything else means the base set was not certified.
    """
    failures: dict[str, set[tuple[str, str]]] = {}
    for w in s.graph.vertices:
        odd = [e for e, c in comm_parity_classes(s, w).items() if c % 2]
        if not odd:
            continue
        if w not in ig.chain_index:
            raise RuntimeError(f"unexpected excerpt-parity failure at power vertex {w!r}")
        local = ball(s.graph, w, s.d)
        powers = [u for u in local if ig.is_power(u)]
        if len(powers) != 1:
            raise RuntimeError(
                f"excerpt-parity failure at {w!r} with power ball {powers!r}"
            )
        center = powers[0]
        pos = local.index(center)
        edge, _ = ig.chain_index[w]
        far = edge[0] if edge[1] == center else edge[1]
        for e in odd:
            failures.setdefault(center, set()).add((far, e[pos]))
    return failures


def _plan_decoys(center: str, failing: set[tuple[str, str]]) -> list[DecoySpec]:
    """Peel the failing (branch, letter) table into 2x2 rectangles.

    Each decoy pair flips the four cells {b1,b2} x {s1,s2}; the table always
    has even row and column sums, so peeling terminates.
    """
    table = set(failing)
    specs = []
    guard = 0
    while table:
        guard += 1
        if guard > 4 * len(failing) + 16:
            raise RuntimeError(f"decoy planning stalled for center {center!r}")
        b1, s1 = min(table)
        s2 = min(s for b, s in table if b == b1 and s != s1)
        b2 = min(b for b, s in table if s == s1 and b != b1)
        for cell in ((b1, s1), (b1, s2), (b2, s1), (b2, s2)):
            table.symmetric_difference_update({cell})
        specs.append(DecoySpec(center=center, neighbors=(b1, b2), letters=(s1, s2)))
    return specs


# GF(2) row offset of each non-identity (x, z) letter at a vertex.
_LETTER_ROW = {(1, 0): 0, (1, 1): 1, (0, 1): 2}


def find_base_set(g: Graph, max_size: int | None = None) -> MeasurementSet | None:
    """Best-effort search for a full-mask d=0 paradox set on a base graph.

    Solves, over GF(2), for a collection of stabilizer elements whose letters
    occur in pairs at every vertex and whose signs multiply to -1.  Returns
    None when no such collection exists.
    """
    n = len(g.vertices)
    if n < 3 or n > 16 or not g.is_connected:
        return None
    # Column j is the stabilizer element with x bitmask j + 1.  One GF(2)
    # row per (vertex, letter) parity, plus the sign row.
    n_columns = (1 << n) - 1
    sign_row = 3 * n
    rows = [0] * (sign_row + 1)
    for x in range(1, 1 << n):
        z, negative = pauli._stabilizer(g, x)
        bit = 1 << (x - 1)
        support = x | z
        while support:
            low = support & -support
            i = low.bit_length() - 1
            rows[3 * i + _LETTER_ROW[(x >> i) & 1, (z >> i) & 1]] |= bit
            support ^= low
        if negative:
            rows[sign_row] |= bit
    rhs = [0] * len(rows)
    rhs[sign_row] = 1
    solution = gf2.solve_with_nullspace(rows, rhs, n_columns)
    if solution is None:
        return None
    chosen_bits, null_basis = solution
    # Greedily shrink the solution: small sets keep later searches cheap.
    improved = True
    while improved:
        improved = False
        for vec in null_basis:
            candidate = chosen_bits ^ vec
            if candidate.bit_count() < chosen_bits.bit_count():
                chosen_bits = candidate
                improved = True
    chosen = [j for j in range(n_columns) if (chosen_bits >> j) & 1]
    if max_size is not None and len(chosen) > max_size:
        return None
    full = frozenset(g.vertices)
    pairs = tuple(
        MeasurementPair.make(
            pauli.subset_to_pauli(
                g, {v for i, v in enumerate(g.vertices) if ((j + 1) >> i) & 1}
            ).as_dict(),
            full,
            name=f"M{k + 1}",
        )
        for k, j in enumerate(chosen)
    )
    return MeasurementSet(graph=g, d=0, pairs=pairs)
