"""Constructive pipeline: inflated measurements, inflated and shell
stabilizers, and decoy measurements.  The decoys are planned from a parity
table read off the base set, so one re-verification turns any
local-model-refuting set on a base graph into a certified set refuting
distance-d communication-assisted models on the inflated graph.

Every pair is built and stored as (x, z, mask) bitmasks over the inflated
graph's index; its letters are derived only when the set is written out.
A base mask is lifted by OR-ing, per base vertex, its power-vertex bit or
the member mask of its inflated generator (the vertex plus its chain
vertices at even distance).  The member masks partition the inflated
vertices, so "X on every chain vertex" ORs in their union without the power
bits.  Names become bits only in :func:`pauli.compile_pair`, and bits become
names only through :func:`pauli.letters_of` and :func:`graph.members`.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import reduce
from operator import or_
from typing import Sequence

from . import pauli
from .graph import Graph, InflatedGraph, members
from .paradox import (
    MeasurementPair,
    MeasurementSet,
    ParadoxCertificate,
    verify_paradox,
)


@dataclass(frozen=True)
class DecoySpec:
    """A decoy-pair recipe: a power vertex, two distinct base neighbors of
    it, and two distinct letters the pair shows at the power vertex.  Only
    :func:`_plan_decoys` makes them, and the set they complete is
    re-verified."""

    center: str
    neighbors: tuple[str, str]
    letters: tuple[str, str]


@dataclass
class BuildResult:
    """Output of build_inflated_set: the set plus its re-verified certificate."""

    measurement_set: MeasurementSet
    decoy_specs: list[DecoySpec]
    certificate: ParadoxCertificate

    @property
    def iterations(self) -> int:
        """Verification rounds of the completion: the inflated pairs, then
        the pairs with decoys when any were needed."""
        return 1 + bool(self.decoy_specs)

    def report(self) -> dict:
        return {
            "pairs": len(self.measurement_set.pairs),
            "decoy_pairs": len(self.decoy_specs),
            "decoy_measurements": 2 * len(self.decoy_specs),
            "iterations": self.iterations,
            "certificate": self.certificate.to_json(),
        }


def _spread(bits: int, table: Sequence[int]) -> int:
    """OR of table[i] over the set bits i of a base-graph bitmask."""
    return reduce(or_, members(table, bits), 0)


def _member_masks(ig: InflatedGraph) -> tuple[int, ...]:
    """Per base vertex u, in base index order, the bitmask over the inflated
    graph's index of the vertices whose generators multiply to u's inflated
    generator: u itself plus the chain vertices of u's chains at even
    distance from u.  Every chain vertex is at even distance from exactly
    one end of its chain, so the masks partition the inflated vertices."""
    index = ig.graph.index
    masks = [1 << index[u] for u in ig.base.vertices]
    for name, (edge, r) in ig.chain_index.items():
        # Position r counts from edge[0], so an even r is at even distance
        # from edge[0] and an odd r at even distance 2d + 1 - r from edge[1].
        masks[ig.base.index[edge[r & 1]]] |= 1 << index[name]
    return tuple(masks)


def _decoy_pairs(
    ig: InflatedGraph, member_masks: tuple[int, ...], chain: int, spec: DecoySpec
) -> tuple[MeasurementPair, MeasurementPair]:
    """Two measurements differing only at the center vertex and sharing the
    shell stabilizer, the product of the two neighbors' inflated
    generators, as their common submeasurement.

    Both measurements carry X on every chain vertex of the graph (the shell's
    chain letters are all X or identity, so it stays a submeasurement); on
    power vertices other than the center they carry the shell's letters.
    Uniform X on chains keeps the pair in the same excerpt class as the rows
    it must cancel even when the center has further chains within distance d.
    """
    g = ig.graph
    b1, b2 = (ig.base.index[v] for v in spec.neighbors)
    shell_x = member_masks[b1] | member_masks[b2]
    shell_z, negative = pauli._stabilizer(g, shell_x)
    shell = shell_x | shell_z
    assert not (shell >> g.index[spec.center]) & 1  # identity at the center
    assert not negative  # sign +1
    assert not shell_z & chain  # X or identity on the chains
    x, z = shell_x | chain, shell_z
    out = []
    for s in spec.letters:
        cx, cz = pauli.to_xz(g, {spec.center: s})
        # The shell must be a submeasurement of the decoy measurement.
        assert ((x | cx) & shell, (z | cz) & shell) == (shell_x, shell_z)
        out.append(MeasurementPair(g.vertices, x | cx, z | cz, shell))
    return out[0], out[1]


def build_inflated_set(base: MeasurementSet, ig: InflatedGraph) -> BuildResult:
    """Inflate a certified base set and append the decoy pairs that make
    every excerpt class even; the postcondition is the re-verified
    certificate, not trust in the construction.

    The odd classes are read off the base set.  A chain vertex at odd
    distance p <= d from power vertex c, on the chain to base neighbor f,
    keeps an inflated pair exactly when f is in the pair's base subset S,
    and its excerpt there is the pair's letter at c; every other vertex
    inherits the even d=0 parity.  So center c's odd (f, letter) cells are
    the parity of the base pairs with f in S and that letter at c.
    """
    if ig.base != base.graph:
        raise ValueError("inflated graph was not built from the base set's graph")
    if base.d != 0:
        raise ValueError("base set must be a d=0 scenario")
    if len(base.graph.vertices) < 3 or not base.graph.is_connected:
        raise ValueError("base graph must have at least 3 connected vertices")
    full = (1 << len(base.graph.vertices)) - 1
    if any(m != full for _, _, m in base.pair_bits):
        raise ValueError("base set must use full submasks")
    if not verify_paradox(base).overall:
        raise ValueError("base set is not certified at d=0")

    g = ig.graph
    power = tuple(1 << g.index[v] for v in base.graph.vertices)
    member_masks = _member_masks(ig)
    # The member masks partition the inflated vertices (_member_masks).
    chain = _spread(full, member_masks) & ~_spread(full, power)
    pairs = []
    odd: defaultdict[str, set[tuple[str, str]]] = defaultdict(set)
    for p, (x, z, _) in zip(base.pairs, base.pair_bits):
        # Certified with a full mask, the pair is the stabilizer element of
        # the subset x.  Its inflated stabilizer sets the kept vertices; the
        # measurement copies the base letters and puts X on every chain.
        inflated_x = _spread(x, member_masks)
        inflated_z, _ = pauli._stabilizer(g, inflated_x)
        pairs.append(
            MeasurementPair(
                g.vertices,
                _spread(x, power) | chain,
                _spread(z, power),
                inflated_x | inflated_z,
                p.name,
            )
        )
        letters = pauli.letters_of(base.graph.vertices, x, z)
        for f in members(base.graph.vertices, x):
            for c in base.graph.neighbors[f]:
                odd[c] ^= {(f, letters.get(c, "I"))}

    decoy_specs = []
    for center in sorted(odd):
        for spec in _plan_decoys(center, odd[center]):
            decoy_specs.append(spec)
            pairs.extend(_decoy_pairs(ig, member_masks, chain, spec))
    built = MeasurementSet(graph=g, d=ig.d, pairs=tuple(pairs))
    certificate = verify_paradox(built)
    if not certificate.overall:
        raise RuntimeError(
            "constructed set failed re-verification: "
            f"{certificate.to_json()}; odd excerpt classes: "
            f"{certificate.odd_classes}"
        )
    return BuildResult(
        measurement_set=built, decoy_specs=decoy_specs, certificate=certificate
    )


def _plan_decoys(center: str, failing: set[tuple[str, str]]) -> list[DecoySpec]:
    """Peel the failing (branch, letter) table into 2x2 rectangles.

    Each decoy pair flips the four cells {b1,b2} x {s1,s2}.  The table
    always has even row and column sums, so (b1,s1), (b1,s2) and (b2,s1)
    are all present: each step removes them and toggles (b2,s2), so the
    table shrinks by 2 or 4 and peeling terminates.  Every branch in the
    table is a base neighbor of the center, and b2 != b1, s2 != s1.
    """
    table = set(failing)
    specs = []
    while table:
        b1, s1 = min(table)
        s2 = min(s for b, s in table if b == b1 and s != s1)
        b2 = min(b for b, s in table if s == s1 and b != b1)
        for cell in ((b1, s1), (b1, s2), (b2, s1), (b2, s2)):
            table.symmetric_difference_update({cell})
        specs.append(DecoySpec(center=center, neighbors=(b1, b2), letters=(s1, s2)))
    return specs


def find_base_set(g: Graph) -> MeasurementSet | None:
    """A full-mask d=0 paradox set on a connected graph: three-party GHZ
    correlations embedded through one connected vertex triple (Gühne, Tóth,
    Hyllus & Briegel, PRL 95, 120405, 2005).  Returns None when the graph
    has fewer than 3 vertices or is disconnected.

    The triple T = {a, b, c} is the connected one (at least two edges among
    its vertices) whose bitmask over ``g.index`` is smallest: smallest top
    index c, then b, then a.  The pairs are the stabilizer elements K_S,
    with full masks, of S = {a}, {b}, {c}, T when T is a triangle and of
    S = {v}, {v, u}, {v, w}, T when T is an induced path u - v - w (u < w);
    they come in ascending bitmask order and are named M1..M4.

    Why the set certifies: every vertex lies in an even number of the S, so
    the x and the z = ΓS parts of the four elements cancel vertex by
    vertex.  Outside T the letters are Z or I, so Z occurs there an even
    number of times; on T the letters are those of the triangle or the
    ghz_path3 fixture.  The sign of K_S depends only on the subgraph induced
    on T, so the four signs multiply to -1 as on the bare triangle or path.
    """
    if len(g.vertices) < 3 or not g.is_connected:
        return None
    adjacency = g.adjacency
    triple = _first_connected_triple(adjacency)
    assert triple is not None  # a connected graph on 3+ vertices has one
    a, b, c = triple
    t = (1 << a) | (1 << b) | (1 << c)
    ends = [u for u in triple if (adjacency[u] & t).bit_count() == 1]
    if ends:
        (v,) = (u for u in triple if u not in ends)
        xs = [1 << v, (1 << v) | (1 << ends[0]), (1 << v) | (1 << ends[1]), t]
    else:
        xs = [1 << a, 1 << b, 1 << c, t]
    full = (1 << len(g.vertices)) - 1
    pairs = tuple(
        MeasurementPair(g.vertices, x, pauli._stabilizer(g, x)[0], full, f"M{k + 1}")
        for k, x in enumerate(xs)
    )
    return MeasurementSet(graph=g, d=0, pairs=pairs)


def _first_connected_triple(
    adjacency: tuple[int, ...]
) -> tuple[int, int, int] | None:
    """Indices a < b < c of the connected triple with the smallest bitmask:
    for each top c and middle b, the smallest a joined to b or c when b and
    c are adjacent, else joined to both."""
    for c in range(2, len(adjacency)):
        for b in range(1, c):
            if (adjacency[b] >> c) & 1:
                lower = adjacency[b] | adjacency[c]
            else:
                lower = adjacency[b] & adjacency[c]
            lower &= (1 << b) - 1
            if lower:
                return (lower & -lower).bit_length() - 1, b, c
    return None
