"""Classical models.

Three classical baselines live here:

* deterministic distance-d strategy feasibility, encoded as a GF(2) linear
  system over per-vertex outputs conditioned on local excerpts,
* exact Bell bounds via minimum-violation search over that system, for a
  set's stabilizer signs or for a binary game, a set with its own signs,
* an explicit communication-assisted hidden-variable model (uniform random
  signs on vertices, neighbour products, plus data-driven sign-flip rules)
  that reproduces all Pauli measurements on small graphs: :func:`check_model`
  compares it with the quantum value on every case, and
  :func:`search_flip_rules` finds its rules.

The independent references these are tested against (enumeration of every
strategy, explicit averaging over the hidden signs, a per-case model value)
live with the tests, in ``tests/conftest.py``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache
from importlib import resources
from operator import itemgetter
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from . import gf2, pauli
from .graph import Graph, build_graph, members
from .paradox import MeasurementPair, MeasurementSet, excerpt_rows

if TYPE_CHECKING:
    from fractions import Fraction

# ---------------------------------------------------------------------------
# Deterministic strategy systems over GF(2)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StrategySystem:
    """GF(2) encoding of deterministic distance-d strategies.

    Each variable is the log-domain output bit of one vertex for one value
    of its local excerpt.  For a measurement set (:func:`build_system`)
    variable j is excerpt class j of ``MeasurementSet.excerpt_rows``, which
    names the classes, and row k is the classes that hold pair k.  Its
    right-hand bit is 1 iff the pair's stabilizer sign is -1.  A
    deterministic strategy reproduces every sign iff the system is
    solvable.  :func:`game_bound` builds the same one with a binary game's
    signs in place of the stabilizer signs.  Raises ValueError unless there
    is one rhs bit, the int 0 or 1, per row and every row lies within the
    n_variables bits.
    """

    rows: tuple[int, ...]
    rhs: tuple[int, ...]
    n_variables: int

    def __post_init__(self) -> None:
        if len(self.rows) != len(self.rhs):
            raise ValueError(
                f"{len(self.rows)} rows but {len(self.rhs)} right-hand bits"
            )
        for k, b in enumerate(self.rhs):
            if not isinstance(b, int) or b not in (0, 1):
                raise ValueError(f"right-hand bit {k} is {b!r}, not 0 or 1")
        n = self.n_variables
        for k, row in enumerate(self.rows):
            if row >> n:  # also nonzero for a negative row
                raise ValueError(f"row {k} has a bit outside its {n} variables")


def _system(s: MeasurementSet, signs: Sequence[int]) -> StrategySystem:
    """The system of s's excerpt rows, with right-hand bit 1 iff the pair's
    sign is negative."""
    rows, classes = s.excerpt_rows
    rhs = tuple(int(sign < 0) for sign in signs)
    return StrategySystem(rows=rows, rhs=rhs, n_variables=len(classes))


def build_system(s: MeasurementSet) -> StrategySystem:
    """Encode a measurement set as a strategy-feasibility system."""
    signs = s.stabilizer_signs
    if None in signs:
        k = signs.index(None)
        raise ValueError(f"pair {s.pairs[k].name or k} has no stabilizer sign")
    return _system(s, signs)


def feasible(sys: StrategySystem) -> bool:
    """True iff some deterministic strategy satisfies every row."""
    return gf2.solve(sys.rows, sys.rhs) is not None


def min_violations(sys: StrategySystem) -> int:
    """Minimum number of unsatisfied rows over all strategies.

    The residual vectors reachable by varying the strategy form the coset
    rhs + span(columns) of the system matrix, so this is the coset's minimum
    weight, found exactly by :func:`gf2.span_min_weight` (the :mod:`gf2`
    module docstring describes the search).  Raises ValueError ("too large")
    when the search would visit more than ``gf2.MAX_COSET_STEPS`` subsets.
    """
    # Transpose through numpy: unpack the rows' little-endian bytes to a bit
    # matrix, turn it, and pack each variable's column back into an int.
    n_rows, n_vars = len(sys.rows), sys.n_variables
    n_bytes = -(-n_vars // 8)
    data = b"".join(row.to_bytes(n_bytes, "little") for row in sys.rows)
    bits = np.unpackbits(
        np.frombuffer(data, np.uint8).reshape(n_rows, n_bytes),
        axis=1,
        count=n_vars,
        bitorder="little",
    )
    data = np.packbits(bits.T, axis=1, bitorder="little").tobytes()
    stride = -(-n_rows // 8)
    columns = [
        int.from_bytes(data[j * stride : (j + 1) * stride], "little")
        for j in range(n_vars)
    ]
    target = 0
    for k, b in enumerate(sys.rhs):
        if b:
            target |= 1 << k
    return gf2.span_min_weight(columns, target)


# ---------------------------------------------------------------------------
# Bell reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BellReport:
    """Quantum value, exact classical bound, and their ratio for one set:
    qm_value and min_violations are stored, the bound and ratio derived."""

    qm_value: int
    min_violations: int

    @property
    def classical_bound(self) -> int:
        """qm_value minus two per unavoidable violation."""
        return self.qm_value - 2 * self.min_violations

    @property
    def ratio(self) -> Fraction | None:
        """qm_value / classical_bound, or None when the bound is <= 0."""
        # Imported here: fractions loads decimal, which nothing else needs.
        from fractions import Fraction

        bound = self.classical_bound
        return Fraction(self.qm_value, bound) if bound > 0 else None

    def to_json(self) -> dict:
        ratio = self.ratio
        return {
            "qm": self.qm_value,
            "bound": self.classical_bound,
            "min_violations": self.min_violations,
            "ratio": (
                f"{ratio.numerator}/{ratio.denominator}" if ratio is not None else None
            ),
        }


def bell_report(s: MeasurementSet) -> BellReport:
    """Sum-of-correlators Bell expression for the set.

    The quantum value is the pair count: every signed submeasurement has
    expectation +1 on the graph state.
    """
    return BellReport(len(s.pairs), min_violations(build_system(s)))


# ---------------------------------------------------------------------------
# Explicit communication-assisted model with sign-flip rules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FlipRule:
    """Flip the sign of one vertex's output when the measurement letters on
    its closed neighbourhood match the pattern (absent vertices match
    anything)."""

    vertex: str
    pattern: tuple[tuple[str, str], ...]

    @staticmethod
    def make(vertex: str, pattern: Mapping[str, str]) -> "FlipRule":
        return FlipRule(
            vertex=str(vertex),
            pattern=tuple(sorted((str(v), l) for v, l in pattern.items())),
        )


@dataclass(frozen=True)
class BarrettModel:
    """Uniform random signs z_v; outputs 1, z_v, prod of neighbour z, or
    their product for letters I, Z, X, Y; flip rules add measurement-
    dependent sign corrections using distance-1 information only."""

    graph: Graph
    flip_rules: tuple[FlipRule, ...] = ()

    def __post_init__(self) -> None:
        g = self.graph
        for rule in self.flip_rules:
            g.require_vertex(rule.vertex)
            closed = {rule.vertex, *g.neighbors[rule.vertex]}
            for v, letter in rule.pattern:
                if v not in closed:
                    raise ValueError(
                        f"flip rule at {rule.vertex!r} references {v!r} "
                        "twice or outside its closed neighbourhood"
                    )
                closed.remove(v)
                if letter not in pauli.LETTERS:
                    raise ValueError(f"invalid Pauli letter {letter!r}")


# ---------------------------------------------------------------------------
# Small-graph catalogue, flip-rule files, model check, rule search
# ---------------------------------------------------------------------------

SMALL_GRAPHS: dict[str, Graph] = {
    "path3": build_graph([(1, 2), (2, 3)]),
    "triangle": build_graph([(1, 2), (1, 3), (2, 3)]),
    "path4": build_graph([(1, 2), (2, 3), (3, 4)]),
    "star4": build_graph([(1, 2), (1, 3), (1, 4)]),
    "cycle4": build_graph([(1, 2), (2, 3), (3, 4), (1, 4)]),
    "paw4": build_graph([(1, 2), (1, 3), (2, 3), (1, 4)]),
    "diamond4": build_graph([(1, 2), (1, 3), (1, 4), (2, 3), (3, 4)]),
    "k4": build_graph([(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]),
}


def load_flip_rules() -> dict[str, list[FlipRule]]:
    """The bundled flip-rule catalogue, keyed by graph id."""
    text = (
        resources.files("inflated_graphs")
        .joinpath("fixtures/flip_rules.json")
        .read_text()
    )
    out: dict[str, list[FlipRule]] = {}
    for item in json.loads(text):
        out.setdefault(str(item["graph_id"]), []).append(
            FlipRule.make(item["vertex"], item["pattern"])
        )
    return out


# MAX_FLIP_VERTICES is the one size limit of both flip-model scans: every
# mask and key dtype follows from n.  check_model holds one key array over
# all 8^n (measurement, mask) cases beside its cached tables;
# search_flip_rules enumerates only one stabilizer case per row of its GF(2)
# system, but K7's 23,837 dense rows over 24,017 candidates set its peak.
# Measured in fresh processes on a 2-core x86_64 machine (about 29 MB RSS
# after import): check_model takes 0.006-0.016 s and peaks at 35 MB RSS on
# K7 and on the 7-path with and without chords (1,4) and (3,7);
# search_flip_rules takes 0.004-0.005 s and 28 MB on those paths and
# 0.12-0.13 s and 74 MB on K7.  With the limit patched to 8, check_model
# (uint16 keys) takes 0.05-0.09 s and peaks at 125 MB on the 8-path and the
# star K1,7, and the search takes 0.01 s and 28 MB on the 8-path and
# 0.23-0.34 s and 96 MB on K1,7.  The limit stays 7: at 8, K8's dense search
# rows need the system split into connected components first.
MAX_FLIP_VERTICES = 7


def _require_flip_size(g: Graph) -> int:
    """The vertex count of g; ValueError above MAX_FLIP_VERTICES."""
    n = len(g.vertices)
    if n > MAX_FLIP_VERTICES:
        raise ValueError(
            f"the flip-model scans are limited to {MAX_FLIP_VERTICES} "
            f"vertices (their time and memory grow exponentially with the "
            f"vertex count); the graph has {n}"
        )
    return n


def _cases(g: Graph) -> list[tuple[int, int, int, int, bool]]:
    """The rule search's cases: one stabilizer case (x, z, m) on g per
    distinct row of the search, in the 8^n case order (measurements over
    IXYZ**n with the first vertex most significant, then masks ascending).

    These are the stabilizer cases whose mask m is their measured set
    (x | z) & m and whose letters are I off the union of the closed
    neighbourhoods of m.  Such a case measures exactly the support of the
    stabilizer element generated by s = x & m, so m = s | z_s and z & m =
    z_s for (z_s, negative) = ``pauli._stabilizer(g, s)``: one case per s
    and choice of letters on that union off m.  Every stabilizer case
    (x, z, m') has one of them with the same measured set, the same letters
    on the union and the same sign, no later in case order: mask
    (x | z) & m', letters set to I off the union.

    Returns sorted tuples (case, x, z, m, negative): the index in that
    order, the bitmasks over ``g.index`` and the stabilizer sign.  With
    spread[b] the base-4 number whose digit is 1 at each vertex of b (the
    first vertex most significant), a measurement's index is
    spread[x ^ z] + 2 * spread[z]: I, X, Y and Z have (x ^ z, z) =
    (0, 0), (1, 0), (0, 1) and (1, 1).
    """
    n = _require_flip_size(g)
    spread = [0]
    union = [0]  # the closed neighbourhoods of each mask
    for i, closed in enumerate(g.ball_masks(1)):
        digit = 4 ** (n - 1 - i)
        spread += [v + digit for v in spread]
        union += [u | closed for u in union]
    cases = []
    for s in range(1 << n):
        z, negative = pauli._stabilizer(g, s)
        m = s | z
        base = spread[s ^ z] + 2 * spread[z]
        off = union[m] & ~m
        subsets = [off]  # every subset of off, walked down from off
        while subsets[-1]:
            subsets.append((subsets[-1] - 1) & off)
        for a in subsets:  # x off m
            for b in subsets:  # z off m
                case = (base + spread[a ^ b] + 2 * spread[b]) << n | m
                cases.append((case, s | a, z | b, m, negative))
    cases.sort()
    return cases


@cache
def _check_tables(n: int) -> tuple[np.ndarray, ...]:
    """:func:`check_model`'s graph-free tables on n vertices, read-only, in
    the smallest unsigned dtype that holds n + 1 bits (its keys).

    x and z are the bitmasks of measurement row L, which spells IXYZ**n
    with the first vertex most significant; over the masks m,
    meet[s, m] = s & m, odd[f, m] is the parity of popcount(f & m) in bit
    n, and zm[L, m] = z[L] & m.
    """
    dtype = np.min_scalar_type((2 << n) - 1)
    x = z = np.zeros(1, dtype)
    for i in range(n):
        x = (x[:, None] | np.array([0, 1, 1, 0], dtype) << i).ravel()
        z = (z[:, None] | np.array([0, 0, 1, 1], dtype) << i).ravel()
    masks = np.arange(1 << n, dtype=dtype)
    meet = masks[:, None] & masks
    odd = (np.bitwise_count(meet) & 1).astype(dtype) << n
    zm = z[:, None] & masks
    tables = (x, z, meet, odd, zm)
    for table in tables:
        table.flags.writeable = False
    return tables


def check_model(model: BarrettModel) -> list[dict]:
    """Exhaustively compare the model to the quantum expectation.

    Scans all 4^n measurements times 2^n masks, in the order measurements
    over IXYZ**n with the first vertex most significant, then masks
    ascending.  A case (x, z, m) is stabilizer-proportional iff z & m is
    the neighbour parity of its subset s = x & m, and then its quantum value
    is the sign of :func:`pauli._stabilizer` at s.  The model's z-monomial
    comes from its own neighbour-parity table built from ``g.adjacency``,
    never from the stabilizer rule, and its sign is the parity of the rules
    that fire.  The two 2^n-entry z tables are compared first: they are two
    routes to one function of the subset, so a difference is a fault of the
    program, and RuntimeError names the first subset where they differ and
    both z sets.  Once they agree, a case's two values differ exactly when
    it is stabilizer-proportional and its signs differ.  So one key per case
    decides it, in the dtype of :func:`_check_tables`: the z-exponent left
    after cancelling z & m in bits 0..n-1, and the stabilizer sign XOR the
    model's in bit n; a mismatch is a key of exactly 1 << n.  The key reads
    (subset, mask) tables by measurement row, so no per-case index array is
    made.  The graph-free tables are :func:`check_model`'s own
    (:func:`_check_tables`); the rule search builds no table.  Returns one
    record per (measurement, mask) mismatch, in case order; empty means the
    model reproduces every Pauli measurement on the graph exactly.  Raises
    ValueError above MAX_FLIP_VERTICES vertices, before it builds any table.
    """
    g = model.graph
    n = _require_flip_size(g)
    x, z, meet, odd, zm = _check_tables(n)
    dtype = zm.dtype
    # Bit i of flips[L] is set iff an odd number of vertex i's rules match
    # row L: a rule matches the rows whose digits on its pattern are its
    # letters, one strided view of the rows laid out as a 4^n grid.  The
    # trailing Ellipsis keeps a pattern over every vertex a 0-d view, not a
    # scalar copy, so the XOR lands in the grid.
    index = g.index
    flips = np.zeros(4**n, dtype)
    grid = flips.reshape((4,) * n)
    for rule in model.flip_rules:
        where = [slice(None)] * n
        for v, letter in rule.pattern:
            where[index[v]] = pauli.LETTERS.index(letter)
        view = grid[(*where, ...)]
        view ^= 1 << index[rule.vertex]
    stabilizers = [pauli._stabilizer(g, s) for s in range(1 << n)]
    parity = [0]  # the model's neighbour parity of each subset
    for nbrs in g.adjacency:
        parity += [p ^ nbrs for p in parity]
    low = (1 << n) - 1
    rule_z = [z & low for z, _ in stabilizers]
    if rule_z != parity:
        s = next(s for s in range(1 << n) if rule_z[s] != parity[s])
        a, b = (
            f"{list(members(g.vertices, bits))} (mask {bits:#b})"
            for bits in (rule_z[s], parity[s])
        )
        raise RuntimeError(
            f"the stabilizer rule and the model's neighbour parity disagree "
            f"on subset {list(members(g.vertices, s))}: z {a} against {b}"
        )
    # take() gathers these small-int indices several times faster than
    # fancy indexing does.
    packed = np.array([z | negative << n for z, negative in stabilizers], dtype)
    key = packed.take(meet).take(x, axis=0)
    key ^= zm
    key ^= odd.take(flips, axis=0)
    mismatches = []
    for k in np.flatnonzero(key == 1 << n).tolist():
        row, m = divmod(k, 1 << n)
        rx = int(x[row])
        quantum = -1 if stabilizers[rx & m][1] else 1
        letters = pauli.letters_of(g.vertices, rx, int(z[row]))
        mismatches.append(
            {
                "letters": dict(sorted(letters.items())),
                "mask": list(members(g.vertices, m)),
                "quantum": quantum,
                "model": str(-quantum),
            }
        )
    return mismatches


def search_flip_rules(g: Graph) -> list[FlipRule] | None:
    """Rediscover a valid flip-rule set for a graph by solving, over GF(2),
    for which (vertex, closed-neighbourhood pattern) corrections make the
    model match the quantum sign on every stabilizer-proportional
    submeasurement.  Returns None if no rule set exists; raises ValueError
    above MAX_FLIP_VERTICES vertices.

    The system is :func:`paradox.excerpt_rows` over the distance-1 balls
    (the closed neighbourhoods) on :func:`_cases`, one stabilizer case per
    distinct row, first in case order: its classes (vertex i, x & closed_i,
    z & closed_i) are the candidate rules, numbered by first appearance,
    and a row's right-hand side is 1 iff its case's sign is negative.  The
    rule set returned is therefore the same in every process, and the same
    as a scan of all 8^n cases gives.  Nothing is tabulated over all
    cases: they come from :func:`pauli._stabilizer`, one subset at a time.
    """
    cases = _cases(g)
    closed = g.ball_masks(1)
    rows, candidates = excerpt_rows(closed, map(itemgetter(1, 2, 3), cases))
    # The solution does not depend on the row order (its free variables are
    # 0 and its pivots the lowest bits of the row space); rows in reverse
    # case order eliminate in fewer steps.
    chosen = gf2.solve(rows[::-1], [case[4] for case in reversed(cases)])
    if chosen is None:
        return None
    # Each rule's letters, read off its candidate's bits vertex by vertex
    # (pauli.LETTERS is indexed by (x ^ z) + 2 z); a pattern lists the
    # closed neighbourhood by vertex name, identity included.
    letters = pauli.LETTERS
    vertices = g.vertices
    by_name = sorted(zip(vertices, range(len(vertices))))
    rules = []
    for i, cx, cz in members(candidates, chosen):
        low = cx ^ cz  # the low bit of each vertex's letter index
        pattern = [
            (v, letters[(low >> k & 1) | (cz >> k & 1) << 1])
            for v, k in by_name
            if closed[i] >> k & 1
        ]
        rules.append(FlipRule(vertices[i], tuple(pattern)))
    return rules


# ---------------------------------------------------------------------------
# Binary games with one round of bounded communication
# ---------------------------------------------------------------------------


def game_bound(s: MeasurementSet, signs: Sequence[int]) -> int:
    """Exact maximum of a binary game over all deterministic distance-d
    strategies, as the Bell bound of a strategy system.

    The game is the set s with one sign per pair: its value is the sum of
    signs[k] times the product of pair k's kept outputs (a kept vertex that
    measures I outputs 1).  A vertex's view of a setting is its excerpt, so
    the system is :func:`build_system`'s, with right-hand bit signs[k] < 0
    in place of the stabilizer sign's.  A term of weight |c| is that pair
    listed |c| times.  The maximum is the pair count minus twice
    :func:`min_violations`, which raises ValueError ("too large") past
    ``gf2.MAX_COSET_STEPS``.  Raises ValueError on a sign other than +1 or
    -1.
    """
    for k, sign in enumerate(signs):
        if sign not in (1, -1):
            raise ValueError(f"term {k} has sign {sign!r}, not +1 or -1")
    return len(signs) - 2 * min_violations(_system(s, signs))


def chsh_game(d: int = 1) -> tuple[MeasurementSet, tuple[int, ...]]:
    """The 4-path two-setting game at distance d, as a measurement set and
    its signs: vertex 1 chooses between two rotation angles, vertex 4
    between X and Y, and vertices 2 and 3 always measure X.  Pair k is the
    term of setting k, with vertex 1's choice k % 2 and vertex 4's k // 2;
    vertex 3's output enters only the last two.

    The letters only label settings, and only ``excerpt_rows`` reads them:
    vertex 1's two angles are written X and Y.  The near terms leave vertex
    3 out of the mask, not out of the letters, so each vertex's excerpt is
    the settings it sees within distance d, whichever term it is in.
    """
    g = build_graph([(1, 2), (2, 3), (3, 4)])
    # Bits over g.vertices, vertex "1" at bit 0: every vertex measures X or
    # Y, so x is all four bits and z holds vertex 1's choice (bit 0) and
    # vertex 4's (bit 3); a near term's mask leaves out bit 2.
    pairs = tuple(
        MeasurementPair(
            g.vertices, 0b1111, k % 2 | k // 2 << 3, 0b1011 if k < 2 else 0b1111
        )
        for k in range(4)
    )
    return MeasurementSet(g, d, pairs), (1, -1, 1, 1)
