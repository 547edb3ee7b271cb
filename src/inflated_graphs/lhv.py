"""Classical-model oracles.

Four independent classical baselines live here:

* deterministic distance-d strategy feasibility, encoded as a GF(2) linear
  system over per-vertex outputs conditioned on local excerpts,
* exact Bell bounds via minimum-violation search over that system,
* an explicit communication-assisted hidden-variable model (uniform random
  signs on vertices, neighbour products, plus data-driven sign-flip rules)
  that reproduces all Pauli measurements on small graphs,
* brute force over two-setting binary games with one round of bounded
  communication.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from importlib import resources
from typing import Iterable, Mapping

import numpy as np

from . import gf2, pauli
from .graph import Graph, ball, build_graph
from .paradox import MeasurementPair, MeasurementSet

# ---------------------------------------------------------------------------
# Deterministic strategy systems over GF(2)
# ---------------------------------------------------------------------------

StrategyVariable = tuple[str, tuple[int, int]]  # (vertex, excerpt class key)


@dataclass(frozen=True)
class StrategySystem:
    """GF(2) encoding of deterministic distance-d strategies.

    Variable (v, e) is the log-domain output bit of vertex v when its local
    excerpt is e: one variable per excerpt class of
    ``MeasurementSet.excerpt_classes``.  Row k collects the variables of the
    classes that hold pair k; its right-hand bit is 1 iff the pair's
    stabilizer sign is -1.  A deterministic strategy reproduces every sign
    iff the system is solvable.
    """

    variables: tuple[StrategyVariable, ...]
    rows: tuple[int, ...]
    rhs: tuple[int, ...]

    @property
    def n_variables(self) -> int:
        return len(self.variables)


def build_system(s: MeasurementSet) -> StrategySystem:
    """Encode a measurement set as a strategy-feasibility system."""
    signs = s.stabilizer_signs
    if None in signs:
        k = signs.index(None)
        raise ValueError(f"pair {s.pairs[k].name or k} has no stabilizer sign")
    variables: list[StrategyVariable] = []
    rows = [0] * len(s.pairs)
    for v, classes in s.excerpt_classes.items():
        for key, ks in classes.items():
            for k in ks:
                rows[k] |= 1 << len(variables)
            variables.append((v, key))
    rhs = tuple(0 if sign == 1 else 1 for sign in signs)
    return StrategySystem(variables=tuple(variables), rows=tuple(rows), rhs=rhs)


def feasible(sys: StrategySystem) -> bool:
    """True iff some deterministic strategy satisfies every row."""
    return gf2.solve(list(sys.rows), list(sys.rhs), sys.n_variables) is not None


def min_violations(sys: StrategySystem) -> int:
    """Minimum number of unsatisfied rows over all strategies.

    The residual vectors reachable by varying the strategy form the coset
    rhs + span(columns) of the system matrix, so this is the coset's minimum
    weight.  :func:`gf2.span_min_weight` finds it exactly by an
    information-set search: it visits coset vectors by increasing weight on
    several systematic forms of the span and stops once the best weight
    found is at or below the weight every unvisited vector must have.
    Raises ValueError ("too large") when that would take more than
    ``gf2.MAX_COSET_STEPS`` steps.
    """
    # Transpose by walking each row's set bits.
    columns = [0] * sys.n_variables
    for k, row in enumerate(sys.rows):
        bit = 1 << k
        while row:
            low = row & -row
            columns[low.bit_length() - 1] |= bit
            row ^= low
    target = 0
    for k, b in enumerate(sys.rhs):
        if b:
            target |= 1 << k
    return gf2.span_min_weight(columns, target)


def min_violations_brute_force(sys: StrategySystem) -> int:
    """Independent oracle: enumerate all 2^n strategy assignments."""
    if sys.n_variables > 20:
        raise ValueError("instance too large for direct enumeration")
    best = len(sys.rows)
    for x in range(1 << sys.n_variables):
        bad = 0
        for row, b in zip(sys.rows, sys.rhs):
            if ((row & x).bit_count() & 1) != b:
                bad += 1
        best = min(best, bad)
        if best == 0:
            break
    return best


# ---------------------------------------------------------------------------
# Bell reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BellReport:
    """Quantum value, exact classical bound, and their ratio for one set."""

    qm_value: int
    classical_bound: int
    min_violations: int
    ratio: Fraction | None

    def to_json(self) -> dict:
        return {
            "qm": self.qm_value,
            "bound": self.classical_bound,
            "min_violations": self.min_violations,
            "ratio": (
                f"{self.ratio.numerator}/{self.ratio.denominator}"
                if self.ratio is not None
                else None
            ),
        }


def bell_report(s: MeasurementSet) -> BellReport:
    """Sum-of-correlators Bell expression for the set.

    The quantum value is the pair count (every signed submeasurement has
    expectation +1 on the graph state); the classical bound subtracts two
    per unavoidable violation.
    """
    sys = build_system(s)
    mv = min_violations(sys)
    qm = len(s.pairs)
    bound = qm - 2 * mv
    ratio = Fraction(qm, bound) if bound > 0 else None
    return BellReport(
        qm_value=qm,
        classical_bound=bound,
        min_violations=mv,
        ratio=ratio,
    )


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

    def matches(self, letters: Mapping[str, str]) -> bool:
        return all(letters.get(v, "I") == l for v, l in self.pattern)


@dataclass(frozen=True)
class BarrettModel:
    """Uniform random signs z_v; outputs 1, z_v, prod of neighbour z, or
    their product for letters I, Z, X, Y; flip rules add measurement-
    dependent sign corrections using distance-1 information only."""

    graph: Graph
    flip_rules: tuple[FlipRule, ...] = ()

    def __post_init__(self) -> None:
        self._rule_masks  # compiling the rules validates them

    @cached_property
    def _rule_masks(self) -> tuple[tuple[int, int, int, int], ...]:
        """Each rule as (vertex bit, pattern support, pattern x, pattern z)
        over ``graph.index``."""
        g = self.graph
        masks = []
        for rule in self.flip_rules:
            g.require_vertex(rule.vertex)
            closed = {rule.vertex, *g.neighbors[rule.vertex]}
            for v, _ in rule.pattern:
                if v not in closed:
                    raise ValueError(
                        f"flip rule at {rule.vertex!r} references {v!r} "
                        "twice or outside its closed neighbourhood"
                    )
                closed.remove(v)
            letters = dict(rule.pattern)
            x, z = pauli.to_xz(g, letters)
            support = g.bits_of(letters)
            masks.append((1 << g.index[rule.vertex], support, x, z))
        return tuple(masks)


def _model_value(model: BarrettModel, x: int, z: int, m: int) -> int:
    """Exact model expectation of measurement (x, z) under mask m.

    The masked output product is the flip sign times the z-monomial with
    exponent z & m plus the neighbour parity of x & m; averaging over the
    uniform z-assignment gives the sign when the exponent vanishes and 0
    otherwise.  The parity is walked here, not taken from
    pauli._stabilizer, so the model stays independent of the rule it is
    compared with; :func:`check_model` reads the same parities off a table.
    """
    adjacency = model.graph.adjacency
    exponent = z & m
    rest = x & m
    while rest:
        low = rest & -rest
        exponent ^= adjacency[low.bit_length() - 1]
        rest ^= low
    if exponent:
        return 0
    return -1 if _flipped(model, x, z, m) else 1


def _flipped(model: BarrettModel, x: int, z: int, m: int) -> bool:
    """Whether an odd number of the model's rules fire on case (x, z, m):
    a rule fires when the mask holds its vertex and the letters match its
    pattern."""
    negative = False
    for bit, support, px, pz in model._rule_masks:
        if m & bit and x & support == px and z & support == pz:
            negative = not negative
    return negative


def barrett_expectation(model: BarrettModel, pair: MeasurementPair) -> Fraction:
    """Exact model expectation of the masked output product."""
    g = model.graph
    x, z = pauli.to_xz(g, pair.letters_dict)
    return Fraction(_model_value(model, x, z, g.bits_of(pair.mask)))


def barrett_expectation_sampled(
    model: BarrettModel, pair: MeasurementPair
) -> Fraction:
    """Independent oracle: average the output product over all 2^n hidden
    sign assignments explicitly."""
    g = model.graph
    n = len(g.vertices)
    if n > 16:
        raise ValueError("instance too large for explicit averaging")
    letters = pair.letters_dict
    flip_sign = 1
    for rule in model.flip_rules:
        if rule.vertex in pair.mask and rule.matches(letters):
            flip_sign = -flip_sign
    total = 0
    for bits in range(1 << n):
        z = {v: -1 if (bits >> i) & 1 else 1 for i, v in enumerate(g.vertices)}
        product = flip_sign
        for v in pair.mask:
            letter = letters.get(v, "I")
            if letter == "I":
                continue
            x = 1
            for u in g.neighbors[v]:
                x *= z[u]
            if letter == "Z":
                product *= z[v]
            elif letter == "X":
                product *= x
            else:  # Y
                product *= x * z[v]
        total += product
    return Fraction(total, 1 << n)


# ---------------------------------------------------------------------------
# Small-graph catalogue, flip-rule files, automorphisms, rule search
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


def automorphisms(g: Graph) -> list[dict[str, str]]:
    """All vertex permutations preserving the edge set (brute force)."""
    result = []
    for perm in itertools.permutations(g.vertices):
        mapping = dict(zip(g.vertices, perm))
        if all(
            (mapping[u], mapping[v]) in g.edges
            or (mapping[v], mapping[u]) in g.edges
            for u, v in g.edges
        ):
            result.append(mapping)
    return result


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


# The flip-model scans hold numpy arrays over all 8^n cases.  At 7 vertices
# (2.1 M cases) on a 2-core x86_64 machine, check_model takes 0.02-0.03 s
# and a fresh process running it peaks at 41 MB RSS (K7, and a 7-path with
# chords (1,4) and (3,7)); search_flip_rules takes 0.04 s and 43 MB on that
# path and 0.3-0.4 s and 107 MB on K7, whose dense GF(2) rows set the peak.
# 8 vertices would need eight times the arrays (8^8 = 16.8 M cases), so the
# cap guards memory.
MAX_FLIP_VERTICES = 7


def _require_flip_size(g: Graph) -> int:
    """The vertex count of g; ValueError above MAX_FLIP_VERTICES."""
    n = len(g.vertices)
    if n > MAX_FLIP_VERTICES:
        raise ValueError(
            f"the flip-model scan walks all 8^n cases and is limited to "
            f"{MAX_FLIP_VERTICES} vertices; the graph has {n}"
        )
    return n


def _cases(g: Graph) -> tuple[np.ndarray, ...]:
    """The rule search's table: every (measurement, mask) case on g as
    uint8 bitmask arrays x, z, m over ``g.index``, in the order
    measurements over IXYZ**n with the first vertex most significant, then
    masks ascending; and the stabilizer table of :func:`pauli._stabilizer`
    over all 2^n vertex subsets, as arrays stab_z and stab_negative indexed
    by the subset's bitmask.  A case is stabilizer-proportional iff
    z & m == stab_z[x & m].  :func:`check_model` builds its own tables."""
    n = _require_flip_size(g)
    # Letter digit d of vertex i (0..3 for I, X, Y, Z) has x = d ^ (d >> 1)
    # and z = d >> 1 in its low bit.
    codes = np.arange(4**n)
    x_of = np.zeros(4**n, np.uint8)
    z_of = np.zeros(4**n, np.uint8)
    for i in range(n):
        d = (codes >> (2 * (n - 1 - i))) & 3
        x_of |= (((d ^ (d >> 1)) & 1) << i).astype(np.uint8)
        z_of |= ((d >> 1) << i).astype(np.uint8)
    masks = np.arange(1 << n, dtype=np.uint8)
    stabilizers = [pauli._stabilizer(g, s) for s in range(1 << n)]
    return (
        np.repeat(x_of, 1 << n),
        np.repeat(z_of, 1 << n),
        np.tile(masks, 4**n),
        np.array([z for z, _ in stabilizers], np.uint8),
        np.array([negative for _, negative in stabilizers], bool),
    )


def _subset_table(values: Iterable[int], n: int, combine: np.ufunc) -> np.ndarray:
    """Entry s combines values[i] over the bits i of s (by the bitwise
    ufunc combine), for all 2^n bitmasks s."""
    table = np.zeros(1 << n, np.uint8)
    for i, value in enumerate(values):
        table[1 << i : 2 << i] = combine(table[: 1 << i], value)
    return table


def _key_value(key: int) -> int:
    """The expectation a :func:`check_model` key stands for."""
    if key & 0x7F:
        return 0
    return -1 if key & 0x80 else 1


def check_model(model: BarrettModel) -> list[dict]:
    """Exhaustively compare the model to the quantum expectation.

    Scans all 4^n measurements times 2^n masks, in the order measurements
    over IXYZ**n with the first vertex most significant, then masks
    ascending.  Each side gives a case a uint8 key: the z-exponent left
    after cancelling z & m in bits 0-6 (n <= 7), and the sign in bit 7.
    The quantum key comes from the stabilizer table of pauli._stabilizer at
    x & m.  The model key comes from its own neighbour-parity table built
    from ``g.adjacency``, never from pauli._stabilizer, so the two stay
    independent routes; its sign is the parity of the rules that fire.
    Both read (subset, mask) tables by measurement row, so no per-case
    index array is made.  Returns one record per (measurement, mask)
    mismatch, in case order; empty means the model reproduces every Pauli
    measurement on the graph exactly.  Raises ValueError above
    MAX_FLIP_VERTICES vertices.
    """
    g = model.graph
    n = _require_flip_size(g)
    # Measurement row L spells IXYZ**n, first vertex most significant.
    x = z = np.zeros(1, np.uint8)
    for i in range(n):
        x = (x[:, None] | np.array([0, 1, 1, 0], np.uint8) << i).ravel()
        z = (z[:, None] | np.array([0, 0, 1, 1], np.uint8) << i).ravel()
    # Bit i of flips[L] is set iff an odd number of vertex i's rules match
    # row L: a rule matches the rows whose digits on its pattern are its
    # letters, one strided slice of the rows laid out as a 4^n grid.
    flips = np.zeros(4**n, np.uint8)
    grid = flips.reshape((4,) * n)
    for rule in model.flip_rules:
        where = [slice(None)] * n
        for v, letter in rule.pattern:
            where[g.index[v]] = "IXYZ".index(letter)
        grid[tuple(where)] ^= 1 << g.index[rule.vertex]
    masks = np.arange(1 << n, dtype=np.uint8)
    meet = masks[:, None] & masks  # meet[s, m] = s & m
    stabilizers = [pauli._stabilizer(g, s) for s in range(1 << n)]
    packed = np.array([sz | neg << 7 for sz, neg in stabilizers], np.uint8)
    parity = _subset_table(g.adjacency, n, np.bitwise_xor)
    odd = (np.bitwise_count(meet) & 1) << 7  # fired rules' parity, in bit 7
    zm = z[:, None] & masks
    quantum = packed[meet][x]
    quantum ^= zm
    classical = parity[meet][x]
    classical ^= zm
    classical ^= odd[flips]
    del zm
    # Keys with low bits stand for 0, so two keys disagree iff they differ
    # and one of them has none.
    differ = (quantum != classical) & (
        np.minimum(quantum << 1, classical << 1) == 0
    )
    mismatches = []
    for k in np.flatnonzero(differ).tolist():
        row, m = divmod(k, 1 << n)
        letters = pauli.to_letters(g, int(x[row]), int(z[row]))
        mismatches.append(
            {
                "letters": dict(sorted(letters.items())),
                "mask": sorted(pauli.to_letters(g, m, 0)),
                "quantum": _key_value(int(quantum.flat[k])),
                "model": str(_key_value(int(classical.flat[k]))),
            }
        )
    return mismatches


def verify_small_graphs() -> dict:
    """Check the flip-rule model on every connected graph with 3-4 vertices.

    Each graph is scanned over all 4^n measurements times 2^n masks; the
    report lists any mismatch against the exact quantum expectation.
    """
    rules_by_graph = load_flip_rules()
    report: dict[str, dict] = {}
    for graph_id, g in SMALL_GRAPHS.items():
        rules = tuple(rules_by_graph.get(graph_id, ()))
        model = BarrettModel(graph=g, flip_rules=rules)
        mismatches = check_model(model)
        n = len(g.vertices)
        report[graph_id] = {
            "vertices": n,
            "rules": len(rules),
            "checked": (4**n) * (2**n),
            "mismatches": mismatches,
        }
    report["ok"] = all(
        not entry["mismatches"]
        for key, entry in report.items()
        if key != "ok"
    )
    return report


def search_flip_rules(g: Graph) -> list[FlipRule] | None:
    """Rediscover a valid flip-rule set for a graph by solving, over GF(2),
    for which (vertex, closed-neighbourhood pattern) corrections make the
    model match the quantum sign on every stabilizer-proportional
    submeasurement.  Returns None if no rule set exists; raises ValueError
    above MAX_FLIP_VERTICES vertices.

    The stabilizer cases are picked out of the :func:`_cases` table.  Each
    gives one row: the candidates (vertex i, x & closed_i, z & closed_i) of
    its measured vertices, right-hand side 1 iff its sign is negative.
    Candidates are numbered by first appearance in case order, vertices in
    ``g.index`` order, so the rule set returned is the same in every
    process.  Duplicate rows are dropped.
    """
    n = len(g.vertices)
    x, z, m, stab_z, stab_negative = _cases(g)
    subset = x & m
    stabilizer = np.flatnonzero(z & m == stab_z[subset])
    x, z, m = x[stabilizer], z[stabilizer], m[stabilizer]
    negative = stab_negative[subset[stabilizer]]
    measured = (x | z) & m
    closed = [(1 << i) | nbrs for i, nbrs in enumerate(g.adjacency)]

    def key(i: int, x: np.ndarray, z: np.ndarray) -> np.ndarray:
        """Index of candidate (vertex i, x & closed_i, z & closed_i)."""
        c = closed[i]
        return (i << 2 * n) | ((x & c).astype(np.int32) << n) | (z & c)

    # First case holding each candidate; keys of different vertices differ,
    # so laying the keys out by (first case, vertex) gives their order of
    # first appearance.
    first = np.full(n << 2 * n, x.size)
    for i in range(n):
        held = np.flatnonzero(measured & (1 << i))
        np.minimum.at(first, key(i, x[held], z[held]), held)
    seen = np.flatnonzero(first < x.size)
    layout = np.full((x.size, n), -1, np.int32)
    layout[first[seen], seen >> 2 * n] = seen
    order = layout[layout >= 0]
    number = np.full(n << 2 * n, -1)
    number[order] = np.arange(order.size)

    # A row is determined by the measured set and the letters on the union
    # of its closed neighbourhoods, and determines them.  These fix
    # x & m = x & measured, hence the sign: copies of a row agree, and one
    # is kept.
    union = _subset_table(closed, n, np.bitwise_or)[measured]
    row_key = (
        (measured.astype(np.int32) << 2 * n)
        | ((x & union).astype(np.int32) << n)
        | (z & union)
    )
    rhs = np.full(1 << 3 * n, -1, np.int8)
    rhs[row_key] = negative
    distinct = np.flatnonzero(rhs >= 0)
    low = (1 << n) - 1
    measured, x, z = distinct >> 2 * n, (distinct >> n) & low, distinct & low
    rows = np.zeros(distinct.size, object)
    for i in range(n):
        held = np.flatnonzero(measured & (1 << i))
        j = number[key(i, x[held], z[held])]
        rows[held] += np.left_shift(1, j.astype(object))
    chosen = gf2.solve(rows.tolist(), rhs[distinct].tolist(), order.size)
    if chosen is None:
        return None
    rules = []
    for j, k in enumerate(order.tolist()):
        if (chosen >> j) & 1:
            v = g.vertices[k >> 2 * n]
            letters = pauli.to_letters(g, (k >> n) & low, k & low)
            rules.append(
                FlipRule.make(
                    v, {u: letters.get(u, "I") for u in (v, *g.neighbors[v])}
                )
            )
    return rules


# ---------------------------------------------------------------------------
# Binary games with one round of bounded communication
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BinaryGame:
    """A sum of correlators over joint binary settings, with per-vertex
    visibility of the settings."""

    vertices: tuple[str, ...]
    visible: tuple[tuple[str, tuple[int, ...]], ...]  # vertex -> input indices
    settings: tuple[tuple[int, ...], ...]
    terms: tuple[tuple[int, int, frozenset[str]], ...]  # (coeff, setting, mask)

    def visible_of(self, v: str) -> tuple[int, ...]:
        return dict(self.visible)[v]


# Assignments game_bound may enumerate: the 2^16 of chsh_game(3) take about
# 0.05 s on a 2-core x86_64 machine.
MAX_GAME_ASSIGNMENTS = 1 << 17


def game_bound(game: BinaryGame) -> int:
    """Exact maximum over all deterministic communication-assisted
    strategies, by exhaustive enumeration.

    Raises ValueError ("too large") before it starts when there are more
    than MAX_GAME_ASSIGNMENTS assignments.
    """
    visible = [game.visible_of(v) for v in game.vertices]
    domains = [
        sorted({tuple(s[j] for j in idxs) for s in game.settings})
        for idxs in visible
    ]
    count = 1 << sum(map(len, domains))
    if count > MAX_GAME_ASSIGNMENTS:
        raise ValueError(
            f"instance too large: {count} deterministic assignments would "
            f"pass the enumeration budget of {MAX_GAME_ASSIGNMENTS}"
        )
    # Each term as its coefficient and, per vertex i of its mask, the pair
    # (i, j) with domains[i][j] the vertex's view of the term's setting;
    # assignment[i][j] is then the vertex's output on that view.
    terms = []
    for coeff, k, mask in game.terms:
        s = game.settings[k]
        lookups = tuple(
            (i, domains[i].index(tuple(s[j] for j in idxs)))
            for i, (v, idxs) in enumerate(zip(game.vertices, visible))
            if v in mask
        )
        terms.append((coeff, lookups))
    best = None
    choice_spaces = [
        list(itertools.product((1, -1), repeat=len(dom))) for dom in domains
    ]
    for assignment in itertools.product(*choice_spaces):
        value = 0
        for coeff, lookups in terms:
            product = coeff
            for i, j in lookups:
                product *= assignment[i][j]
            value += product
        if best is None or value > best:
            best = value
    assert best is not None
    return best


def chsh_game(d: int = 1) -> BinaryGame:
    """The 4-path two-setting game: vertex 1 chooses between two rotation
    angles, vertex 4 between X and Y, vertices 2-3 are fixed; vertex 3's
    output enters only the second correlator.  Visibility is one round of
    distance-d communication of the settings along the path.
    """
    g = build_graph([(1, 2), (2, 3), (3, 4)])
    vertices = ("1", "2", "3", "4")
    visible = []
    for v in vertices:
        idxs = []
        if "1" in ball(g, v, d):
            idxs.append(0)
        if "4" in ball(g, v, d):
            idxs.append(1)
        visible.append((v, tuple(idxs)))
    settings = ((0, 0), (1, 0), (0, 1), (1, 1))
    near = frozenset({"1", "2", "4"})
    full = frozenset(vertices)
    terms = (
        (1, 0, near),
        (-1, 1, near),
        (1, 2, full),
        (1, 3, full),
    )
    return BinaryGame(
        vertices=vertices,
        visible=tuple(visible),
        settings=settings,
        terms=terms,
    )


def binary_game_bound() -> int:
    """Classical bound of the 4-path game at distance 1 (bound 2)."""
    return game_bound(chsh_game(1))
