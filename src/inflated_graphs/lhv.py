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
from typing import Iterator, Mapping

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
    n_rows = len(sys.rows)
    columns = []
    for j in range(sys.n_variables):
        col = 0
        for k in range(n_rows):
            if (sys.rows[k] >> j) & 1:
                col |= 1 << k
        columns.append(col)
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
            support = sum(1 << g.index[v] for v in letters)
            masks.append((1 << g.index[rule.vertex], support, x, z))
        return tuple(masks)


def _model_value(model: BarrettModel, x: int, z: int, m: int) -> int:
    """Exact model expectation of measurement (x, z) under mask m.

    The masked output product is the flip sign times the z-monomial with
    exponent z & m plus the neighbour parity of x & m; averaging over the
    uniform z-assignment gives the sign when the exponent vanishes and 0
    otherwise.  The parity is walked here, not taken from
    pauli._stabilizer, because check_model compares the two.
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
    negative = False
    for bit, support, px, pz in model._rule_masks:
        if m & bit and x & support == px and z & support == pz:
            negative = not negative
    return -1 if negative else 1


def barrett_expectation(model: BarrettModel, pair: MeasurementPair) -> Fraction:
    """Exact model expectation of the masked output product."""
    g = model.graph
    x, z = pauli.to_xz(g, pair.letters_dict)
    m, _ = pauli.to_xz(g, dict.fromkeys(pair.mask, "X"))
    return Fraction(_model_value(model, x, z, m))


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


MAX_FLIP_VERTICES = 7  # 8**n cases: about 3 s at 7 vertices, 30 s at 8


def _cases(g: Graph) -> Iterator[tuple[int, int, int]]:
    """Every (measurement, mask) case on g as bitmasks (x, z, m) over
    ``g.index``: measurements over IXYZ**n with the first vertex most
    significant, then masks ascending."""
    n = len(g.vertices)
    if n > MAX_FLIP_VERTICES:
        raise ValueError(
            f"the flip-model scan walks all 8^n cases and is limited to "
            f"{MAX_FLIP_VERTICES} vertices; the graph has {n}"
        )
    for letters in itertools.product(pauli.LETTERS, repeat=n):
        x, z = pauli.to_xz(g, dict(zip(g.vertices, letters)))
        for m in range(1 << n):
            yield x, z, m


def check_model(model: BarrettModel) -> list[dict]:
    """Exhaustively compare the model to the quantum expectation.

    Returns one record per (measurement, mask) mismatch; empty means the
    model reproduces every Pauli measurement on the graph exactly.  Raises
    ValueError above MAX_FLIP_VERTICES vertices.
    """
    mismatches = []
    g = model.graph
    for x, z, m in _cases(g):
        expected, negative = pauli._stabilizer(g, x & m)
        quantum = (-1 if negative else 1) if z & m == expected else 0
        classical = _model_value(model, x, z, m)
        if classical != quantum:
            mismatches.append(
                {
                    "letters": dict(sorted(pauli.to_letters(g, x, z).items())),
                    "mask": sorted(pauli.to_letters(g, m, 0)),
                    "quantum": quantum,
                    "model": str(classical),
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

    Candidates are numbered in case order, vertices in ``g.index`` order,
    so the rule set returned is the same in every process.
    """
    closed = [(1 << i) | nbrs for i, nbrs in enumerate(g.adjacency)]
    candidates: dict[tuple[int, int, int], int] = {}
    rows: list[int] = []
    rhs: list[int] = []
    for x, z, m in _cases(g):
        expected, negative = pauli._stabilizer(g, x & m)
        if z & m != expected:
            continue
        measured = (x | z) & m
        row = 0
        for i, c in enumerate(closed):
            if (measured >> i) & 1:
                j = candidates.setdefault((i, x & c, z & c), len(candidates))
                row ^= 1 << j
        rows.append(row)
        rhs.append(int(negative))
    chosen = gf2.solve(rows, rhs, len(candidates))
    if chosen is None:
        return None
    rules = []
    for (i, x, z), j in candidates.items():
        if (chosen >> j) & 1:
            v = g.vertices[i]
            letters = pauli.to_letters(g, x, z)
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


def game_bound(game: BinaryGame) -> int:
    """Exact maximum over all deterministic communication-assisted
    strategies, by exhaustive enumeration."""
    domains: list[list[tuple[int, ...]]] = []
    for v in game.vertices:
        idxs = game.visible_of(v)
        seen = sorted({tuple(s[i] for i in idxs) for s in game.settings})
        domains.append(seen)
    best = None
    choice_spaces = [
        list(itertools.product((1, -1), repeat=len(dom))) for dom in domains
    ]
    for assignment in itertools.product(*choice_spaces):
        tables = [
            dict(zip(dom, outs)) for dom, outs in zip(domains, assignment)
        ]
        value = 0
        for coeff, k, mask in game.terms:
            s = game.settings[k]
            product = coeff
            for i, v in enumerate(game.vertices):
                if v in mask:
                    idxs = game.visible_of(v)
                    product *= tables[i][tuple(s[j] for j in idxs)]
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
