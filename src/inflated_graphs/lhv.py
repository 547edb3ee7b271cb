"""Classical-model oracles.

Three independent classical baselines live here:

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
from importlib import resources
from typing import Iterable, Mapping, Sequence

from . import gf2, pauli
from .graph import Graph, build_graph, distance
from .paradox import (
    MeasurementPair,
    MeasurementSet,
    check_stabilizer_signs,
    excerpt,
)

# ---------------------------------------------------------------------------
# Deterministic strategy systems over GF(2)
# ---------------------------------------------------------------------------

StrategyVariable = tuple[str, tuple[str, ...]]  # (vertex, local excerpt)


@dataclass(frozen=True)
class StrategySystem:
    """GF(2) encoding of deterministic distance-d strategies.

    Variable (v, e) is the log-domain output bit of vertex v when its local
    excerpt is e.  Row k collects the variables of pair k's masked-in,
    non-identity vertices; its right-hand bit is 1 iff the pair's stabilizer
    sign is -1.  A deterministic strategy reproduces every sign iff the
    system is solvable.
    """

    variables: tuple[StrategyVariable, ...]
    rows: tuple[int, ...]
    rhs: tuple[int, ...]

    @property
    def n_variables(self) -> int:
        return len(self.variables)


def build_system(s: MeasurementSet) -> StrategySystem:
    """Encode a measurement set as a strategy-feasibility system."""
    signs = check_stabilizer_signs(s)
    supports: list[list[StrategyVariable]] = []
    var_set: set[StrategyVariable] = set()
    for p, sign in zip(s.pairs, signs):
        if sign is None:
            raise ValueError(
                f"pair {p.name or s.pairs.index(p)} has no stabilizer sign"
            )
        support = [
            (v, excerpt(s, p, v))
            for v in sorted(p.mask)
            if p.letter(v) != "I"
        ]
        supports.append(support)
        var_set.update(support)
    variables = tuple(sorted(var_set))
    index = {var: j for j, var in enumerate(variables)}
    rows = []
    for support in supports:
        row = 0
        for var in support:
            row ^= 1 << index[var]
        rows.append(row)
    rhs = tuple(0 if sign == 1 else 1 for sign in signs)
    return StrategySystem(variables=variables, rows=tuple(rows), rhs=rhs)


def feasible(sys: StrategySystem) -> bool:
    """True iff some deterministic strategy satisfies every row."""
    return (
        gf2.solve_with_nullspace(list(sys.rows), list(sys.rhs), sys.n_variables)
        is not None
    )


def min_violations(sys: StrategySystem, cap: int = 30) -> int:
    """Minimum number of unsatisfied rows over all strategies.

    The residual vectors reachable by varying the strategy form a coset of
    the column space of the system matrix; the search enumerates that span.
    Raises ValueError when its dimension exceeds the cap.
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
    return gf2.span_min_weight(columns, target, cap=cap)


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
    decoy_pairs: int | None = None

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
            **(
                {"decoy_pairs": self.decoy_pairs}
                if self.decoy_pairs is not None
                else {}
            ),
        }


def bell_report(
    s: MeasurementSet, cap: int = 30, decoy_pairs: int | None = None
) -> BellReport:
    """Sum-of-correlators Bell expression for the set.

    The quantum value is the pair count (every signed submeasurement has
    expectation +1 on the graph state); the classical bound subtracts two
    per unavoidable violation.
    """
    sys = build_system(s)
    mv = min_violations(sys, cap=cap)
    qm = len(s.pairs)
    bound = qm - 2 * mv
    ratio = Fraction(qm, bound) if bound > 0 else None
    return BellReport(
        qm_value=qm,
        classical_bound=bound,
        min_violations=mv,
        ratio=ratio,
        decoy_pairs=decoy_pairs,
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
        for rule in self.flip_rules:
            self.graph.require_vertex(rule.vertex)
            closed = {rule.vertex, *self.graph.neighbors[rule.vertex]}
            for v, l in rule.pattern:
                if v not in closed:
                    raise ValueError(
                        f"flip rule at {rule.vertex!r} references {v!r} "
                        "outside its closed neighbourhood"
                    )
                if l not in pauli.LETTERS:
                    raise ValueError(f"invalid Pauli letter {l!r}")


def barrett_expectation(model: BarrettModel, pair: MeasurementPair) -> Fraction:
    """Exact model expectation of the masked output product.

    The product of outputs is a fixed sign times a monomial in the z
    variables; averaging over the uniform z-assignment gives the sign when
    the monomial is trivial and 0 otherwise.
    """
    g = model.graph
    exponents = {v: 0 for v in g.vertices}
    for v in sorted(pair.mask):
        g.require_vertex(v)
        letter = pair.letter(v)
        if letter in ("Z", "Y"):
            exponents[v] ^= 1
        if letter in ("X", "Y"):
            for u in g.neighbors[v]:
                exponents[u] ^= 1
    sign = 1
    letters = pair.letters_dict
    for rule in model.flip_rules:
        if rule.vertex in pair.mask and rule.matches(letters):
            sign = -sign
    if any(exponents.values()):
        return Fraction(0)
    return Fraction(sign)


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
            letter = pair.letter(v)
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


def expand_rules(g: Graph, rules: Iterable[FlipRule]) -> tuple[FlipRule, ...]:
    """Close a rule list under the graph's automorphism group."""
    expanded: set[FlipRule] = set()
    autos = automorphisms(g)
    for rule in rules:
        for mapping in autos:
            expanded.add(
                FlipRule.make(
                    mapping[rule.vertex],
                    {mapping[v]: l for v, l in rule.pattern},
                )
            )
    return tuple(sorted(expanded, key=lambda r: (r.vertex, r.pattern)))


def rules_from_json(data: Iterable[Mapping]) -> dict[str, list[FlipRule]]:
    out: dict[str, list[FlipRule]] = {}
    for item in data:
        out.setdefault(str(item["graph_id"]), []).append(
            FlipRule.make(item["vertex"], item["pattern"])
        )
    return out


def load_flip_rules(path: str | None = None) -> dict[str, list[FlipRule]]:
    """Load flip rules from a JSON file, or the bundled catalogue."""
    if path is None:
        text = (
            resources.files("inflated_graphs")
            .joinpath("fixtures/flip_rules.json")
            .read_text()
        )
    else:
        with open(path) as fh:
            text = fh.read()
    return rules_from_json(json.loads(text))


def _all_measurement_pairs(g: Graph):
    """Every (letters, mask) combination on g, masks over all subsets."""
    n = len(g.vertices)
    for letter_combo in itertools.product(pauli.LETTERS, repeat=n):
        letters = {
            v: l for v, l in zip(g.vertices, letter_combo) if l != "I"
        }
        for mask_bits in range(1 << n):
            mask = frozenset(
                g.vertices[i] for i in range(n) if (mask_bits >> i) & 1
            )
            yield MeasurementPair.make(letters, mask)


def check_model(model: BarrettModel) -> list[dict]:
    """Exhaustively compare the model to the quantum expectation.

    Returns one record per (measurement, mask) mismatch; empty means the
    model reproduces every Pauli measurement on the graph exactly.
    """
    mismatches = []
    g = model.graph
    for pair in _all_measurement_pairs(g):
        quantum = pauli.expectation(g, pair.submeasurement())
        classical = barrett_expectation(model, pair)
        if classical != quantum:
            mismatches.append(
                {
                    "letters": dict(pair.letters),
                    "mask": sorted(pair.mask),
                    "quantum": quantum,
                    "model": str(classical),
                }
            )
    return mismatches


def verify_small_graphs(
    rules_by_graph: Mapping[str, Sequence[FlipRule]] | None = None,
) -> dict:
    """Check the flip-rule model on every connected graph with 3-4 vertices.

    Each graph is scanned over all 4^n measurements times 2^n masks; the
    report lists any mismatch against the exact quantum expectation.
    """
    if rules_by_graph is None:
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
    submeasurement.  Returns None if no rule set exists.
    """
    candidates: dict[tuple[str, tuple[tuple[str, str], ...]], int] = {}
    rows: list[int] = []
    rhs: list[int] = []
    for pair in _all_measurement_pairs(g):
        decomposition = pauli.pauli_to_subset(g, pair.submeasurement())
        if decomposition is None:
            continue
        letters = pair.letters_dict
        row = 0
        for v in pair.mask:
            if letters.get(v, "I") == "I":
                continue
            closed = (v, *g.neighbors[v])
            key = (
                v,
                tuple(sorted((u, letters.get(u, "I")) for u in closed)),
            )
            j = candidates.setdefault(key, len(candidates))
            row ^= 1 << j
        rhs.append(0 if decomposition[1] == 1 else 1)
        rows.append(row)
    solution = gf2.solve_with_nullspace(rows, rhs, len(candidates))
    if solution is None:
        return None
    x, _ = solution
    rules = [
        FlipRule(vertex=v, pattern=pattern)
        for (v, pattern), j in sorted(
            candidates.items(), key=lambda item: item[1]
        )
        if (x >> j) & 1
    ]
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
        if distance(g, v, "1") <= d:
            idxs.append(0)
        if distance(g, v, "4") <= d:
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


def binary_game_bound(game: BinaryGame | None = None) -> int:
    """Classical bound of a binary game; defaults to the 4-path game at
    distance 1 (bound 2)."""
    return game_bound(chsh_game(1) if game is None else game)
