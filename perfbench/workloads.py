"""Seeded inputs, timed jobs and output checks of the three workloads.

A workload hands out its inputs one cycle at a time.  A cycle is a fixed job
mix, and runs measure whole cycles, so every run measures the same mix.  A job
calls the library's public API in the order the command line does and wraps
each call in ``span(name)``, so that a traced run can attribute time to the
layer the call enters.  Outputs are checked after the timed window.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import inflated_graphs as ig
from inflated_graphs import gf2, lhv, paradox, pauli, statevector
from inflated_graphs.cli import load_fixture_set
from inflated_graphs.inflate import build_inflated_set, find_base_set

EXPECTED = Path(__file__).resolve().parent / "expected.json"


def make_rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}-{seed}")


def random_connected_graph(
    rng: random.Random, n: int, density: float | None = None
) -> ig.Graph:
    """Random spanning tree on n vertices plus extra edges: a `density` share
    of the other vertex pairs when given, else a uniform random number."""
    vertices = list(range(1, n + 1))
    order = vertices[:]
    rng.shuffle(order)
    edges = set()
    for i in range(1, n):
        j = rng.randrange(i)
        edges.add(tuple(sorted((order[i], order[j]))))
    candidates = [
        (u, v)
        for u, v in itertools.combinations(vertices, 2)
        if (u, v) not in edges
    ]
    rng.shuffle(candidates)
    if density is None:
        count = rng.randrange(0, len(candidates) + 1)
    else:
        count = round(density * len(candidates))
    for e in candidates[:count]:
        edges.add(e)
    return ig.build_graph(sorted(edges))


def stabilizer_letters(g: ig.Graph, members: frozenset[str]) -> dict[str, str]:
    """Letters of the stabilizer element generated by a vertex subset: X or Y
    on members and Z or I elsewhere, by the parity of neighbouring members.
    Kept apart from the library so that inputs do not depend on it."""
    letters = {}
    for u in g.vertices:
        odd = sum(w in members for w in g.neighbors[u]) % 2
        if u in members:
            letters[u] = "Y" if odd else "X"
        elif odd:
            letters[u] = "Z"
    return letters


def random_stabilizer_set(rng: random.Random, n: int) -> paradox.MeasurementSet:
    """A d = 0 full-mask set of 30-44 distinct stabilizer elements on a random
    connected graph.  Its span dimension is at most 2n - 1 (each vertex's
    Y + Z column is the sum of its neighbours' X + Y columns)."""
    g = random_connected_graph(rng, n)
    full = frozenset(g.vertices)
    chosen = rng.sample(range(1, 1 << n), rng.randint(30, 44))
    pairs = tuple(
        paradox.MeasurementPair.make(
            stabilizer_letters(
                g, frozenset(v for i, v in enumerate(g.vertices) if (bits >> i) & 1)
            ),
            full,
            name=f"S{k + 1}",
        )
        for k, bits in enumerate(chosen)
    )
    return paradox.MeasurementSet(graph=g, d=0, pairs=pairs)


@dataclass(frozen=True)
class SystemShape:
    """What the checks and counts need of a StrategySystem; results keep
    this instead of the system, so that they do not inflate peak memory."""

    rows: tuple[int, ...]
    rhs: tuple[int, ...]
    n_variables: int

    @staticmethod
    def of(system: lhv.StrategySystem) -> "SystemShape":
        return SystemShape(system.rows, system.rhs, system.n_variables)


def coset_min_weight(system: SystemShape) -> int:
    """Independent oracle for lhv.min_violations: the fewest rows any strategy
    violates, by enumerating the whole coset rhs + span(columns) with numpy."""
    if len(system.rows) > 62:
        raise ValueError("too many rows for the int64 oracle")
    columns = [0] * system.n_variables
    for k, row in enumerate(system.rows):
        for j in range(system.n_variables):
            if (row >> j) & 1:
                columns[j] |= 1 << k
    basis: list[int] = []  # distinct leading bits, largest first
    for vec in columns:
        for b in basis:
            vec = min(vec, vec ^ b)
        if vec:
            basis.append(vec)
            basis.sort(reverse=True)
    target = sum(bit << k for k, bit in enumerate(system.rhs))
    table = np.zeros(1, dtype=np.int64)
    for vec in basis[:16]:
        table = np.concatenate([table, table ^ vec])
    high = basis[16:]
    best = len(system.rows)
    for choice in range(1 << len(high)):
        offset = target
        for i, vec in enumerate(high):
            if (choice >> i) & 1:
                offset ^= vec
        best = min(best, int(np.bitwise_count(table ^ offset).min()))
    return best


def system_counts(systems: list[SystemShape], violations: list[int]) -> dict:
    return {
        "lhv.variables": sum(s.n_variables for s in systems),
        "lhv.rows": sum(len(s.rows) for s in systems),
        "lhv.span_dim": sum(gf2.rank(list(s.rows)) for s in systems),
        "lhv.min_violations": sum(violations),
    }


# ---------------------------------------------------------------------------
# pipeline: find_base_set -> inflate -> build -> JSON -> verify -> bound
# ---------------------------------------------------------------------------


@dataclass
class PipelineResult:
    base_letters: list[dict[str, str]]
    inflated_vertices: int
    pairs: int
    decoy_pairs: int
    decoy_rounds: int
    overall: bool
    system: SystemShape
    feasible: bool
    min_violations: int
    statevector_values: list[float]


# Extra-edge shares of most of a cycle's graphs.  Job cost follows n and
# edge count, so a fixed ladder, not a random count, keeps a cycle's cost
# nearly the same from seed to seed; the seed picks the tree and which edges.
DENSITIES = (1 / 6, 1 / 2, 5 / 6)


class Pipeline:
    """Random connected base graphs with n = 6..14 and d = 1..3, 26 jobs per
    cycle: every (n, d) with n <= 12, two n = 13 jobs with d = 1 and half
    the extra edges, one n = 14 job, and two jobs with the generator's
    uniform random edge count, so that trees and near-complete graphs stay
    in the family: one with n = 6 or 7 and one with n = 12.  The n = 14 and
    random-count jobs take turns at d = 1, 2, 3 from cycle to cycle.

    The large jobs take most of the time, so keeping them few gives more jobs
    per run.  The two like n = 13 jobs are 1/13 of the jobs, just above the
    rest, so the 90th percentile falls inside them, not on a cluster edge.
    The random-count jobs vary most in cost, so one is always below the
    median and one always above it, and the median stays inside the
    n = 8..11 jobs just above the gap in cost under them.
    """

    def __init__(self, seed: int) -> None:
        self.cycles = 0

    def cycle(self, rng: random.Random) -> list:
        d14 = 1 + self.cycles % 3
        n_small = 6 + self.cycles % 2
        self.cycles += 1
        jobs = [
            (random_connected_graph(rng, n, DENSITIES[(n + d) % 3]), d)
            for n in range(6, 13)
            for d in (1, 2, 3)
        ]
        jobs += [(random_connected_graph(rng, 13, 1 / 2), 1) for _ in range(2)]
        jobs.append((random_connected_graph(rng, 14, DENSITIES[(14 + d14) % 3]), d14))
        jobs += [(random_connected_graph(rng, n), d14) for n in (n_small, 12)]
        return jobs

    def run(self, job, span) -> PipelineResult:
        g, d = job
        with span("inflate.find_base_set"):
            base = find_base_set(g)
        if base is None:
            raise RuntimeError("find_base_set found no base set")
        with span("graph.inflate"):
            inflated = ig.inflate(g, d)
        with span("inflate.build_inflated_set"):
            built = build_inflated_set(base, inflated)
        with span("paradox.json_roundtrip"):
            text = json.dumps(paradox.set_to_json(built.measurement_set), indent=2)
            s = paradox.set_from_json(json.loads(text))
        with span("paradox.verify_paradox"):
            certificate = paradox.verify_paradox(s)
        with span("lhv.build_system"):
            system = lhv.build_system(s)
        with span("lhv.feasible"):
            feasible = lhv.feasible(system)
        with span("lhv.min_violations"):
            violations = lhv.min_violations(system)
        with span("statevector.crosscheck"):
            state = statevector.graph_state(g)
            values = [
                statevector.pauli_expectation(state, p.letters_dict)
                for p in base.pairs
            ]
        return PipelineResult(
            base_letters=[p.letters_dict for p in base.pairs],
            inflated_vertices=len(s.graph.vertices),
            pairs=len(s.pairs),
            decoy_pairs=len(built.decoy_specs),
            decoy_rounds=built.iterations,
            overall=certificate.overall,
            system=SystemShape.of(system),
            feasible=feasible,
            min_violations=violations,
            statevector_values=values,
        )

    def probe(self, job, result: PipelineResult, span) -> None:
        """Repeats find_base_set's 2^n - 1 forward-rule calls."""
        g, _ = job
        n = len(g.vertices)
        subsets = [
            frozenset(v for i, v in enumerate(g.vertices) if (bits >> i) & 1)
            for bits in range(1, 1 << n)
        ]
        with span("pauli.subset_to_pauli"):
            for subset in subsets:
                pauli.subset_to_pauli(g, subset)

    def check(self, index: int, job, result: PipelineResult) -> str | None:
        g, _ = job
        if not result.overall:
            return "certificate is not overall"
        if result.feasible:
            return "a deterministic strategy satisfies every row"
        if result.min_violations < 1:
            return f"min_violations {result.min_violations} < 1"
        oracle = coset_min_weight(result.system)
        if result.min_violations != oracle:
            return f"min_violations {result.min_violations}, enumeration {oracle}"
        signs = [pauli.expectation(g, letters) for letters in result.base_letters]
        if any(
            sign == 0 or abs(value - sign) > 1e-9
            for sign, value in zip(signs, result.statevector_values)
        ):
            return f"statevector {result.statevector_values} != signs {signs}"
        return None

    def cases(self, job, result: PipelineResult) -> int:
        """Stabilizer columns find_base_set enumerates."""
        g, _ = job
        return (1 << len(g.vertices)) - 1

    def counts(self, done: list) -> dict:
        results = [result for _, result, _ in done]
        columns = sum(self.cases(job, result) for job, result, _ in done)
        return {
            "pipeline.inflated_vertices": sum(r.inflated_vertices for r in results),
            "pipeline.pairs": sum(r.pairs for r in results),
            "pipeline.decoy_pairs": sum(r.decoy_pairs for r in results),
            "pipeline.decoy_rounds": sum(r.decoy_rounds for r in results),
            "inflate.base_column_yield": sum(len(r.base_letters) for r in results)
            / columns,
            **system_counts(
                [r.system for r in results], [r.min_violations for r in results]
            ),
        }


# ---------------------------------------------------------------------------
# flip_model: rule search and exhaustive model check
# ---------------------------------------------------------------------------

# Random 5-vertex graphs per cycle, each with half the extra edges.  Their
# jobs are 1/5 of the jobs, so the 90th percentile falls in the middle of
# them, where it moves with their cost rather than with timing jitter in
# the tail of the 4-vertex jobs.
RANDOM_FLIP_GRAPHS = 2


@dataclass
class FlipResult:
    rules: list[lhv.FlipRule] | None
    found_mismatches: list | None
    bundled_mismatches: list | None


class FlipModel:
    """The 8 catalogue graphs plus two random connected 5-vertex graphs with
    7 edges in each cycle of 10 jobs."""

    def __init__(self, seed: int) -> None:
        self.bundled = lhv.load_flip_rules()

    def cycle(self, rng: random.Random) -> list:
        return list(lhv.SMALL_GRAPHS.items()) + [
            (None, random_connected_graph(rng, 5, 1 / 2))
            for _ in range(RANDOM_FLIP_GRAPHS)
        ]

    def run(self, job, span) -> FlipResult:
        graph_id, g = job
        with span("lhv.search_flip_rules"):
            rules = lhv.search_flip_rules(g)
        found = bundled = None
        if rules is not None:
            with span("lhv.check_model"):
                found = lhv.check_model(
                    lhv.BarrettModel(graph=g, flip_rules=tuple(rules))
                )
        if graph_id is not None:
            with span("lhv.check_model"):
                bundled = lhv.check_model(
                    lhv.BarrettModel(graph=g, flip_rules=tuple(self.bundled[graph_id]))
                )
        return FlipResult(rules, found, bundled)

    def probe(self, job, result: FlipResult, span) -> int:
        """Quantum expectation of every (measurement, mask) case; returns how
        many are proportional to a stabilizer element."""
        _, g = job
        n = len(g.vertices)
        cases = [
            {
                v: letter
                for i, (v, letter) in enumerate(zip(g.vertices, letters))
                if letter != "I" and (mask >> i) & 1
            }
            for letters in itertools.product(pauli.LETTERS, repeat=n)
            for mask in range(1 << n)
        ]
        with span("pauli.expectation"):
            values = [pauli.expectation(g, case) for case in cases]
        return sum(value != 0 for value in values)

    def check(self, index: int, job, result: FlipResult) -> str | None:
        graph_id, _ = job
        if graph_id is not None and result.rules is None:
            return f"{graph_id}: no rule set found, but the bundled one is exact"
        if result.found_mismatches:
            return f"{len(result.found_mismatches)} mismatches for the rules found"
        if result.bundled_mismatches:
            return f"{graph_id}: {len(result.bundled_mismatches)} bundled-rule mismatches"
        return None

    def cases(self, job, result: FlipResult) -> int:
        """(measurement, mask) cases scanned: once by the search, once per
        check_model call."""
        _, g = job
        n = len(g.vertices)
        scans = 1 + (result.found_mismatches is not None) + (
            result.bundled_mismatches is not None
        )
        return 4**n * 2**n * scans

    def counts(self, done: list) -> dict:
        distinct = sum(8 ** len(job[1].vertices) for job, _, _ in done)
        stabilizer = sum(probe for _, _, probe in done)
        return {
            "flip.cases": sum(self.cases(job, result) for job, result, _ in done),
            "flip.stabilizer_cases": stabilizer,
            "flip.stabilizer_case_ratio": stabilizer / distinct,
            "flip.rules": sum(len(r.rules) for _, r, _ in done if r.rules is not None),
            "flip.no_rule_graphs": sum(r.rules is None for _, r, _ in done),
        }


# ---------------------------------------------------------------------------
# bell_bound: strategy system, feasibility, exact minimum violations
# ---------------------------------------------------------------------------

# Paper numbers per fixture: quantum value (pairs) and classical bound
# (pairs - 2 * min_violations), for ratios 5/4, 3/2 and 8/7.
PAPER = {"table1_9cycle": (10, 8), "chain7": (6, 4), "cycle5": (16, 14)}
# Vertex counts of the random sets in a cycle.  Span dimension is 2n - 1, so
# job times cluster by n; this mix puts the median a third into the n = 10
# jobs and the 90th percentile halfway into the n = 11 jobs.
RANDOM_BELL_SIZES = (9, 10, 10, 10, 10, 10, 11, 11)


@dataclass
class BellResult:
    system: SystemShape
    feasible: bool
    min_violations: int


class BellBound:
    """The three paper fixtures plus eight random stabilizer-sum sets in each
    cycle of 11 jobs."""

    def __init__(self, seed: int, expected: list[int] | None = None) -> None:
        self.fixtures = {name: load_fixture_set(name) for name in PAPER}
        if expected is None:
            recorded = json.loads(EXPECTED.read_text())["bell_bound"]
            expected = recorded.get(str(seed), [])
        self.expected = expected

    def cycle(self, rng: random.Random) -> list:
        return list(self.fixtures.items()) + [
            (None, random_stabilizer_set(rng, n)) for n in RANDOM_BELL_SIZES
        ]

    def run(self, job, span) -> BellResult:
        _, s = job
        with span("lhv.build_system"):
            system = lhv.build_system(s)
        with span("lhv.feasible"):
            feasible = lhv.feasible(system)
        with span("lhv.min_violations"):
            violations = lhv.min_violations(system)
        return BellResult(SystemShape.of(system), feasible, violations)

    def probe(self, job, result: BellResult, span) -> None:
        return None

    def check(self, index: int, job, result: BellResult) -> str | None:
        name, s = job
        violations = result.min_violations
        if result.feasible != (violations == 0):
            return f"feasible={result.feasible} with min_violations {violations}"
        oracle = coset_min_weight(result.system)
        if violations != oracle:
            return f"min_violations {violations}, enumeration {oracle}"
        if index < len(self.expected) and violations != self.expected[index]:
            return f"job {index}: min_violations {violations}, recorded {self.expected[index]}"
        if name is not None:
            got = (len(s.pairs), len(s.pairs) - 2 * violations)
            if got != PAPER[name]:
                return f"{name}: qm/bound {got}, paper {PAPER[name]}"
        return None

    def cases(self, job, result: BellResult) -> int:
        """Residual vectors in the searched coset, 2^span."""
        return 1 << gf2.rank(list(result.system.rows))

    def counts(self, done: list) -> dict:
        results = [result for _, result, _ in done]
        return system_counts(
            [r.system for r in results], [r.min_violations for r in results]
        )


WORKLOADS = {"pipeline": Pipeline, "flip_model": FlipModel, "bell_bound": BellBound}
