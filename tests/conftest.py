import itertools
import math
import random
from collections import deque
from fractions import Fraction

import numpy as np

from inflated_graphs import build_graph


def random_connected_graph(rng: random.Random, n: int):
    """Random spanning tree on n vertices plus a random number of extra edges."""
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
    for e in candidates[: rng.randrange(0, len(candidates) + 1)]:
        edges.add(e)
    return build_graph(sorted(edges))


def random_subset(rng: random.Random, items):
    return frozenset(v for v in items if rng.random() < 0.5)


def seeded_small_graphs():
    """30 seeded random connected graphs with n = 2..6, on which the
    oracles are compared on every Pauli string."""
    rng = random.Random(61)
    return [random_connected_graph(rng, 2 + k % 5) for k in range(30)]


def neighbour_tables_per_vertex(g):
    """Each vertex's neighbour indices (a set) and adjacency row, found by
    scanning every edge for that vertex: the reference for the tables that
    ``Graph`` fills in one pass over its edges.  It reads only
    ``g.vertices`` and ``g.edges``."""
    position = {v: i for i, v in enumerate(g.vertices)}
    sets = []
    rows = []
    for v in g.vertices:
        js = {position[b if a == v else a] for a, b in g.edges if v in (a, b)}
        sets.append(js)
        rows.append(sum(1 << j for j in js))
    return sets, tuple(rows)


def bfs_ball(g, v: str, d: int) -> tuple[str, ...]:
    """Vertices within distance d of v by breadth-first search, in vertex
    order: the reference for ``Graph.ball_masks`` and ``ball``."""
    dist = {v: 0}
    queue = deque([v])
    while queue:
        w = queue.popleft()
        if dist[w] == d:
            continue
        for u in g.neighbors[w]:
            if u not in dist:
                dist[u] = dist[w] + 1
                queue.append(u)
    return tuple(sorted(dist, key=g.index.__getitem__))


# Independent references for the classical models.  They read graphs,
# systems, models and pairs through their fields and import nothing from
# lhv, gf2, pauli or paradox, so they share no code with the paths they
# check.


def min_violations_brute_force(sys) -> int:
    """Minimum number of unsatisfied rows of a strategy system, by
    enumerating all 2^n assignments: the reference for ``min_violations``
    and ``feasible``."""
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


def game_bound_brute_force(g, d: int, terms) -> int:
    """Maximum over every deterministic strategy of the sum of sign times
    the product of the kept outputs, for terms (sign, letters, mask) on g:
    the reference for ``game_bound``.  Vertex v's output is a free +-1 per
    view, its letters on ``bfs_ball(v, d)``; a vertex of the mask that
    measures I (or is not in letters) outputs 1."""
    keys = []  # per term, the (vertex, view) of each kept vertex
    for _, letters, mask in terms:
        keys.append(
            [
                (v, tuple(letters.get(u, "I") for u in bfs_ball(g, v, d)))
                for v in mask
                if letters.get(v, "I") != "I"
            ]
        )
    views = sorted({key for row in keys for key in row})
    if len(views) > 16:
        raise ValueError("instance too large for direct enumeration")
    best = None
    for outputs in itertools.product((1, -1), repeat=len(views)):
        table = dict(zip(views, outputs))
        value = sum(
            sign * math.prod(table[key] for key in row)
            for (sign, _, _), row in zip(terms, keys)
        )
        if best is None or value > best:
            best = value
    return best


def barrett_expectation_sampled(model, pair) -> Fraction:
    """The flip-rule model's expectation of a pair's masked output product,
    averaged over all 2^n hidden sign assignments explicitly."""
    g = model.graph
    n = len(g.vertices)
    if n > 16:
        raise ValueError("instance too large for explicit averaging")
    letters = pair.letters_dict
    flip_sign = 1
    for rule in model.flip_rules:
        if rule.vertex in pair.mask and all(
            letters.get(v, "I") == l for v, l in rule.pattern
        ):
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


_LETTER_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}


def vdot_pauli_expectation(state, letters) -> float:
    """The evaluation that ``statevector.pauli_expectation`` replaced: the
    amplitudes as complex numbers, a fancy-indexed gather over int64
    indices and one ``np.vdot``.  The reference for the real-arithmetic
    path; it reads the state through its fields only."""
    x = z = ys = 0
    for v, letter in letters.items():
        lx, lz = _LETTER_BITS[letter]
        i = state.vertices.index(v)
        x |= lx << i
        z |= lz << i
        ys += lx & lz
    psi = state.amplitudes.astype(complex)
    source = np.arange(len(psi)) ^ x
    signs = 1.0 - 2.0 * (np.bitwise_count(source & z) & 1)
    value = (1, 1j, -1, -1j)[ys % 4] * np.vdot(psi, signs * psi[source])
    assert abs(value.imag) < 1e-10, value
    return float(value.real)


def model_values(model):
    """The flip-rule model's exact expectation as a function of a case
    (x, z, m): measurement bitmasks x, z and mask m over ``graph.index``.

    The masked output product is the flip sign times the z-monomial with
    exponent z & m plus the neighbour parity of x & m; averaging over the
    uniform signs gives the sign when the exponent vanishes and 0
    otherwise.  The parity is walked over ``graph.adjacency`` and the rules'
    (vertex bit, support, x, z) masks are compiled here, once per model; a
    rule fires when m holds its vertex and the letters match its pattern.
    """
    g = model.graph
    adjacency = g.adjacency
    rules = []
    for rule in model.flip_rules:
        support = px = pz = 0
        for v, letter in rule.pattern:
            bit = 1 << g.index[v]
            lx, lz = _LETTER_BITS[letter]
            support |= bit
            px |= bit * lx
            pz |= bit * lz
        rules.append((1 << g.index[rule.vertex], support, px, pz))

    def value(x: int, z: int, m: int) -> int:
        exponent = z & m
        rest = x & m
        while rest:
            low = rest & -rest
            exponent ^= adjacency[low.bit_length() - 1]
            rest ^= low
        if exponent:
            return 0
        negative = False
        for bit, support, rx, rz in rules:
            if m & bit and x & support == rx and z & support == rz:
                negative = not negative
        return -1 if negative else 1

    return value


# The names-to-bits loops that digit strings replaced in the library: one
# big-int OR per vertex.  The boundary tests swap ``compile_pair_by_shifts``
# in for pauli.compile_pair, the library's one names-to-bits writer, so the
# entry points around it give the results the library must reproduce;
# ``bits_of_by_shifts`` is the mask loop on its own, and ``members_by_zip``
# is the bits-to-names walk that ``graph.members`` replaced.


def compile_pair_by_shifts(letters, mask, index):
    x = z = 0
    unknown = []
    for v, l in letters:
        if l in ("X", "Y", "Z"):
            i = index.get(v)
            if i is None:
                unknown.append(v)
                continue
            if l != "Z":
                x |= 1 << i
            if l != "X":
                z |= 1 << i
        elif l != "I":
            raise ValueError(f"invalid Pauli letter {l!r}")
    if unknown:
        return x, z, 0, min(unknown, key=str)
    m = 0
    missing = []
    for v in mask:
        i = index.get(v)
        if i is None:
            missing.append(v)
        else:
            m |= 1 << i
    return x, z, m, min(missing) if missing else None


def bits_of_by_shifts(g, vertices) -> int:
    bits = 0
    for v in vertices:
        i = g.index.get(v)
        if i is None:
            raise ValueError(f"unknown vertex {v!r}")
        bits |= 1 << i
    return bits


def members_by_zip(vertices, bits) -> tuple:
    digits = format(bits, f"0{len(vertices)}b")[::-1]
    return tuple(v for v, b in zip(vertices, digits) if b == "1")
