"""Command-line interface.

Subcommands: inflate, build, verify, bound, reproduce.  Exit codes:
0 success/verified, 1 verified-false, 2 input error, 3 precondition failure.
Reports are JSON with a deterministic "result" section (covered by the
input digest) and timing kept outside it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from importlib import resources

from . import lhv, statevector
from .graph import build_graph, graph_from_json, graph_to_json, inflate, to_dot
from .inflate import build_inflated_set
from .lhv import bell_report, build_system, feasible
from .paradox import (
    save_measurement_set,
    set_from_json,
    set_to_json,
    verify_paradox,
)

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_INPUT = 2
EXIT_PRECONDITION = 3

FIXTURES = ("table1_9cycle", "chain7", "cycle5", "ghz_path3")

# The paper's headline numbers: reproduction name -> (fixture, expected
# Bell-report entries).
PAPER_NUMBERS = {
    "table1": ("table1_9cycle", {"qm": 10, "bound": 8, "ratio": "5/4"}),
    "chain7": ("chain7", {"qm": 6, "bound": 4, "ratio": "3/2"}),
    "cycle5": ("cycle5", {"qm": 16, "bound": 14, "ratio": "8/7"}),
}
REPRODUCTIONS = (*PAPER_NUMBERS, "chsh4", "small-graphs")


class InputError(Exception):
    pass


def _read_json(path: str):
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text), hashlib.sha256(text.encode()).hexdigest()
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc


def _fixture_text(name: str) -> str:
    return (
        resources.files("inflated_graphs")
        .joinpath(f"fixtures/{name}.json")
        .read_text()
    )


def load_fixture_set(name: str):
    """Load one of the bundled measurement-set fixtures by name."""
    if name not in FIXTURES:
        raise InputError(f"unknown fixture {name!r}; choose from {FIXTURES}")
    return set_from_json(json.loads(_fixture_text(name)))


def _emit(report: dict, started: float) -> None:
    report["timing_seconds"] = round(time.monotonic() - started, 6)
    json.dump(report, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def cmd_inflate(args) -> int:
    started = time.monotonic()
    obj, digest = _read_json(args.graph)
    g = graph_from_json(obj)
    ig = inflate(g, args.d)
    graph_json = graph_to_json(ig.graph)
    dot = to_dot(ig.graph, ig.base.vertices)
    if args.out:
        _write(args.out + ".json", json.dumps(graph_json, indent=2) + "\n")
        _write(args.out + ".dot", dot)
    elif args.format == "dot":
        sys.stdout.write(dot)
        return EXIT_OK
    report = {
        "command": "inflate",
        "inputs_digest": digest,
        "result": {
            "d": args.d,
            "base_vertices": len(g.vertices),
            "vertices": len(ig.graph.vertices),
            "edges": len(ig.graph.edges),
            **({} if args.out else {"graph": graph_json}),
        },
    }
    _emit(report, started)
    return EXIT_OK


def cmd_build(args) -> int:
    started = time.monotonic()
    obj, digest = _read_json(args.base_set)
    base = set_from_json(obj)
    try:
        ig = inflate(base.graph, args.d)
        result = build_inflated_set(base, ig)
    except (ValueError, RuntimeError) as exc:
        print(f"precondition failure: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    s = result.measurement_set
    if args.out:
        try:
            save_measurement_set(s, args.out)
        except OSError as exc:
            raise InputError(f"cannot write {args.out}: {exc}") from exc
    report = {
        "command": "build",
        "inputs_digest": digest,
        "result": {
            "d": args.d,
            **result.report(),
            **({} if args.out else {"measurement_set": set_to_json(s)}),
        },
    }
    _emit(report, started)
    return EXIT_OK


def cmd_verify(args) -> int:
    started = time.monotonic()
    obj, digest = _read_json(args.set)
    s = set_from_json(obj)
    cert = verify_paradox(s)
    report = {
        "command": "verify",
        "inputs_digest": digest,
        "result": cert.to_json(),
    }
    _emit(report, started)
    return EXIT_OK if cert.overall else EXIT_FALSE


def cmd_bound(args) -> int:
    started = time.monotonic()
    obj, digest = _read_json(args.set)
    s = set_from_json(obj)
    try:
        rep = bell_report(s)
    except ValueError as exc:
        print(f"precondition failure: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    report = {
        "command": "bound",
        "inputs_digest": digest,
        "result": rep.to_json(),
    }
    _emit(report, started)
    return EXIT_OK


def _reproduce_fixture(name: str, expected: dict, claims: list) -> None:
    s = load_fixture_set(name)
    cert = verify_paradox(s)
    claims.append((f"{name}: certificate overall", cert.overall))
    claims.append(
        (f"{name}: no perfect classical strategy", not feasible(build_system(s)))
    )
    rep = bell_report(s)
    for key, want in expected.items():
        got = rep.to_json()[key]
        claims.append((f"{name}: {key} = {want}", got == want))


def cmd_reproduce(args) -> int:
    started = time.monotonic()
    claims: list[tuple[str, bool]] = []
    name = args.name
    if name in PAPER_NUMBERS:
        fixture, expected = PAPER_NUMBERS[name]
        _reproduce_fixture(fixture, expected, claims)
    elif name == "chsh4":
        state = statevector.graph_state(build_graph([(1, 2), (2, 3), (3, 4)]))
        qm = statevector.expect(
            state, statevector.chsh_operator(math.pi / 2, 3 * math.pi / 2)
        )
        bound = lhv.binary_game_bound()
        claims.append(
            ("chsh4: quantum value = 2*sqrt(2)", abs(qm - 2 * math.sqrt(2)) < 1e-9)
        )
        claims.append(("chsh4: distance-1 classical bound = 2", bound == 2))
        claims.append(
            ("chsh4: ratio = sqrt(2)", abs(qm / bound - math.sqrt(2)) < 1e-9)
        )
    elif name == "small-graphs":
        report = lhv.verify_small_graphs()
        for gid in lhv.SMALL_GRAPHS:
            entry = report[gid]
            claims.append(
                (
                    f"small-graphs: {gid} zero mismatches "
                    f"({entry['checked']} cases)",
                    not entry["mismatches"],
                )
            )
    else:
        raise InputError(
            f"unknown reproduction {name!r}; choose from {', '.join(REPRODUCTIONS)}"
        )
    ok = all(passed for _, passed in claims)
    for label, passed in claims:
        print(f"{'PASS' if passed else 'FAIL'}  {label}")
    print(f"# elapsed {time.monotonic() - started:.3f}s")
    return EXIT_OK if ok else EXIT_FALSE


def _positive_int(text: str) -> int:
    """argparse type of --d: an integer >= 1, else a usage error (exit 2)."""
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer >= 1")
    return value


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="inflated-graphs",
        description=(
            "Construct and verify graph-state measurement scenarios that "
            "defeat distance-bounded communication-assisted classical models."
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("inflate", help="replace each edge by a chain of 2d vertices")
    p.add_argument("graph", help="graph JSON file")
    p.add_argument(
        "--d", type=_positive_int, default=1, help="communication distance"
    )
    p.add_argument("--out", help="output prefix (writes .json and .dot)")
    p.add_argument("--format", choices=("json", "dot"), default="json")
    p.set_defaults(func=cmd_inflate)

    p = sub.add_parser("build", help="inflate a certified base set and add decoys")
    p.add_argument("base_set", help="d=0 measurement-set JSON file")
    p.add_argument(
        "--d", type=_positive_int, default=1, help="communication distance"
    )
    p.add_argument("--out", help="output measurement-set JSON file")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("verify", help="run the paradox checks on a set")
    p.add_argument("set", help="measurement-set JSON file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bound", help="exact classical Bell bound of a set")
    p.add_argument("set", help="measurement-set JSON file")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("reproduce", help="re-run a bundled end-to-end check")
    p.add_argument("name", choices=REPRODUCTIONS)
    p.set_defaults(func=cmd_reproduce)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
