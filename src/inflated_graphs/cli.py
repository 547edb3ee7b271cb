"""Command-line interface.

Subcommands: inflate, build, verify, bound, reproduce.  Exit codes:
0 success/verified, 1 verified-false, 2 input or output error, 3 precondition
failure, 70 a fault of the program (its traceback goes to stderr).  inflate,
build, verify and bound each print one JSON report, built in :func:`main`:
the command, the input file's digest, a deterministic "result" section and
timing kept outside it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from importlib import resources

from . import statevector
from .graph import build_graph, graph_from_json, graph_to_json, inflate, to_dot
from .inflate import build_inflated_set
from .lhv import (
    SMALL_GRAPHS,
    BarrettModel,
    bell_report,
    build_system,
    check_model,
    chsh_game,
    feasible,
    game_bound,
    load_flip_rules,
)
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
EXIT_FAULT = 70  # BSD's EX_SOFTWARE

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


class OutputError(Exception):
    pass


class PreconditionFailure(Exception):
    """A well-formed input the command cannot work on (exit 3)."""


def _read_json(path: str):
    # Imported here: hashlib loads OpenSSL (about 3.5 MB), and most importers
    # of this module (load_fixture_set) digest nothing.
    import hashlib

    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text), hashlib.sha256(text.encode()).hexdigest()
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise InputError(f"{path} is nested too deeply to parse") from exc


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


def _print(text: str) -> None:
    """Write text to stdout and flush it; a failed write is an OutputError."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        raise OutputError(f"cannot write to stdout: {exc}") from exc


def _discard_stdout() -> None:
    """Point stdout's file descriptor at the null device, so that the
    interpreter's final flush of the bytes a failed write left buffered
    succeeds and does not change the exit status to 120."""
    try:
        fd = sys.stdout.fileno()
    except (OSError, ValueError):
        return  # not backed by a file descriptor: nothing is flushed at exit
    devnull = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(devnull, fd)
    finally:
        os.close(devnull)


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def cmd_inflate(obj, args) -> tuple[int, dict]:
    g = graph_from_json(obj)
    ig = inflate(g, args.d)
    graph_json = graph_to_json(ig.graph)
    if args.out:
        _write(args.out + ".json", json.dumps(graph_json, indent=2) + "\n")
        _write(args.out + ".dot", to_dot(ig.graph, ig.base.vertices))
    return EXIT_OK, {
        "d": args.d,
        "base_vertices": len(g.vertices),
        "vertices": len(ig.graph.vertices),
        "edges": len(ig.graph.edges),
        **({} if args.out else {"graph": graph_json}),
    }


def cmd_build(obj, args) -> tuple[int, dict]:
    base = set_from_json(obj)
    try:
        result = build_inflated_set(base, inflate(base.graph, args.d))
    except ValueError as exc:
        raise PreconditionFailure(exc) from exc
    s = result.measurement_set
    if args.out:
        try:
            save_measurement_set(s, args.out)
        except OSError as exc:
            raise InputError(f"cannot write {args.out}: {exc}") from exc
    return EXIT_OK, {
        "d": args.d,
        **result.report(),
        **({} if args.out else {"measurement_set": set_to_json(s)}),
    }


def cmd_verify(obj, args) -> tuple[int, dict]:
    cert = verify_paradox(set_from_json(obj))
    return EXIT_OK if cert.overall else EXIT_FALSE, cert.to_json()


def cmd_bound(obj, args) -> tuple[int, dict]:
    s = set_from_json(obj)
    try:
        return EXIT_OK, bell_report(s).to_json()
    except ValueError as exc:
        raise PreconditionFailure(exc) from exc


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
        bound = game_bound(*chsh_game(1))
        claims.append(
            ("chsh4: quantum value = 2*sqrt(2)", abs(qm - 2 * math.sqrt(2)) < 1e-9)
        )
        claims.append(("chsh4: distance-1 classical bound = 2", bound == 2))
        claims.append(
            ("chsh4: ratio = sqrt(2)", abs(qm / bound - math.sqrt(2)) < 1e-9)
        )
    else:  # "small-graphs"; argparse's choices refuse every other name
        rules = load_flip_rules()
        for gid, g in SMALL_GRAPHS.items():
            mismatches = check_model(BarrettModel(g, tuple(rules.get(gid, ()))))
            n = len(g.vertices)
            claims.append(
                (
                    f"small-graphs: {gid} zero mismatches ({4**n * 2**n} cases)",
                    not mismatches,
                )
            )
    ok = all(passed for _, passed in claims)
    lines = [f"{'PASS' if passed else 'FAIL'}  {label}\n" for label, passed in claims]
    lines.append(f"# elapsed {time.monotonic() - started:.3f}s\n")
    _print("".join(lines))
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
    p.add_argument("input", metavar="graph", help="graph JSON file")
    p.add_argument(
        "--d", type=_positive_int, default=1, help="communication distance"
    )
    p.add_argument("--out", help="output prefix (writes .json and .dot)")
    p.set_defaults(func=cmd_inflate)

    p = sub.add_parser("build", help="inflate a certified base set and add decoys")
    p.add_argument("input", metavar="base_set", help="d=0 measurement-set JSON file")
    p.add_argument(
        "--d", type=_positive_int, default=1, help="communication distance"
    )
    p.add_argument("--out", help="output measurement-set JSON file")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("verify", help="run the paradox checks on a set")
    p.add_argument("input", metavar="set", help="measurement-set JSON file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bound", help="exact classical Bell bound of a set")
    p.add_argument("input", metavar="set", help="measurement-set JSON file")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("reproduce", help="re-run a bundled end-to-end check")
    p.add_argument("name", choices=REPRODUCTIONS)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    try:
        if args.subcommand == "reproduce":
            return cmd_reproduce(args)
        started = time.monotonic()
        obj, digest = _read_json(args.input)
        code, result = args.func(obj, args)
        report = {
            "command": args.subcommand,
            "inputs_digest": digest,
            "result": result,
            "timing_seconds": round(time.monotonic() - started, 6),
        }
        _print(json.dumps(report, indent=2) + "\n")
        return code
    except PreconditionFailure as exc:
        print(f"precondition failure: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (InputError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OutputError as exc:
        _discard_stdout()
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception:
        import traceback  # as hashlib in _read_json: only a fault needs it

        traceback.print_exc()
        return EXIT_FAULT


if __name__ == "__main__":
    sys.exit(main())
