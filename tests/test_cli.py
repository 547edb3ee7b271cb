import copy
import hashlib
import json
import os
import random
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

from inflated_graphs import cli, gf2
from inflated_graphs.cli import PAPER_NUMBERS, load_fixture_set, main
from inflated_graphs.graph import build_graph, inflate
from inflated_graphs.inflate import build_inflated_set, find_base_set
from inflated_graphs.paradox import set_to_json


@pytest.fixture
def triangle_file(tmp_path):
    path = tmp_path / "triangle.json"
    path.write_text(
        json.dumps(
            {"vertices": ["1", "2", "3"],
             "edges": [["1", "2"], ["1", "3"], ["2", "3"]]}
        )
    )
    return str(path)


@pytest.fixture
def ghz_file(tmp_path):
    s = load_fixture_set("ghz_path3")
    path = tmp_path / "ghz.json"
    path.write_text(json.dumps(set_to_json(s)))
    return str(path)


def test_inflate_triangle(tmp_path, triangle_file, capsys):
    out = str(tmp_path / "nine")
    assert main(["inflate", triangle_file, "--d", "1", "--out", out]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["result"]["vertices"] == 9
    produced = json.loads((tmp_path / "nine.json").read_text())
    assert len(produced["vertices"]) == 9
    dot = (tmp_path / "nine.dot").read_text()
    assert dot.count("doublecircle") == 3


def test_inflate_unwritable_out_is_input_error(tmp_path, triangle_file, capsys):
    """A failed write is an input error (exit 2), never exit 1."""
    out = str(tmp_path / "missing" / "nine")
    assert main(["inflate", triangle_file, "--out", out]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"input error: cannot write {out}.json: ")
    assert captured.out == ""


def test_inflate_has_no_format_option(triangle_file):
    """--out writes the .dot file (test_inflate_triangle); there is no
    second route to DOT output."""
    with pytest.raises(SystemExit) as exc:
        main(["inflate", triangle_file, "--format", "dot"])
    assert exc.value.code == 2


def test_chain_name_collision_is_refused(tmp_path, capsys):
    """Edges ("a", "b,c") and ("a,b", "c") share their chain names: the
    graph is well formed, so inflate on it and build on a certified set over
    it both exit 3 (build used to fail an assertion and exit 1)."""
    path = tmp_path / "collide.json"
    path.write_text(json.dumps({"edges": [["a", "b,c"], ["a,b", "c"]]}))
    assert main(["inflate", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("precondition failure: chain vertex '1@(a,b,c)'")
    assert captured.out == ""
    g = build_graph([("a", "b,c"), ("a,b", "c"), ("b,c", "c")])
    base = tmp_path / "collide_set.json"
    base.write_text(json.dumps(set_to_json(find_base_set(g))))
    assert main(["build", str(base)]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("precondition failure: chain vertex '1@(a,b,c)'")
    assert captured.out == ""


@pytest.mark.parametrize("command", ["verify", "bound", "build", "inflate"])
def test_deeply_nested_json_is_input_error(tmp_path, capsys, command):
    """json.loads raises RecursionError past the interpreter's recursion
    limit (1500 levels already pass it); that is an input error (exit 2),
    not exit 1 with a traceback."""
    path = tmp_path / "nested.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"input error: {path} is nested too deeply to parse\n"
    assert captured.out == ""


def test_inflate_bad_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert main(["inflate", str(bad)]) == 2
    assert "not valid JSON" in capsys.readouterr().err
    bad.write_text("[]")
    assert main(["inflate", str(bad)]) == 2
    assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize("content", ["set", "empty"])
def test_inflate_of_a_non_graph_is_input_error(tmp_path, capsys, content):
    """A measurement-set file or {} has no "edges": inflate exits 2 with one
    input error line, not 0 with an empty graph."""
    path = tmp_path / "input.json"
    path.write_text(cli._fixture_text("chain7") if content == "set" else "{}")
    assert main(["inflate", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "input error: graph has no 'edges' key\n"
    assert captured.out == ""


def test_missing_file_is_input_error(capsys):
    assert main(["verify", "/does/not/exist.json"]) == 2


def test_undecodable_file_is_an_input_error_that_names_it(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b"\xff{}")
    assert main(["verify", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"input error: {path} is not UTF-8 text: ")
    assert captured.out == ""


@pytest.mark.parametrize("command", ["verify", "bound", "build"])
@pytest.mark.parametrize("shape", ["missing_pairs", "top_level_list", "d_true"])
def test_wrong_shape_set_is_input_error(tmp_path, capsys, command, shape):
    obj = set_to_json(load_fixture_set("ghz_path3"))
    if shape == "missing_pairs":
        del obj["pairs"]
    elif shape == "d_true":
        obj["d"] = True  # a bool is an int to Python, but not a distance
    else:
        obj = [obj]
    path = tmp_path / "wrong.json"
    path.write_text(json.dumps(obj))
    assert main([command, str(path)]) == 2
    assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["inflate", "build"])
@pytest.mark.parametrize("d", ["0", "-1", "one"])
def test_bad_distance_flag_is_usage_error(triangle_file, ghz_file, command, d):
    path = triangle_file if command == "inflate" else ghz_file
    with pytest.raises(SystemExit) as exc:
        main([command, path, "--d", d])
    assert exc.value.code == 2


def test_build_and_verify_and_bound(tmp_path, ghz_file, capsys):
    out = str(tmp_path / "chain7.json")
    assert main(["build", ghz_file, "--d", "1", "--out", out]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["result"]["pairs"] == 6
    assert report["result"]["decoy_measurements"] == 2
    assert report["result"]["certificate"]["overall"] is True

    assert main(["verify", out]) == 0
    cert = json.loads(capsys.readouterr().out)
    assert cert["result"]["overall"] is True

    assert main(["bound", out]) == 0
    bound = json.loads(capsys.readouterr().out)
    assert bound["result"] == {**PAPER_NUMBERS["chain7"][1], "min_violations": 1}


@pytest.mark.parametrize("d", [1, 2, 3])
def test_build_out_writes_the_indented_set(tmp_path, ghz_file, capsys, d):
    """build --out writes through save_measurement_set: the built set's
    JSON, indented by two, plus a newline."""
    out = tmp_path / "built.json"
    assert main(["build", ghz_file, "--d", str(d), "--out", str(out)]) == 0
    assert "measurement_set" not in json.loads(capsys.readouterr().out)["result"]
    base = load_fixture_set("ghz_path3")
    s = build_inflated_set(base, inflate(base.graph, d)).measurement_set
    assert out.read_text() == json.dumps(set_to_json(s), indent=2) + "\n"


def test_build_unwritable_out_is_input_error(tmp_path, ghz_file, capsys):
    """A failed write is an input error (exit 2), never exit 1."""
    out = str(tmp_path / "missing" / "built.json")
    assert main(["build", ghz_file, "--out", out]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"input error: cannot write {out}: ")
    assert captured.out == ""


@pytest.mark.parametrize("command", ["inflate", "build", "verify", "bound"])
def test_inputs_digest_is_the_sha256_of_the_input_file(
    triangle_file, ghz_file, capsys, command
):
    path = triangle_file if command == "inflate" else ghz_file
    assert main([command, path]) == 0
    report = json.loads(capsys.readouterr().out)
    text = Path(path).read_text()
    assert report["inputs_digest"] == hashlib.sha256(text.encode()).hexdigest()


def test_inputs_digest_of_a_crlf_file_is_of_its_bytes(tmp_path, capsys):
    """The digest is of the file's bytes, not of its text after universal
    newlines fold CRLF into LF."""
    lf = cli._fixture_text("chain7").encode()
    path = tmp_path / "chain7_crlf.json"
    path.write_bytes(lf.replace(b"\n", b"\r\n"))
    assert main(["verify", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["inputs_digest"] == hashlib.sha256(path.read_bytes()).hexdigest()
    assert report["inputs_digest"] != hashlib.sha256(lf).hexdigest()


@pytest.mark.parametrize("command", ["verify", "reproduce"])
def test_failed_stdout_write_is_output_error(ghz_file, capsys, monkeypatch, command):
    """A report that cannot be written exits 2, never 1 ("verified false")."""
    argv = ["verify", ghz_file] if command == "verify" else ["reproduce", "chain7"]

    def full(text):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(sys.stdout, "write", full)
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "output error: cannot write to stdout: [Errno 28] No space left on device\n"
    )


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
@pytest.mark.parametrize("command", ["verify", "reproduce"])
def test_stdout_on_a_full_device_exits_2(ghz_file, command):
    """End to end, with stdout block-buffered as it is by default: the
    interpreter's final flush of the failed stdout must not turn exit 2 into
    120, and no traceback is printed."""
    argv = ["verify", ghz_file] if command == "verify" else ["reproduce", "chain7"]
    path = [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    env.pop("PYTHONUNBUFFERED", None)
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "inflated_graphs.cli", *argv],
            stdout=full,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
            timeout=60,
        )
    assert proc.returncode == 2
    assert proc.stderr.startswith("output error: cannot write to stdout: ")
    assert proc.stderr.count("\n") == 1


def test_build_uncertified_base_exits_3(tmp_path, capsys):
    s = load_fixture_set("ghz_path3")
    obj = set_to_json(s)
    obj["pairs"] = obj["pairs"][:3]  # breaks the sign product
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(obj))
    assert main(["build", str(path), "--d", "1"]) == 3
    assert "precondition" in capsys.readouterr().err


def test_build_failing_its_reverification_exits_70(ghz_file, capsys, monkeypatch):
    monkeypatch.setattr(
        sys.modules[build_inflated_set.__module__], "_plan_decoys", lambda c, f: []
    )
    assert main(["build", ghz_file, "--d", "1"]) == cli.EXIT_FAULT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "RuntimeError: constructed set failed re-verification" in captured.err
    assert "odd excerpt classes: {" in captured.err


def test_unknown_fixture_is_input_error():
    with pytest.raises(cli.InputError, match="unknown fixture 'nope'; choose from"):
        load_fixture_set("nope")


def test_verify_mutated_fixture_exits_1(tmp_path, capsys):
    obj = json.loads(
        json.dumps(set_to_json(load_fixture_set("table1_9cycle")))
    )
    obj["pairs"][0]["letters"]["1"] = "Y"  # flip one letter
    path = tmp_path / "mutated.json"
    path.write_text(json.dumps(obj))
    assert main(["verify", str(path)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["result"]["overall"] is False


@pytest.mark.parametrize(
    "where, value",
    [
        ("letter", [1]),
        ("letter", {"a": 1}),
        ("letter", None),
        ("letter", 1),
        ("letter", "W"),
        ("letter vertex", "X"),
        ("mask vertex", None),
    ],
)
def test_malformed_letters_and_vertices_are_input_errors(
    tmp_path, capsys, where, value
):
    # A leaked TypeError would exit 1 with a traceback, which reads as
    # "verified false".
    obj = set_to_json(load_fixture_set("ghz_path3"))
    pair = obj["pairs"][0]
    if where == "letter":
        pair["letters"]["1"] = value
    elif where == "letter vertex":
        pair["letters"]["9"] = value
    else:
        pair["mask"].append("9")
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(obj))
    assert main(["verify", str(path)]) == 2
    assert "input error:" in capsys.readouterr().err


def test_distance_past_the_diameter_stops_at_the_fixpoint(tmp_path, capsys):
    obj = set_to_json(load_fixture_set("ghz_path3"))
    obj["d"] = 10**9
    path = tmp_path / "far.json"
    path.write_text(json.dumps(obj))
    for command, code in (("verify", 1), ("bound", 0)):
        started = time.perf_counter()
        assert main([command, str(path)]) == code
        assert time.perf_counter() - started < 1.0, command
    capsys.readouterr()


def test_bound_fixtures(capsys):
    import importlib.resources as res

    for name, expected in [
        *PAPER_NUMBERS.values(),
        ("ghz_path3", {"qm": 4, "bound": 2}),
    ]:
        path = str(
            res.files("inflated_graphs").joinpath(f"fixtures/{name}.json")
        )
        assert main(["bound", path]) == 0
        report = json.loads(capsys.readouterr().out)
        for key, want in expected.items():
            assert report["result"][key] == want


def test_bound_of_the_empty_set_has_no_ratio(tmp_path, capsys):
    """A bound of 0 has no ratio: the report says null, and exits 0."""
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"graph": {"edges": []}, "d": 0, "pairs": []}))
    assert main(["bound", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["result"] == {"qm": 0, "bound": 0, "min_violations": 0, "ratio": None}


def test_bound_over_step_budget_exits_3(ghz_file, monkeypatch, capsys):
    monkeypatch.setattr(gf2, "MAX_COSET_STEPS", 0)
    assert main(["bound", ghz_file]) == 3
    err = capsys.readouterr().err
    assert "precondition failure" in err and "too large" in err


def test_bound_has_no_cap_option(ghz_file):
    with pytest.raises(SystemExit) as exc:
        main(["bound", ghz_file, "--cap", "30"])
    assert exc.value.code == 2


def test_reproduce_all_names(capsys):
    for name in cli.REPRODUCTIONS:
        assert main(["reproduce", name]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "PASS" in out


# Every claim line of each reproduction, as printed; only the "# elapsed"
# line that ends each output is left out.
REPRODUCTION_CLAIMS = {
    **{
        name: "".join(
            f"PASS  {fixture}: {claim}\n"
            for claim in (
                "certificate overall",
                "no perfect classical strategy",
                *(f"{key} = {want}" for key, want in expected.items()),
            )
        )
        for name, fixture, expected in (
            ("table1", "table1_9cycle", {"qm": 10, "bound": 8, "ratio": "5/4"}),
            ("chain7", "chain7", {"qm": 6, "bound": 4, "ratio": "3/2"}),
            ("cycle5", "cycle5", {"qm": 16, "bound": 14, "ratio": "8/7"}),
        )
    },
    "chsh4": (
        "PASS  chsh4: quantum value = 2*sqrt(2)\n"
        "PASS  chsh4: distance-1 classical bound = 2\n"
        "PASS  chsh4: ratio = sqrt(2)\n"
    ),
    "small-graphs": "".join(
        f"PASS  small-graphs: {gid} zero mismatches ({cases} cases)\n"
        for gid, cases in (
            ("path3", 512),
            ("triangle", 512),
            ("path4", 4096),
            ("star4", 4096),
            ("cycle4", 4096),
            ("paw4", 4096),
            ("diamond4", 4096),
            ("k4", 4096),
        )
    ),
}


@pytest.mark.parametrize("name", cli.REPRODUCTIONS)
def test_reproduce_prints_its_claim_lines(name, capsys):
    assert main(["reproduce", name]) == 0
    *claims, elapsed = capsys.readouterr().out.splitlines(keepends=True)
    assert "".join(claims) == REPRODUCTION_CLAIMS[name]
    assert elapsed.startswith("# elapsed ")


def test_reproduce_unknown_name_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["reproduce", "nonsense"])
    assert exc.value.code == 2


def test_reports_are_deterministic(tmp_path, ghz_file, capsys):
    results = []
    for _ in range(2):
        assert main(["bound", ghz_file]) == 0
        report = json.loads(capsys.readouterr().out)
        report.pop("timing_seconds")
        results.append(json.dumps(report, sort_keys=True))
    assert results[0] == results[1]


def test_exit_code_constants():
    assert (
        cli.EXIT_OK,
        cli.EXIT_FALSE,
        cli.EXIT_INPUT,
        cli.EXIT_PRECONDITION,
        cli.EXIT_FAULT,
    ) == (0, 1, 2, 3, 70)


@pytest.mark.parametrize("command", ["inflate", "build", "verify", "bound"])
def test_json_commands_share_one_envelope(triangle_file, ghz_file, capsys, command):
    path = triangle_file if command == "inflate" else ghz_file
    assert main([command, path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert list(report) == ["command", "inputs_digest", "result", "timing_seconds"]
    assert report["command"] == command


# Per command, a library function it calls, as cli imported it, and the
# arguments that reach it.
FAULT_SITES = {
    "inflate": ("inflate", ["inflate", "{graph}"]),
    "build": ("build_inflated_set", ["build", "{set}"]),
    "verify": ("verify_paradox", ["verify", "{set}"]),
    "bound": ("bell_report", ["bound", "{set}"]),
    "reproduce chain7": ("verify_paradox", ["reproduce", "chain7"]),
    "reproduce small-graphs": ("check_model", ["reproduce", "small-graphs"]),
}


@pytest.mark.parametrize("error", [RuntimeError, KeyError])
@pytest.mark.parametrize("site", sorted(FAULT_SITES))
def test_program_fault_exits_70(
    triangle_file, ghz_file, capsys, monkeypatch, site, error
):
    """A fault of the program is neither "verified false" (1) nor an input
    error (2): it exits 70 with its traceback on stderr and prints no
    report."""
    name, argv = FAULT_SITES[site]

    def fault(*args, **kwargs):
        raise error("injected fault")

    monkeypatch.setattr(cli, name, fault)
    argv = [a.format(graph=triangle_file, set=ghz_file) for a in argv]
    assert main(argv) == cli.EXIT_FAULT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("Traceback (most recent call last):\n")
    assert f"{error.__name__}: " in captured.err
    assert "injected fault" in captured.err


@pytest.mark.parametrize(
    "stage, code, message",
    [("read", 2, "input error: boom\n"), ("work", 3, "precondition failure: boom\n")],
)
@pytest.mark.parametrize("command", ["inflate", "build", "verify", "bound"])
def test_the_failing_stage_picks_the_exit_code(
    triangle_file, ghz_file, capsys, monkeypatch, command, stage, code, message
):
    """A ValueError from the command's reader is an input error (2); the
    same error while the command works on its parsed input is a
    precondition failure (3).  Neither prints a report."""

    def boom(*args, **kwargs):
        raise ValueError("boom")

    work, argv = FAULT_SITES[command]
    reader = "graph_from_json" if command == "inflate" else "set_from_json"
    monkeypatch.setattr(cli, reader if stage == "read" else work, boom)
    argv = [a.format(graph=triangle_file, set=ghz_file) for a in argv]
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.err == message
    assert captured.out == ""


# JSON values of every type, for an edit that gives a value another type.
_JSON_VALUES = (None, True, False, 0, 2, 1.5, "1", "X", "W", [], ["1"], {}, {"1": "X"})


def _edit(rng, obj):
    """One random edit inside a JSON value: a value set to another JSON
    type, a key dropped or added, or a list item duplicated."""
    containers = []
    stack = [obj]
    while stack:
        value = stack.pop()
        if isinstance(value, dict):
            containers.append(value)
            stack.extend(value.values())
        elif isinstance(value, list):
            if value:
                containers.append(value)
            stack.extend(value)
    container = rng.choice(containers)
    if isinstance(container, dict):
        kinds = ("retype", "drop", "add") if container else ("add",)
        keys = list(container)
    else:
        kinds = ("retype", "duplicate")
        keys = range(len(container))
    kind = rng.choice(kinds)
    if kind == "add":
        key = rng.choice(("extra", "9", "name", "d"))
        container[key if key not in container else "extra"] = rng.choice(_JSON_VALUES)
        return
    key = rng.choice(keys)
    if kind == "drop":
        del container[key]
    elif kind == "duplicate":
        container.insert(rng.randrange(len(container) + 1), copy.deepcopy(container[key]))
    else:
        old = type(container[key])
        container[key] = copy.deepcopy(
            rng.choice([v for v in _JSON_VALUES if type(v) is not old])
        )


def test_edited_inputs_exit_with_the_pinned_codes(tmp_path, capsys):
    """Fixtures (their graphs for inflate) with one or two random edits
    exit 0, 1, 2 or 3, never 70: 1 ("verified false") only from verify, and
    an input error (2) or precondition failure (3) prints no report.  The
    counts per command and code are pinned, so a change in how any edited
    input is read shows here."""
    rng = random.Random(33)
    path = tmp_path / "edited.json"
    codes = Counter()
    for case in range(300):
        command = rng.choice(("verify", "bound", "build", "inflate"))
        obj = json.loads(cli._fixture_text(rng.choice(cli.FIXTURES)))
        if command == "inflate":
            obj = obj["graph"]
        for _ in range(rng.randint(1, 2)):
            _edit(rng, obj)
        path.write_text(json.dumps(obj))
        code = main([command, str(path)])
        captured = capsys.readouterr()
        assert code in (0, 1, 2, 3), (case, command, obj, captured.err)
        assert code != 1 or command == "verify", (case, command, obj)
        if code in (2, 3):
            assert captured.out == "", (case, command, obj)
        codes[command, code] += 1
    assert codes == Counter(
        {
            ("bound", 0): 14, ("bound", 2): 41, ("bound", 3): 9,
            ("build", 0): 3, ("build", 2): 63, ("build", 3): 18,
            ("inflate", 0): 23, ("inflate", 2): 48,
            ("verify", 0): 19, ("verify", 1): 3, ("verify", 2): 59,
        }
    )
