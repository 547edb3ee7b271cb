import json
import time

import pytest

from inflated_graphs import cli, gf2
from inflated_graphs.cli import PAPER_NUMBERS, load_fixture_set, main
from inflated_graphs.graph import inflate
from inflated_graphs.inflate import build_inflated_set
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


def test_inflate_dot_to_stdout(triangle_file, capsys):
    assert main(["inflate", triangle_file, "--format", "dot"]) == 0
    assert capsys.readouterr().out.startswith("graph G {")


def test_inflate_bad_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert main(["inflate", str(bad)]) == 2
    assert "not valid JSON" in capsys.readouterr().err
    bad.write_text("[]")
    assert main(["inflate", str(bad)]) == 2
    assert "input error" in capsys.readouterr().err


def test_missing_file_is_input_error(capsys):
    assert main(["verify", "/does/not/exist.json"]) == 2


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


def test_build_uncertified_base_exits_3(tmp_path, capsys):
    s = load_fixture_set("ghz_path3")
    obj = set_to_json(s)
    obj["pairs"] = obj["pairs"][:3]  # breaks the sign product
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(obj))
    assert main(["build", str(path), "--d", "1"]) == 3
    assert "precondition" in capsys.readouterr().err


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
    assert (cli.EXIT_OK, cli.EXIT_FALSE, cli.EXIT_INPUT, cli.EXIT_PRECONDITION) == (
        0,
        1,
        2,
        3,
    )
