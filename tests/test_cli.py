import json

import pytest

from inflated_graphs import cli
from inflated_graphs.cli import PAPER_NUMBERS, load_fixture_set, main
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
@pytest.mark.parametrize("shape", ["missing_pairs", "top_level_list"])
def test_wrong_shape_set_is_input_error(tmp_path, capsys, command, shape):
    obj = set_to_json(load_fixture_set("ghz_path3"))
    if shape == "missing_pairs":
        del obj["pairs"]
    else:
        obj = [obj]
    path = tmp_path / "wrong.json"
    path.write_text(json.dumps(obj))
    assert main([command, str(path)]) == 2
    assert "input error" in capsys.readouterr().err


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


def test_reproduce_all_names(capsys):
    for name in ("table1", "chain7", "cycle5", "chsh4", "small-graphs"):
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
