"""Golden CLI outputs: the report, exit code and written files of every JSON
command on a fixed table of inputs, each reproduce target's claim lines and
the bundled fixture files, pinned by sha256.

A refactor that keeps every output passes this file unedited.  A change
that alters an output on purpose updates its rows and says which.  The
``timing_seconds`` value and the ``# elapsed`` line are the only parts left
out: they are the only parts that vary from run to run.
"""

import hashlib
import json
import re
from functools import partial
from importlib import resources

import pytest

from inflated_graphs import cli
from inflated_graphs.graph import inflate
from inflated_graphs.inflate import build_inflated_set
from inflated_graphs.paradox import set_to_json


def _built(d):
    """The set that ``build --d d --out`` writes for the ghz_path3 fixture."""
    base = cli.load_fixture_set("ghz_path3")
    s = build_inflated_set(base, inflate(base.graph, d)).measurement_set
    return json.dumps(set_to_json(s), indent=2) + "\n"


def _graph_of(name):
    """The graph object of a measurement-set fixture, as a graph file."""
    return json.dumps(json.loads(cli._fixture_text(name))["graph"], indent=2) + "\n"


def _ghz_path3_at_d1():
    """ghz_path3 read at d = 1: defined signs, product -I, and every vertex
    with an odd excerpt class."""
    obj = json.loads(cli._fixture_text("ghz_path3"))
    obj["d"] = 1
    return json.dumps(obj, indent=2) + "\n"


INPUTS = {
    **{name: partial(cli._fixture_text, name) for name in cli.FIXTURES},
    **{f"ghz_path3 built at d={d}": partial(_built, d) for d in (1, 2, 3)},
    "ghz_path3 at d=1": _ghz_path3_at_d1,
    "empty set": lambda: '{"graph": {"edges": []}, "d": 0, "pairs": []}\n',
    **{f"{name} graph": partial(_graph_of, name) for name in cli.FIXTURES},
    "triangle graph": partial(cli._fixture_text, "triangle"),
    "path3 graph": partial(cli._fixture_text, "path3"),
}

COMMANDS = {
    "verify": ["verify"],
    "bound": ["bound"],
    "build": ["build"],
    "build --d 2 --out": ["build", "--d", "2", "--out"],
    "inflate": ["inflate"],
    "inflate --d 3 --out": ["inflate", "--d", "3", "--out"],
}

# (command, input) -> (exit code, sha256 of the masked stdout, stderr and
# written files; see _run).
GOLDEN = {
    ("verify", "table1_9cycle"):
        (0, "96a05c983dc917b57f056527cadcd8e7b1cca473eed313529441c8282cbf40e7"),
    ("verify", "chain7"):
        (0, "415500df63f36b901a5e314ceca896c9b3bf04d4ba9dbdc252d78c1a14aa4e2b"),
    ("verify", "cycle5"):
        (0, "137d4eb61ff2c25740c516dfa0806a3dd86ddf7fcb91e732e4966ef49c61a5e6"),
    ("verify", "ghz_path3"):
        (0, "7d1e35f3486e71ecc13d818d96c0c6095c6e455e64abac1bbb3069a5a02d3eb3"),
    ("verify", "ghz_path3 built at d=1"):
        (0, "7fa44da52d85b4be01c1688599d9458040dffee6dcaba2dad0452c0b85a4574e"),
    ("verify", "ghz_path3 built at d=2"):
        (0, "f859be4d3050cdf582bf96b440ccbd86a87b8b3b8e254326b4d5666b1150f60a"),
    ("verify", "ghz_path3 built at d=3"):
        (0, "16e7664abfa65d5131eeb3c1a46996a333a4c3269c006a06bb1c9b146c4c11b2"),
    ("verify", "ghz_path3 at d=1"):
        (1, "035d99a7201504788087f4d9caef831801d169a2964f64e6f2df4c3ae76750cb"),
    ("verify", "empty set"):
        (1, "644bb588284445e3238ed838dac952c615a3c9885ff77e8e7b9627bf7e5fb788"),
    ("verify", "table1_9cycle graph"):
        (2, "06ef24d06a1503c72c1eed497ce02ea14b89595ae640d04117a29566014a2ed0"),
    ("verify", "chain7 graph"):
        (2, "06ef24d06a1503c72c1eed497ce02ea14b89595ae640d04117a29566014a2ed0"),
    ("verify", "cycle5 graph"):
        (2, "06ef24d06a1503c72c1eed497ce02ea14b89595ae640d04117a29566014a2ed0"),
    ("verify", "ghz_path3 graph"):
        (2, "06ef24d06a1503c72c1eed497ce02ea14b89595ae640d04117a29566014a2ed0"),
    ("verify", "triangle graph"):
        (2, "06ef24d06a1503c72c1eed497ce02ea14b89595ae640d04117a29566014a2ed0"),
    ("verify", "path3 graph"):
        (2, "06ef24d06a1503c72c1eed497ce02ea14b89595ae640d04117a29566014a2ed0"),
    ("bound", "table1_9cycle"):
        (0, "207db23bc64a7b05865a285ea8a95b01b5e9bc64b114c4abdde25e93c090405b"),
    ("bound", "chain7"):
        (0, "4051f38f63e5771d4854bf6b125257a5199fa224d5231db2c860699634e71874"),
    ("bound", "cycle5"):
        (0, "d1c469cc6d6a1c583864778fd9cbcb4fda9875a74c1e705df1a98b3ee3359da4"),
    ("bound", "ghz_path3"):
        (0, "ddbb82431604f38cca13fe596fbb20fe3e00b827e97dd66a078d16ae33f009f8"),
    ("bound", "ghz_path3 built at d=1"):
        (0, "d1e0c2bb0ef6afae4bf5ed1c42a29991cee786ae64f7c9c94762d2634bfa19fd"),
    ("bound", "ghz_path3 built at d=2"):
        (0, "e2a45fcc8da2513042df9cab4ded6a3b4a7b08619917183cb8d4638547fcd981"),
    ("bound", "ghz_path3 built at d=3"):
        (0, "cdb702cb4fe78c547ddcdea2c3a33842a44883d230aee6b551d893c29adf6012"),
    ("bound", "ghz_path3 at d=1"):
        (0, "cd49f9d663854db8a566e5b0f467bc11c1abb3096218137597b14d9217050473"),
    ("bound", "empty set"):
        (0, "1ac90c9f902f0e6670c724e56de4d2195c60e779bc66830e94bea6cc17b0e291"),
    ("bound", "table1_9cycle graph"):
        (2, "06ef24d06a1503c72c1eed497ce02ea14b89595ae640d04117a29566014a2ed0"),
    ("bound", "chain7 graph"):
        (2, "06ef24d06a1503c72c1eed497ce02ea14b89595ae640d04117a29566014a2ed0"),
    ("bound", "cycle5 graph"):
        (2, "06ef24d06a1503c72c1eed497ce02ea14b89595ae640d04117a29566014a2ed0"),
    ("bound", "ghz_path3 graph"):
        (2, "06ef24d06a1503c72c1eed497ce02ea14b89595ae640d04117a29566014a2ed0"),
    ("bound", "triangle graph"):
        (2, "06ef24d06a1503c72c1eed497ce02ea14b89595ae640d04117a29566014a2ed0"),
    ("bound", "path3 graph"):
        (2, "06ef24d06a1503c72c1eed497ce02ea14b89595ae640d04117a29566014a2ed0"),
    ("build", "table1_9cycle"):
        (3, "9f369ead28c2ab886bdb22dfb7b5284dc0425a4e4dc097098106eaf4ac32123e"),
    ("build", "chain7"):
        (3, "9f369ead28c2ab886bdb22dfb7b5284dc0425a4e4dc097098106eaf4ac32123e"),
    ("build", "cycle5"):
        (3, "9f369ead28c2ab886bdb22dfb7b5284dc0425a4e4dc097098106eaf4ac32123e"),
    ("build", "ghz_path3"):
        (0, "41b75033f312d88ef086b02dc89cdade1d96d8559a2153d18b57367a286dcd37"),
    ("build", "ghz_path3 built at d=1"):
        (3, "9f369ead28c2ab886bdb22dfb7b5284dc0425a4e4dc097098106eaf4ac32123e"),
    ("build", "ghz_path3 built at d=2"):
        (3, "9f369ead28c2ab886bdb22dfb7b5284dc0425a4e4dc097098106eaf4ac32123e"),
    ("build", "ghz_path3 built at d=3"):
        (3, "9f369ead28c2ab886bdb22dfb7b5284dc0425a4e4dc097098106eaf4ac32123e"),
    ("build", "ghz_path3 at d=1"):
        (3, "9f369ead28c2ab886bdb22dfb7b5284dc0425a4e4dc097098106eaf4ac32123e"),
    ("build", "empty set"):
        (3, "e4917536241ac0ef145c1ec99d978d841826369008c04756055bd245b764be2a"),
    ("build", "table1_9cycle graph"):
        (2, "06ef24d06a1503c72c1eed497ce02ea14b89595ae640d04117a29566014a2ed0"),
    ("build", "chain7 graph"):
        (2, "06ef24d06a1503c72c1eed497ce02ea14b89595ae640d04117a29566014a2ed0"),
    ("build", "cycle5 graph"):
        (2, "06ef24d06a1503c72c1eed497ce02ea14b89595ae640d04117a29566014a2ed0"),
    ("build", "ghz_path3 graph"):
        (2, "06ef24d06a1503c72c1eed497ce02ea14b89595ae640d04117a29566014a2ed0"),
    ("build", "triangle graph"):
        (2, "06ef24d06a1503c72c1eed497ce02ea14b89595ae640d04117a29566014a2ed0"),
    ("build", "path3 graph"):
        (2, "06ef24d06a1503c72c1eed497ce02ea14b89595ae640d04117a29566014a2ed0"),
    ("build --d 2 --out", "table1_9cycle"):
        (3, "9f369ead28c2ab886bdb22dfb7b5284dc0425a4e4dc097098106eaf4ac32123e"),
    ("build --d 2 --out", "chain7"):
        (3, "9f369ead28c2ab886bdb22dfb7b5284dc0425a4e4dc097098106eaf4ac32123e"),
    ("build --d 2 --out", "cycle5"):
        (3, "9f369ead28c2ab886bdb22dfb7b5284dc0425a4e4dc097098106eaf4ac32123e"),
    ("build --d 2 --out", "ghz_path3"):
        (0, "3e07e0cbd7965ab336ff946737987fb6f7c949268993ffd7a182509368b87341"),
    ("build --d 2 --out", "ghz_path3 built at d=1"):
        (3, "9f369ead28c2ab886bdb22dfb7b5284dc0425a4e4dc097098106eaf4ac32123e"),
    ("build --d 2 --out", "ghz_path3 built at d=2"):
        (3, "9f369ead28c2ab886bdb22dfb7b5284dc0425a4e4dc097098106eaf4ac32123e"),
    ("build --d 2 --out", "ghz_path3 built at d=3"):
        (3, "9f369ead28c2ab886bdb22dfb7b5284dc0425a4e4dc097098106eaf4ac32123e"),
    ("build --d 2 --out", "ghz_path3 at d=1"):
        (3, "9f369ead28c2ab886bdb22dfb7b5284dc0425a4e4dc097098106eaf4ac32123e"),
    ("build --d 2 --out", "empty set"):
        (3, "e4917536241ac0ef145c1ec99d978d841826369008c04756055bd245b764be2a"),
    ("build --d 2 --out", "table1_9cycle graph"):
        (2, "06ef24d06a1503c72c1eed497ce02ea14b89595ae640d04117a29566014a2ed0"),
    ("build --d 2 --out", "chain7 graph"):
        (2, "06ef24d06a1503c72c1eed497ce02ea14b89595ae640d04117a29566014a2ed0"),
    ("build --d 2 --out", "cycle5 graph"):
        (2, "06ef24d06a1503c72c1eed497ce02ea14b89595ae640d04117a29566014a2ed0"),
    ("build --d 2 --out", "ghz_path3 graph"):
        (2, "06ef24d06a1503c72c1eed497ce02ea14b89595ae640d04117a29566014a2ed0"),
    ("build --d 2 --out", "triangle graph"):
        (2, "06ef24d06a1503c72c1eed497ce02ea14b89595ae640d04117a29566014a2ed0"),
    ("build --d 2 --out", "path3 graph"):
        (2, "06ef24d06a1503c72c1eed497ce02ea14b89595ae640d04117a29566014a2ed0"),
    ("inflate", "table1_9cycle"):
        (2, "31a256f6999b04c5c5de298d3c3e8b58490b993fc58a69dcb75f046b815c2f5b"),
    ("inflate", "chain7"):
        (2, "31a256f6999b04c5c5de298d3c3e8b58490b993fc58a69dcb75f046b815c2f5b"),
    ("inflate", "cycle5"):
        (2, "31a256f6999b04c5c5de298d3c3e8b58490b993fc58a69dcb75f046b815c2f5b"),
    ("inflate", "ghz_path3"):
        (2, "31a256f6999b04c5c5de298d3c3e8b58490b993fc58a69dcb75f046b815c2f5b"),
    ("inflate", "ghz_path3 built at d=1"):
        (2, "31a256f6999b04c5c5de298d3c3e8b58490b993fc58a69dcb75f046b815c2f5b"),
    ("inflate", "ghz_path3 built at d=2"):
        (2, "31a256f6999b04c5c5de298d3c3e8b58490b993fc58a69dcb75f046b815c2f5b"),
    ("inflate", "ghz_path3 built at d=3"):
        (2, "31a256f6999b04c5c5de298d3c3e8b58490b993fc58a69dcb75f046b815c2f5b"),
    ("inflate", "ghz_path3 at d=1"):
        (2, "31a256f6999b04c5c5de298d3c3e8b58490b993fc58a69dcb75f046b815c2f5b"),
    ("inflate", "empty set"):
        (2, "31a256f6999b04c5c5de298d3c3e8b58490b993fc58a69dcb75f046b815c2f5b"),
    ("inflate", "table1_9cycle graph"):
        (0, "2f4e35daf172798d023364f5ef2c528a96730b8226c5395ecbc6b2975e30cb2f"),
    ("inflate", "chain7 graph"):
        (0, "ed747f8ea2be62f6bc9983a6cf8b3f46e0b2c306041189ebd58c21abee8b1837"),
    ("inflate", "cycle5 graph"):
        (0, "d5d11d71a9cb8bc080117b1877917470478ff2989b788c292b9bafd015535d24"),
    ("inflate", "ghz_path3 graph"):
        (0, "8d401ecaba1da1fffdbe828511c88cb841b3fb96c323f2a8e99a552140718a1e"),
    ("inflate", "triangle graph"):
        (0, "4854f86afd61657e6761ddaea8d43c814b18d52fa7c3389cda24a7c6fd173d80"),
    ("inflate", "path3 graph"):
        (0, "8d401ecaba1da1fffdbe828511c88cb841b3fb96c323f2a8e99a552140718a1e"),
    ("inflate --d 3 --out", "table1_9cycle"):
        (2, "31a256f6999b04c5c5de298d3c3e8b58490b993fc58a69dcb75f046b815c2f5b"),
    ("inflate --d 3 --out", "chain7"):
        (2, "31a256f6999b04c5c5de298d3c3e8b58490b993fc58a69dcb75f046b815c2f5b"),
    ("inflate --d 3 --out", "cycle5"):
        (2, "31a256f6999b04c5c5de298d3c3e8b58490b993fc58a69dcb75f046b815c2f5b"),
    ("inflate --d 3 --out", "ghz_path3"):
        (2, "31a256f6999b04c5c5de298d3c3e8b58490b993fc58a69dcb75f046b815c2f5b"),
    ("inflate --d 3 --out", "ghz_path3 built at d=1"):
        (2, "31a256f6999b04c5c5de298d3c3e8b58490b993fc58a69dcb75f046b815c2f5b"),
    ("inflate --d 3 --out", "ghz_path3 built at d=2"):
        (2, "31a256f6999b04c5c5de298d3c3e8b58490b993fc58a69dcb75f046b815c2f5b"),
    ("inflate --d 3 --out", "ghz_path3 built at d=3"):
        (2, "31a256f6999b04c5c5de298d3c3e8b58490b993fc58a69dcb75f046b815c2f5b"),
    ("inflate --d 3 --out", "ghz_path3 at d=1"):
        (2, "31a256f6999b04c5c5de298d3c3e8b58490b993fc58a69dcb75f046b815c2f5b"),
    ("inflate --d 3 --out", "empty set"):
        (2, "31a256f6999b04c5c5de298d3c3e8b58490b993fc58a69dcb75f046b815c2f5b"),
    ("inflate --d 3 --out", "table1_9cycle graph"):
        (0, "ddcb8e3f64014ae05f28429e5a893d8aac6a036093104cd9c1270e29a96ea906"),
    ("inflate --d 3 --out", "chain7 graph"):
        (0, "b0776583b38ff87f11393f84d8946e51106b11381b76bd382d64d8ef78bf7841"),
    ("inflate --d 3 --out", "cycle5 graph"):
        (0, "8a0828b75bc32362e6bc0b2782c6a1a71d7de27a58e77d1b8c40094b59b557c1"),
    ("inflate --d 3 --out", "ghz_path3 graph"):
        (0, "b75196d8b6ab7a4d7113acf9d17ac8ed48025e3f157fcfaf680c69087376982e"),
    ("inflate --d 3 --out", "triangle graph"):
        (0, "bef12e704731076a63e5a26b660b2602591dae80845dee442b60d07791e92730"),
    ("inflate --d 3 --out", "path3 graph"):
        (0, "b75196d8b6ab7a4d7113acf9d17ac8ed48025e3f157fcfaf680c69087376982e"),
}

# Reproduction name -> sha256 of its stdout without the "# elapsed" line.
REPRODUCE_GOLDEN = {
    "table1": "6c177d83283270a5ad1f59931e4657abebe91c068335a425d1fd20ebbe54c5d4",
    "chain7": "9ee88038f3125fb3fa9cc2627cfb4b87df6164bb1e25ca6f0300828c2bd2c1e1",
    "cycle5": "03a6c5dfd257b5c27c699a8694b69bf612caebcdd04cfcf6afbe8258a58de15a",
    "chsh4": "9c025e8ace4cf4bbba68e2555f51b4e3928fd4a4fc193a973b8d98433167ba5b",
    "small-graphs": "815d78b895702f5412bf9617d977de1617f11c7eea1f61fbfad7366b9174eefb",
}

# File name -> sha256 of each bundled fixture file.
FIXTURE_GOLDEN = {
    "chain7.json": "29ed738b7dc60a0451b463a5a1e00c6a0f9a975d5eb36c5c24c04ff325d18dca",
    "cycle5.json": "bbefd9a910b95075b19f3ac63594de2c601cce9d317e2bfdb5ec32559a07ed23",
    "flip_rules.json": "c63a790eda24b2102b25f5669ca873dcb5f4c1ea1868c8202c88452663383924",
    "ghz_path3.json": "1fe150093c9ee8ccc9332900cc2bca627924ef2ab54218b904578bd00e7e96ae",
    "path3.json": "0ad602720d67bb5e629a80ee43c1002bcb7ec3a060de974f7e2175f7e0bdca83",
    "table1_9cycle.json": "1acee8d227e642d31c3bd6a6c09d40b89395644a57dadc893b38967e3bed0e8a",
    "triangle.json": "b56580a5aebad4e7f93bb99daa66dbfa7ba7fa858028d734134a909d6273e4a1",
}


def _run(command, input_name, tmp_path, capsys):
    """Run one command through cli.main; return its exit code and the
    sha256 of its stdout (timing value masked), its stderr and every file
    it wrote, by name."""
    path = tmp_path / "input.json"
    path.write_text(INPUTS[input_name]())
    written = tmp_path / "written"
    written.mkdir()
    name, *options = COMMANDS[command]
    argv = [name, str(path), *options]
    if argv[-1] == "--out":
        argv.append(str(written / "out"))
    code = cli.main(argv)
    captured = capsys.readouterr()
    out = re.sub(r'("timing_seconds": )[-+.\deE]+', r"\g<1>0", captured.out)
    digest = hashlib.sha256()
    digest.update(out.encode() + b"\0")
    digest.update(captured.err.replace(str(tmp_path), "<tmp>").encode())
    for f in sorted(written.iterdir()):
        digest.update(b"\0" + f.name.encode() + b"\0" + f.read_bytes())
    return code, digest.hexdigest()


@pytest.mark.parametrize(
    "command, input_name", list(GOLDEN), ids=[" on ".join(key) for key in GOLDEN]
)
def test_cli_output_is_pinned(command, input_name, tmp_path, capsys):
    assert _run(command, input_name, tmp_path, capsys) == GOLDEN[command, input_name]


def test_golden_table_covers_every_command_and_input():
    assert set(GOLDEN) == {(c, i) for c in COMMANDS for i in INPUTS}


@pytest.mark.parametrize("name", cli.REPRODUCTIONS)
def test_reproduce_output_is_pinned(name, capsys):
    assert cli.main(["reproduce", name]) == 0
    *claims, elapsed = capsys.readouterr().out.splitlines(keepends=True)
    assert elapsed.startswith("# elapsed ")
    digest = hashlib.sha256("".join(claims).encode()).hexdigest()
    assert digest == REPRODUCE_GOLDEN[name]


def test_fixture_files_are_pinned():
    fixtures = resources.files("inflated_graphs").joinpath("fixtures")
    found = {
        f.name: hashlib.sha256(f.read_bytes()).hexdigest()
        for f in fixtures.iterdir()
        if f.name.endswith(".json")
    }
    assert found == FIXTURE_GOLDEN
