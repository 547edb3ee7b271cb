import ast
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import inflated_graphs
from inflated_graphs.cli import load_fixture_set

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "inflated_graphs"


def test_all_names_resolve():
    for name in inflated_graphs.__all__:
        assert hasattr(inflated_graphs, name), name
    assert len(set(inflated_graphs.__all__)) == len(inflated_graphs.__all__)


def test_inflate_is_the_construction_function():
    # Importing the inflate submodule rebinds the package attribute; the
    # package restores the graph construction function.
    assert inflated_graphs.inflate is inflated_graphs.graph.inflate


def test_import_loads_neither_openssl_nor_decimal():
    """Importing the package and its CLI, as every benchmark worker does for
    load_fixture_set, loads numpy but not hashlib (OpenSSL) or fractions
    (decimal): those load only in the functions that use them."""
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import inflated_graphs, inflated_graphs.cli\n"
        "print(*sorted(set(sys.modules) - before))\n"
    )
    path = [str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    added = set(
        subprocess.run(
            [sys.executable, "-c", code],
            env=env,
            capture_output=True,
            text=True,
            check=True,
            timeout=60,
        ).stdout.split()
    )
    assert {"numpy", "inflated_graphs.cli"} <= added
    heavy = {"hashlib", "_hashlib", "fractions", "decimal", "_decimal"}
    assert not added & heavy, sorted(added & heavy)


def test_bell_report_ratio_is_a_fraction():
    rep = inflated_graphs.bell_report(load_fixture_set("chain7"))
    assert type(rep.ratio) is Fraction
    assert rep.ratio == Fraction(3, 2)


def test_every_library_definition_has_a_caller_outside_the_tests():
    """Every function, method and class of the package is named (as an AST
    Name or Attribute) by the package itself outside ``__init__.py``, by
    the benchmark or by a CI step.  Code that only tests call belongs with
    the tests.  Dunder methods are left out: Python calls them.  The CI
    steps hold Python inside shell lines, so their identifiers are read as
    words."""
    defined = {}
    used = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined.setdefault(node.name, f"{path.name}:{node.lineno}")
            if path.name == "__init__.py":
                continue
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    for path in sorted((ROOT / ".github" / "workflows").glob("*.yml")):
        used.update(re.findall(r"[A-Za-z_]\w*", path.read_text()))
    assert defined
    unused = {name: where for name, where in defined.items() if name not in used}
    assert not unused, unused


def test_conftest_imports_nothing_it_checks():
    """The test oracles in conftest.py stay independent of the paths they
    check: no import of lhv, gf2, pauli or paradox."""
    tree = ast.parse((Path(__file__).parent / "conftest.py").read_text())
    modules = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            modules.append(node.module or "")
            modules.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            modules.extend(alias.name for alias in node.names)
    assert modules
    checked = {"lhv", "gf2", "pauli", "paradox"}
    assert not [m for m in modules if checked & set(m.split("."))], modules


def test_failing_hypothesis_test_reports_its_example(tmp_path):
    """Under the project's pytest settings (every warning an error), a
    failing @given test ends with its falsifying example, not with an
    INTERNALERROR from the hypothesis plugin's report hook."""
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, strategies as st\n"
        "\n"
        "\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 5\n"
    )
    result = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
            "test_fails.py",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    out = result.stdout + result.stderr
    assert "INTERNALERROR" not in out, out
    assert "Falsifying example" in out, out
    assert result.returncode == 1, out
