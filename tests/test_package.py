import ast
import re
from pathlib import Path

import inflated_graphs

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
