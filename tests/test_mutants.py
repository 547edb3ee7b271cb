"""The mutant catalogue stays in step with the code, without running it:
``python tests/mutants.py`` (a CI step) runs the mutants themselves."""

import ast

import pytest

from mutants import MUTANTS, ROOT, mutated_text


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_mutant_old_text_occurs_exactly_once(mutant):
    assert mutated_text(mutant) != (ROOT / mutant.path).read_text()


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_mutant_tests_exist(mutant):
    assert mutant.tests
    for test_id in mutant.tests:
        path, name = test_id.split("::")
        tree = ast.parse((ROOT / path).read_text())
        defined = {n.name for n in tree.body if isinstance(n, ast.FunctionDef)}
        assert name in defined, test_id


def test_a_stale_old_text_is_refused(tmp_path):
    mutant = MUTANTS[0]
    (tmp_path / mutant.path).parent.mkdir(parents=True)
    (tmp_path / mutant.path).write_text(mutant.old * 2)
    with pytest.raises(ValueError, match="exactly once"):
        mutated_text(mutant, tmp_path)
    (tmp_path / mutant.path).write_text("")
    with pytest.raises(ValueError, match="exactly once"):
        mutated_text(mutant, tmp_path)
