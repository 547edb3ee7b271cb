"""The mutant catalogue stays in step with the code, without running it:
``python tests/mutants.py`` (a CI step) runs the mutants themselves."""

import ast
import signal
import subprocess

import pytest

import mutants
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


def test_a_hung_mutant_is_killed_and_not_caught(monkeypatch, capsys):
    """Tests that pass the time limit have their process group killed, and
    the run reports the mutant as hung and not caught."""
    killed = []

    class Hung:
        pid = 4321  # never signalled: os.killpg is patched below

        def __init__(self, args, **kwargs):
            assert kwargs["start_new_session"]
            self.args = args

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def wait(self, timeout=None):
            if timeout is not None:
                raise subprocess.TimeoutExpired(self.args, timeout)
            return -signal.SIGKILL

    monkeypatch.setattr(subprocess, "Popen", Hung)
    monkeypatch.setattr(mutants.os, "killpg", lambda pid, sig: killed.append((pid, sig)))
    monkeypatch.setattr(mutants, "MUTANTS", MUTANTS[:1])
    with pytest.raises(SystemExit, match=r"mutants not caught: \['M5'\]"):
        mutants.main()
    assert killed == [(4321, signal.SIGKILL)]
    assert capsys.readouterr().out == f"M5: hung after {mutants.TIME_LIMIT} s\n"
