"""The mutant catalogue: small deliberate faults in the package, each with
the tests that must fail under it.  A check that no test can fail is not
checked.

Run from anywhere with ``python tests/mutants.py``.  For each mutant the
runner copies the repository, without ``.git``, to a temporary directory,
replaces the entry's old text with its new text there, runs only the
entry's tests on that copy and requires pytest to exit 1 ("tests failed").
Exit 0 means the mutant survives; any other code means the tests did not
run.  An old text that is not in its file exactly once stops the run before
any mutant is tried, so a refactor updates the entry and never skips it;
``tests/test_mutants.py`` checks the same on every tier-1 run.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str  # exact text, in the file exactly once
    new: str
    tests: tuple[str, ...]  # pytest ids, relative to the repository root


MUTANTS = (
    # check_product_minus_one ignores the product's phase, so sets with even
    # parity and sign product +1 would pass as paradoxes.
    Mutant(
        "M5",
        "src/inflated_graphs/paradox.py",
        "    return product == (0, 0, 2)\n",
        "    return product[:2] == (0, 0)\n",
        ("tests/test_paradox.py::test_product_phase_matches_the_stabilizer_signs",),
    ),
    # compile_pair writes each mask digit one place off.
    Mutant(
        "M6",
        "src/inflated_graphs/pauli.py",
        "            ms[n - index[v]] = 49\n",
        "            ms[n - index[v] - 1] = 49\n",
        ("tests/test_paradox.py::test_digit_compile_matches_the_shift_loops",),
    ),
    # The chain mask of build_inflated_set keeps the power bits.
    Mutant(
        "M7",
        "src/inflated_graphs/inflate.py",
        "    chain = _spread(full, member_masks) & ~_spread(full, power)\n",
        "    chain = _spread(full, member_masks)\n",
        ("tests/test_inflate.py::test_build_reproduces_chain7_fixture",),
    ),
    # ParadoxCertificate.overall without its odd-class term.
    Mutant(
        "M8",
        "src/inflated_graphs/paradox.py",
        "            not self.odd_classes\n"
        "            and None not in self.stabilizer_signs\n",
        "            None not in self.stabilizer_signs\n",
        ("tests/test_paradox.py::test_odd_classes_fail_the_verdict_with_defined_signs",),
    ),
    # ParadoxCertificate.overall without its sign term.
    Mutant(
        "M9",
        "src/inflated_graphs/paradox.py",
        "            and None not in self.stabilizer_signs\n",
        "",
        ("tests/test_paradox.py::test_undefined_signs_fail_the_verdict_with_even_parity",),
    ),
    # BellReport.classical_bound subtracts one per violation, not two.
    Mutant(
        "M10",
        "src/inflated_graphs/lhv.py",
        "        return self.qm_value - 2 * self.min_violations\n",
        "        return self.qm_value - self.min_violations\n",
        ("tests/test_lhv.py::test_bell_reports",),
    ),
    # _plan_decoys toggles three cells of its rectangle, not four.
    Mutant(
        "M11",
        "src/inflated_graphs/inflate.py",
        "        for cell in ((b1, s1), (b1, s2), (b2, s1), (b2, s2)):\n",
        "        for cell in ((b1, s1), (b1, s2), (b2, s1)):\n",
        ("tests/test_inflate.py::test_built_decoy_specs_are_well_formed",),
    ),
    # The strategy system takes a positive sign as its right-hand bit 1, so
    # game_bound bounds the negated game.  -CHSH has CHSH's bound 2 at
    # d <= 1, so the d = 1 pins alone would not see it.
    Mutant(
        "M12",
        "src/inflated_graphs/lhv.py",
        "    rhs = tuple(int(sign < 0) for sign in signs)\n",
        "    rhs = tuple(int(sign > 0) for sign in signs)\n",
        ("tests/test_lhv.py::test_game_bound_matches_dict_loop",),
    ),
    # verify_paradox ORs the excerpt rows, so every class reads as odd.
    Mutant(
        "M13",
        "src/inflated_graphs/paradox.py",
        "        parity ^= row\n",
        "        parity |= row\n",
        ("tests/test_paradox.py::test_ghz_set_verifies",),
    ),
    # _grow_balls stops one radius short of d (for d >= 2).
    Mutant(
        "M14",
        "src/inflated_graphs/graph.py",
        "    for _ in range(d - 1):\n",
        "    for _ in range(d - 2):\n",
        ("tests/test_graph.py::test_ball_masks_match_bfs",),
    ),
    # check_model keys its mismatches on a bit above the sign bit, so it
    # reports none.
    Mutant(
        "M15",
        "src/inflated_graphs/lhv.py",
        "    for k in np.flatnonzero(key == 1 << n).tolist():\n",
        "    for k in np.flatnonzero(key == 1 << (n + 1)).tolist():\n",
        ("tests/test_lhv.py::test_bare_model_mismatches_match_closed_form",),
    ),
)


def mutated_text(mutant: Mutant, root: Path = ROOT) -> str:
    """The mutant's file under root with its old text replaced; ValueError
    when the old text is not in the file exactly once."""
    text = (root / mutant.path).read_text()
    if text.count(mutant.old) != 1:
        raise ValueError(
            f"{mutant.name}: {mutant.old.strip()!r} is not in {mutant.path} exactly once"
        )
    return text.replace(mutant.old, mutant.new)


def run(mutant: Mutant) -> int:
    """pytest's exit code on the mutant's tests, in a mutated copy."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(
            ROOT,
            copy,
            ignore=shutil.ignore_patterns(
                ".git", "__pycache__", ".pytest_cache", ".hypothesis"
            ),
        )
        (copy / mutant.path).write_text(mutated_text(mutant, copy))
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *mutant.tests],
            cwd=copy,
            env={**os.environ, "PYTHONPATH": str(copy / "src")},
        ).returncode


def main() -> None:
    for mutant in MUTANTS:
        mutated_text(mutant)  # every old text is checked before any run
    survivors = []
    for mutant in MUTANTS:
        status = run(mutant)
        print(f"{mutant.name}: pytest exit {status}", flush=True)
        if status != 1:
            survivors.append(mutant.name)
    if survivors:
        sys.exit(f"mutants not caught: {survivors}")
    print(f"all {len(MUTANTS)} mutants caught")


if __name__ == "__main__":
    try:
        main()
    except ValueError as exc:
        sys.exit(str(exc))
