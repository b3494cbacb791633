"""Mutation gate: every named mutant of the package must fail its tests.

Usage:  python3 tests/mutants.py [NAME ...]

Each mutant names a file under ``src/``, an exact snippet of it, the snippet's
replacement, and the tier-1 test ids that must catch the change.  For each
mutant (all of them, or those named on the command line) the runner copies
``src/`` to a temporary directory, replaces the snippet there, and runs
``python -m pytest -x`` on the test ids in a subprocess, with the copy first
on ``PYTHONPATH``.  The listed tests first run once on the unmutated copy,
where they must pass.  Then the runner prints one line per mutant: whether
the tests killed it, the first failing test and the run time.  It exits 1
if the unmutated tests fail, if any mutant survives or only breaks
collection, or if any snippet does not occur exactly once in its file, so a
mutant that no longer matches the source is an error, not a pass.

Standard library only.  The file is not named ``test_*``, so tier-1 does not
collect it.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/restapprox
    old: str
    new: str
    tests: tuple[str, ...]


_WEIGHTS = "tests/test_weights.py::"
_LORENTZ = "tests/test_lorentz.py::"
MUTANTS = (
    Mutant(
        "no-order-check",
        "weights.py",
        "    if not all(map(operator.le, ends, masses)):",
        "    if False:",
        (_WEIGHTS + "test_steps_out_of_order_are_a_contract_violation",
         _WEIGHTS + "test_sups_check_the_order_before_any_value"),
    ),
    Mutant(
        "stale-power-after-narrow-step",
        "weights.py",
        "                a_power = None\n",
        "",
        (_WEIGHTS + "test_weight_integrals_power_family_is_the_closed_form",
         _LORENTZ + "test_column_paths_equal_the_per_step_references"),
    ),
    Mutant(
        "no-small-exponent-branch",
        "weights.py",
        "if e < 1.0 and b_power <= 2.0 * a_power:",
        "if False:",
        (_WEIGHTS + "test_wide_power_step_integrals_are_accurate",),
    ),
    Mutant(
        "narrow-form-at-exponent-one",
        "weights.py",
        "if e != 1.0 and b <= 2.0 * a:",
        "if b <= 2.0 * a:",
        (_WEIGHTS + "test_narrow_power_step_integrals_are_accurate",
         _LORENTZ + "test_column_paths_equal_the_per_step_references"),
    ),
    Mutant(
        "no-kink-at-one",
        "weights.py",
        "            if a < 1.0 < b:\n",
        "            if False:\n",
        (_WEIGHTS + "test_sups_take_every_candidate",),
    ),
    Mutant(
        "no-left-end-in-sup",
        "weights.py",
        "left if left > right else right",
        "right",
        (_WEIGHTS + "test_sups_take_every_candidate",),
    ),
    Mutant(
        "no-interior-maximum",
        "weights.py",
        "peak = math.exp(1.0 - w.b / c) if w.b > c else None",
        "peak = None",
        (_WEIGHTS + "test_sups_take_every_candidate",
         _LORENTZ + "test_column_paths_equal_the_per_step_references"),
    ),
    Mutant(
        "no-powerlog-factor-in-values",
        "weights.py",
        "t**c * (1.0 + abs(math.log(t))) ** b if t > 0.0",
        "t**c if t > 0.0",
        (_WEIGHTS + "test_sups_take_every_candidate",
         _LORENTZ + "test_column_paths_equal_the_per_step_references"),
    ),
)


def run(tests: tuple[str, ...], mutant: Mutant | None = None) -> tuple[int, str]:
    """pytest's exit code on ``tests`` against a copy of ``src/`` with the
    mutant applied (none: as it is), and the first failing test, or pytest's
    last line when none is named."""
    with tempfile.TemporaryDirectory() as work:
        src = Path(work) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        if mutant is not None:
            path = src / "restapprox" / mutant.file
            path.write_text(path.read_text().replace(mutant.old, mutant.new))
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-rf", "-p", "no:cacheprovider",
             *tests],
            cwd=ROOT, env=env, capture_output=True, text=True,
        )
    failed = re.findall(r"^FAILED (\S+)", proc.stdout, re.MULTILINE)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, failed[0] if failed else (lines[-1] if lines else "")


def main(names: list[str]) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    if names and len(chosen) != len(set(names)):
        print(f"unknown mutant in {names}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    # Unmutated, every listed test must pass, or no kill below would count.
    tests = tuple(dict.fromkeys(t for m in chosen for t in m.tests))
    code, detail = run(tests)
    if code != 0:
        print(f"unmutated source fails: {detail}")
        return 1
    bad = 0
    for mutant in chosen:
        count = (ROOT / "src" / "restapprox" / mutant.file).read_text().count(mutant.old)
        if count != 1:
            print(f"{mutant.name}: snippet found {count} times in {mutant.file}")
            bad += 1
            continue
        began = time.perf_counter()
        code, detail = run(mutant.tests, mutant)
        # pytest exits 1 when tests failed; other codes are collection or
        # usage errors, which kill nothing.
        status = {0: "SURVIVED", 1: "killed"}.get(code, f"ERROR (pytest exit {code})")
        print(f"{mutant.name}: {status} by {detail} "
              f"({time.perf_counter() - began:.1f} s)", flush=True)
        bad += code != 1
    print(f"{len(chosen) - bad} of {len(chosen)} mutants killed "
          f"in {time.perf_counter() - start:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
