"""The out-of-tier gates of a change, run against a parent tree.

Usage:  python3 tests/gates.py --parent DIR [--quick] [--expect LABEL ...]

DIR is another tree of this repository, such as ``git archive <rev>``
unpacked; its ``src/`` holds the version to compare with.  Each gate runs in
a subprocess, one after another, except that ``verify`` runs beside
``mutants``:

* ``digest``: this tree's ``tests/report_digest.py`` on this tree's ``src/``
  and on DIR's, at once; it fails when a line differs, and names the first
  ten such lines by number, each with both versions.
* ``crossver seed 1`` and ``crossver seed 2``: ``tests/crossver.py --parent
  DIR`` at that seed, with the ``--expect`` labels given here.
* ``mutants``: ``tests/mutants.py``, every mutant.
* ``verify``: ``verify.run_all`` on this tree at seeds 1-50, or 1-10 with
  ``--quick``; it fails when a criterion fails, and names the first.

The script prints one line per gate, with its time and its outcome (the
gate's own summary line where it prints one), and exits 1 if any gate
fails.  Standard library only.  The file is not named ``test_*``, so
tier-1 does not collect it.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent

# One line per seed: the seed, then the ids of the criteria that failed.
_VERIFY = """
import sys
from restapprox import verify
for seed in range(1, int(sys.argv[1]) + 1):
    failed = [r.cid for r in verify.run_all(seed) if not r.passed]
    print(seed, *failed, flush=True)
"""


def _env(tree: Path) -> dict[str, str]:
    return {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}


def _last_line(text: str) -> str:
    lines = text.strip().splitlines()
    return lines[-1] if lines else ""


def _script(*argv: str) -> tuple[bool, str]:
    """A script of ``tests/`` run on this tree: its success and last line."""
    proc = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=_env(ROOT), capture_output=True, text=True
    )
    return proc.returncode == 0, _last_line(proc.stdout) or _last_line(proc.stderr)


def digest_gate(parent: Path) -> tuple[bool, str]:
    command = [sys.executable, str(ROOT / "tests" / "report_digest.py")]
    procs = [
        subprocess.Popen(command, cwd=ROOT, env=_env(tree), stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, text=True)
        for tree in (ROOT, parent)
    ]
    (ours, our_err), (theirs, their_err) = (proc.communicate() for proc in procs)
    for name, proc, err in (("this tree", procs[0], our_err), ("parent", procs[1], their_err)):
        if proc.returncode != 0:
            return False, f"the digest failed on {name}: {_last_line(err)}"
    ours, theirs = ours.splitlines(), theirs.splitlines()
    differ = [
        i for i in range(max(len(ours), len(theirs)))
        if ours[i : i + 1] != theirs[i : i + 1]
    ]
    if not differ:
        return True, f"{len(ours)} lines equal"
    shown = "".join(
        f"\n  line {i + 1}\n    parent: {(theirs[i : i + 1] or ['<none>'])[0]}"
        f"\n    this:   {(ours[i : i + 1] or ['<none>'])[0]}"
        for i in differ[:10]
    )
    return False, (f"{len(differ)} lines differ ({len(ours)} here, {len(theirs)} "
                   f"in the parent){shown}")


def verify_gate(seeds: int) -> Callable[[], tuple[bool, str]]:
    """Start ``verify.run_all`` at seeds 1..``seeds`` in a subprocess; the
    call returned waits for it and gives the gate's outcome."""
    proc = subprocess.Popen(
        [sys.executable, "-c", _VERIFY, str(seeds)], cwd=ROOT, env=_env(ROOT),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )

    def outcome() -> tuple[bool, str]:
        out, err = proc.communicate()
        rows = [line.split() for line in out.splitlines()]
        if proc.returncode != 0 or len(rows) != seeds:
            return False, f"stopped after {len(rows)} seeds: {_last_line(err)}"
        failed = [row for row in rows if len(row) > 1]
        if failed:
            seed, *cids = failed[0]
            return False, (f"criteria fail at {len(failed)} of seeds 1-{seeds}; "
                           f"first at seed {seed}: criteria {', '.join(cids)}")
        return True, f"every criterion passes at seeds 1-{seeds}"

    return outcome


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True,
                        help="the other tree to compare with")
    parser.add_argument("--quick", action="store_true", help="verify at seeds 1-10 only")
    parser.add_argument("--expect", nargs="*", default=[],
                        help="labels of expected crossver differences")
    args = parser.parse_args(argv)
    parent = args.parent.resolve()
    expect = ["--expect", *args.expect] if args.expect else []
    crossver = [str(ROOT / "tests" / "crossver.py"), "--parent", str(parent), *expect]
    failed = 0

    def report(name: str, start: float, outcome: tuple[bool, str]) -> None:
        nonlocal failed
        ok, detail = outcome
        failed += not ok
        print(f"{name}: {'pass' if ok else 'FAIL'} ({time.perf_counter() - start:.0f} s) "
              f"{detail}", flush=True)

    for name, gate in (
        ("digest", lambda: digest_gate(parent)),
        ("crossver seed 1", lambda: _script(*crossver, "--seed", "1")),
        ("crossver seed 2", lambda: _script(*crossver, "--seed", "2")),
    ):
        start = time.perf_counter()
        report(name, start, gate())
    # The digest and crossver run two processes each; the mutation gate runs
    # one at a time, so the criteria run beside it.
    start = time.perf_counter()
    verify = verify_gate(10 if args.quick else 50)
    report("mutants", start, _script(str(ROOT / "tests" / "mutants.py")))
    report("verify", start, verify())
    print(f"gates: {5 - failed} of 5 pass")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
