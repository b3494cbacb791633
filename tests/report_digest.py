"""Print one digest per CLI report, to compare two versions of the package.

Usage:  PYTHONPATH=src python3 tests/report_digest.py

Runs every subcommand at ``--seed 17`` and ``--seed 3`` with ``--format
json`` (the commands that read a sequence read ``fixtures/sample.seq``),
drops the ``wall_time_s`` column, and prints per run the exit code, the
SHA-256 of the remaining report and the command's stdout with the report
directory replaced by ``<out>``.  Two versions whose outputs are equal line
for line wrote byte-identical reports modulo wall time.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

from restapprox.cli import _COMMANDS, main

SAMPLE = str(Path(__file__).resolve().parent.parent / "fixtures" / "sample.seq")
SEEDS = (17, 3)


def digest(command: str, seed: int) -> str:
    """One line: command, seed, exit code, report digest, stdout."""
    argv = [command] + ([SAMPLE] if _COMMANDS[command].takes_input else [])
    argv += ["--seed", str(seed), "--format", "json"]
    with tempfile.TemporaryDirectory() as out_dir:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main(argv + ["--out", out_dir])
        report = Path(out_dir) / f"{command}.json"
        if report.exists():
            rows = json.loads(report.read_text())
            for row in rows:
                del row["wall_time_s"]
            text = json.dumps(rows, indent=2, sort_keys=True)
            sha = hashlib.sha256(text.encode()).hexdigest()
        else:
            sha = "no-report"
        printed = stdout.getvalue().replace(out_dir, "<out>").strip()
    return f"{command} seed={seed} exit={code} sha256={sha} stdout={printed!r}"


if __name__ == "__main__":
    for seed in SEEDS:
        for command in _COMMANDS:
            print(digest(command, seed), flush=True)
