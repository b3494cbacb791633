"""Regenerate the golden regression values for the bundled sample sequence.

Usage:  python3 tests/make_goldens.py

The goldens pin the CLI outputs for ``fixtures/sample.seq`` under the default
configuration (plus the documented sigma/approx-norm settings), and the
reports of the commands that take no input file (``jackson``, ``bernstein``,
``lorentz-besov``, ``democracy``) at the default seed, so that refactors
cannot silently shift numerical results.  The ``lorentz-besov`` rows also
pin their ``params`` column (tau, d, alpha, gamma) under
``lorentz-besov/draw-NNN/params``: their values are relative gaps of about
1e-16 or 0, which a relative comparison cannot tell apart, while each draw's
alpha follows the cubes of the draw before it.  They are regression pins,
not oracles: the closed-form and property tests are the ground truth, so only
regenerate after establishing independently that the new values are correct.
"""

from __future__ import annotations

import csv
import json
import tempfile
from pathlib import Path

from restapprox.cli import main

HERE = Path(__file__).resolve().parent
SAMPLE = str(HERE.parent / "fixtures" / "sample.seq")
GOLDEN_PATH = HERE / "goldens" / "sample_norms.json"

# Commands whose ``params`` column is pinned too, compared exactly.
PINNED_PARAMS = ("lorentz-besov",)

# (golden key prefix, argv builder, config text)
RUNS = [
    ("norm", ["norm", SAMPLE], ""),
    ("sigma", ["sigma", SAMPLE], "budget = 1.25\nsolver = knapsack\n"),
    ("approx-norm", ["approx-norm", SAMPLE], "xi = 0.5\nmu = 2\nsolver = knapsack\n"),
    ("jackson", ["jackson"], ""),
    ("bernstein", ["bernstein"], ""),
    ("lorentz-besov", ["lorentz-besov"], ""),
    ("democracy", ["democracy"], ""),
]


def collect() -> dict[str, str]:
    values: dict[str, str] = {}
    for name, argv, config in RUNS:
        with tempfile.TemporaryDirectory() as scratch:
            out = Path(scratch) / "out"
            args = list(argv) + ["--out", str(out)]
            if config:
                cfg = Path(scratch) / f"{name}.cfg"
                cfg.write_text(config)
                args += ["--config", str(cfg)]
            code = main(args)
            if code != 0:
                raise SystemExit(f"{name} run exited with {code}")
            (report,) = out.glob("*.csv")
            with open(report, newline="") as fh:
                for row in csv.DictReader(fh):
                    values[row["id"]] = row["value"]
                    if name in PINNED_PARAMS:
                        values[f"{row['id']}/params"] = row["params"]
    return values


if __name__ == "__main__":
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(collect(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDEN_PATH}")
