"""Print one digest per CLI report, to compare two versions of the package.

Usage:  PYTHONPATH=src python3 tests/report_digest.py

Runs every subcommand at ``--seed 17`` and ``--seed 3`` with ``--format
json`` (the commands that read a sequence read ``fixtures/sample.seq``),
then the runs in ``CONFIGS`` at ``--seed 17``: ``sigma``, ``approx-norm`` and
``norm`` on that file (exact solvers, brute sigma at q = 3, mu = inf,
q = inf, greedy profiles of the per-scale norm, power-log Lorentz weights,
an informational sandwich row at xi*mu < 1, ``norm`` at mu = inf with the
power weight and with a power-log weight whose interior maximum lies on the
first step, and power weights at mu / p = 2.6 and 0.125, whose steps past
the first are narrow but [1.5, 3.5], where the powers at 0.125 still
cancel), and ``democracy`` and
``verify-all`` with a perturbed measure exponent, whose reports hold failing
rows (exit 1).  Last come the runs in ``LARGE_CONFIGS`` at ``--seed 17`` on
generated sequences, written to a temporary directory: greedy
``approx-norm`` profiles and ``norm`` on 2 000 cubes of ``large_sequence``,
whose running exact sums see thousands of terms and whose rearrangements
take the column path: a power-log weight, mu = inf with the power and two
power-log weights (one with an interior maximum, on a step across t = 1
there), a power weight with mu / p = 2.6 (whose integrals
are no plain difference of masses), and ``alpha = 0.5`` and ``1/3``, whose
masses carry 53-bit mantissas; ``norm`` on the 200 cubes of
``gap_sequence``, half of them 900 scales finer, whose steps fold; brute
``sigma`` on 16 of its cubes, which reads the Pareto frontier at the budget,
and on 24 of them at ``alpha = 0``, whose frontier has 25 points; and
knapsack ``approx-norm`` profiles of ``superincreasing_sequence`` at 12 and
13 cubes, whose frontiers hold every subset, on either side of the exact
search's cap; and ``norm`` on the 4 000 cubes of ``large_sequence_d2`` and
the 600 of ``far_sequence``, whose tl norms take the int64 keys of the
batched kernel, with Morton codes and with keys of 62 bits; and ``norm`` on 200 cubes of
``large_sequence`` and of ``large_sequence_d2`` written as a hand-edited
file (comments, blank lines, CRLF line ends, tabs and a zero coefficient).
All reports go to a temporary directory.  Each run drops the
``wall_time_s`` column and prints the exit code, the SHA-256 of the
remaining report, and the command's stdout and stderr with the report
directory replaced by ``<out>``.  Last, for each case in ``SPREADS``,
``democracy.admissible_spread``'s ``(min, max)`` as ``float.hex`` and the
generator's next word afterwards: criterion 3's window at d = 1 and 2 (whose
report prints the spread growth to 3 decimals only), the default window at
d = 3, and an infinite aggregation exponent.  Then, for each solver,
``approx.decompose``'s pieces (scale, then each cube and its value as
``float.hex``) and score as ``float.hex``, on the sample file and on
``UNDERFLOW``, under ``approx-norm``'s default parameters: ``decompose`` is
no CLI command.  Last, for each case in ``REARRANGEMENTS``, ``rearrange``'s
masses and values as ``float.hex``, or the text of its ScaleRangeError: 64
cubes of which one sits at scale 2^63, past int64, at ``alpha = 0`` and at
``alpha = 0.5`` (where that scale's mass leaves the float range), and 64
cubes over scales 0..6 at ``alpha = 0.5``.  Two versions whose outputs are
equal line for line wrote byte-identical reports modulo wall time, exited
alike, printed the same messages, drew and scored the same families,
decomposed alike and rearranged alike.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import tempfile
from pathlib import Path

import numpy as np

from restapprox import (
    ApproxParams,
    CoeffSeq,
    Cube,
    DemocracyCase,
    MeasureSpec,
    ScaleRangeError,
    SpaceParams,
    admissible_spread,
    decompose,
    rearrange,
)
from restapprox.cli import _COMMANDS, main, read_sequence

SAMPLE = str(Path(__file__).resolve().parent.parent / "fixtures" / "sample.seq")
SEEDS = (17, 3)
# (command, config name, config text) of the runs under a config.
CONFIGS = (
    ("sigma", "knapsack", "budget = 1.25\nsolver = knapsack\n"),
    ("sigma", "brute", "budget = 1.25\nsolver = brute\n"),
    ("sigma", "brute-q3", "budget = 1.25\nsolver = brute\nq = 3\n"),
    ("approx-norm", "knapsack", "solver = knapsack\n"),
    ("approx-norm", "brute", "solver = brute\n"),
    ("approx-norm", "mu-inf", "mu = inf\n"),
    ("approx-norm", "mu-inf-knapsack", "mu = inf\nsolver = knapsack\n"),
    ("approx-norm", "q-inf", "q = inf\n"),
    ("approx-norm", "besov", "kind = besov\n"),
    ("approx-norm", "besov-inf", "kind = besov\np = inf\nq = inf\n"),
    ("norm", "q-inf", "q = inf\n"),
    ("norm", "powerlog", "eta = powerlog:p=2,b=0.5\n"),
    ("norm", "powerlog-mu3", "eta = powerlog:p=1.5,b=-0.4\nmu = 3\n"),
    ("norm", "powerlog-mu-inf", "eta = powerlog:p=2,b=0.5\nmu = inf\n"),
    ("norm", "mu-inf", "mu = inf\n"),
    ("norm", "powerlog-peak-mu-inf", "eta = powerlog:p=0.5,b=3\nmu = inf\n"),
    ("norm", "power-mu-1.3", "eta = power:p=0.5\nmu = 1.3\n"),
    ("norm", "power-mu-0.5", "eta = power:p=4\nmu = 0.5\n"),
    ("approx-norm", "xi-0.3", "xi = 0.3\n"),
    ("democracy", "perturbed", "alpha_perturb = 0.05\n"),
    ("verify-all", "perturbed", "alpha_perturb = 0.1\n"),
)


def superincreasing_sequence(n: int) -> str:
    """Cubes of scales 0, -1, ..., -(n-1) at the origin with values 3^(i/2):
    at alpha = 1, s = 0 and p = q = 2 each cube outweighs all earlier ones
    together in mass and in captured weight, so every subset is on the
    Pareto frontier."""
    return "".join(f"{-i} 0 {math.sqrt(3**i)!r}\n" for i in range(n))


def large_sequence(n: int = 2000) -> str:
    """``n`` distinct 1-d cubes over scales 0..14 with signed values spread
    over six decades, as ``j k value`` lines; the same text on every run."""
    rng = random.Random(2000)
    entries: dict[tuple[int, int], float] = {}
    while len(entries) < n:
        j = rng.randint(0, 14)
        value = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-3.0, 3.0)
        entries[j, rng.randrange(1 << j)] = value
    return "".join(f"{j} {k} {v!r}\n" for (j, k), v in entries.items())


def large_sequence_d2(n: int = 4000) -> str:
    """``n`` distinct 2-d cubes over scales 0..7 with values as in
    ``large_sequence``: a family whose forest keys are Morton codes."""
    rng = random.Random(4000)
    entries: dict[tuple[int, int, int], float] = {}
    while len(entries) < n:
        j = rng.randint(0, 7)
        value = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-3.0, 3.0)
        entries[j, rng.randrange(1 << j), rng.randrange(1 << j)] = value
    return "".join(f"{j} {a} {b} {v!r}\n" for (j, a, b), v in entries.items())


def far_sequence(n: int = 600) -> str:
    """``n`` distinct 1-d cubes over scales 0..14 inside [2^44 - 2, 2^44 - 1),
    values as in ``large_sequence``: the largest forest key range ends at
    (2^44 - 1) * 2^18, which needs 62 bits, just inside the int64 keys'
    bound."""
    rng = random.Random(600)
    entries: dict[tuple[int, int], float] = {}
    while len(entries) < n:
        j = rng.randint(0, 14)
        value = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-3.0, 3.0)
        entries[j, ((2**44 - 2) << j) + rng.randrange(1 << j)] = value
    return "".join(f"{j} {k} {v!r}\n" for (j, k), v in entries.items())


def gap_sequence(n: int = 200) -> str:
    """``n`` distinct 1-d cubes, half over scales 0..14 and half over scales
    890..900, values as in ``large_sequence``: at ``alpha = 1`` the fine
    cubes' masses vanish next to the coarse ones', so their steps fold."""
    rng = random.Random(900)
    entries: dict[tuple[int, int], float] = {}
    while len(entries) < n:
        j = rng.randint(0, 14) if len(entries) % 2 else rng.randint(890, 900)
        value = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-3.0, 3.0)
        entries[j, rng.randrange(1 << j)] = value
    return "".join(f"{j} {k} {v!r}\n" for (j, k), v in entries.items())


def _hand_edited(text: str) -> str:
    """``j k1 ... kd value`` lines as a hand-edited file might hold them: a
    comment header, CRLF line ends, tabs and extra spaces between tokens, a
    blank line after every fifth line, a trailing comment on every third,
    and the fourth line's value set to zero (``read_sequence`` drops it)."""
    lines = ["# hand-edited copy", ""]
    for i, line in enumerate(text.splitlines()):
        tokens = line.split()
        if i == 3:
            tokens[-1] = "0.0"
        line = ("\t" if i % 2 else "  ").join(tokens)
        if i % 3 == 0:
            line += "  # note"
        lines.append(line)
        if i % 5 == 4:
            lines.append("   ")
    return "\r\n".join(lines) + "\r\n"


def hand_edited_sequence(n: int = 200) -> str:
    """``large_sequence(n)`` in ``_hand_edited`` form."""
    return _hand_edited(large_sequence(n))


def hand_edited_sequence_d2(n: int = 200) -> str:
    """``large_sequence_d2(n)`` in ``_hand_edited`` form: a d = 2 file."""
    return _hand_edited(large_sequence_d2(n))


_SUPERINCREASING = "solver = knapsack\ns = 0\np = 2\nq = 2\nalpha = 1\n"
# (command, config name, config text, sequence maker, cubes) of the runs on
# generated sequences.
LARGE_CONFIGS = (
    ("approx-norm", "large-tl", "solver = greedy\np = 1.5\n", large_sequence, 2000),
    ("approx-norm", "large-tl-q-inf", "solver = greedy\np = 1.5\nq = inf\n",
     large_sequence, 2000),
    ("approx-norm", "large-besov", "solver = greedy\nkind = besov\np = 1.5\n",
     large_sequence, 2000),
    ("norm", "large-powerlog", "eta = powerlog:p=2,b=0.5\n", large_sequence, 2000),
    ("norm", "large-mu-inf", "mu = inf\n", large_sequence, 2000),
    ("norm", "large-powerlog-mu-inf", "eta = powerlog:p=2,b=0.5\nmu = inf\n",
     large_sequence, 2000),
    ("norm", "large-powerlog-peak-mu-inf", "eta = powerlog:p=0.5,b=3\nmu = inf\n",
     large_sequence, 2000),
    ("norm", "large-power-mu-1.3", "eta = power:p=0.5\nmu = 1.3\n",
     large_sequence, 2000),
    ("norm", "large-alpha-0.5", "alpha = 0.5\n", large_sequence, 2000),
    ("norm", "large-alpha-third", "alpha = 0.3333333333333333\n", large_sequence, 2000),
    ("norm", "gap-900", "p = 1.5\n", gap_sequence, 200),
    ("sigma", "n16-brute", "budget = 0.5\nsolver = brute\n", large_sequence, 16),
    ("sigma", "n24-brute-alpha-0", "budget = 5\nsolver = brute\nalpha = 0\n",
     large_sequence, 24),
    ("approx-norm", "superincreasing-12", _SUPERINCREASING, superincreasing_sequence, 12),
    ("approx-norm", "superincreasing-13", _SUPERINCREASING, superincreasing_sequence, 13),
    ("norm", "large-d2", "p = 1.5\neta = powerlog:p=2,b=0.5\n", large_sequence_d2, 4000),
    ("norm", "far-62-bit", "p = 1.5\nalpha = 0.5\n", far_sequence, 600),
    ("norm", "hand-edited", "p = 1.5\n", hand_edited_sequence, 200),
    ("norm", "hand-edited-d2", "p = 1.5\n", hand_edited_sequence_d2, 200),
)


# (label, d, q1, n_sets, cube_count, j_min, j_max) of the admissible_spread
# runs, each on the generator default_rng([17, 3]).
SPREADS = (
    ("criterion-3-d1", 1, 2.4, 100, 30, -2, 5),
    ("criterion-3-d2", 2, 2.4, 100, 60, -2, 5),
    ("default-window-d3", 3, 2.4, 20, 30, -3, 6),
    ("q-inf-d1", 1, math.inf, 100, 60, -2, 5),
)


def spread_digest(
    label: str, d: int, q1: float, n_sets: int, count: int, j_min: int, j_max: int
) -> str:
    """One line: the spread's bounds as ``float.hex`` and the next word."""
    f1 = SpaceParams(0.3, 1.7, q1, d, "tl")
    f2 = SpaceParams(0.8, 2.0, 2.5, d, "tl")
    case = DemocracyCase(f1, f2, DemocracyCase(f1, f2, 1.0).formula_alpha)
    rng = np.random.default_rng([17, 3])
    lo, hi = admissible_spread(case, rng, n_sets, count, j_min, j_max)
    word = int(rng.integers(0, 1 << 32))
    return f"spread {label} min={lo.hex()} max={hi.hex()} next-word={word}"


# Besides the sample file, decompose runs on this sequence, whose second
# cube's captured weight (1e-300)^2 underflows to 0.
UNDERFLOW = CoeffSeq({Cube(0, (0,)): 1.0, Cube(1, (1,)): 1e-300})
# approx-norm's defaults: tl with s = 0 and p = q = 2, alpha = 1, xi = 0.5,
# mu = 2.
DECOMPOSE_PARAMS = ApproxParams(
    0.5, 2.0, SpaceParams(0.0, 2.0, 2.0, 1), MeasureSpec(1.0)
)


def decompose_digest(label: str, s: CoeffSeq, solver: str) -> str:
    """One line: each piece's scale and entries, and the score."""
    res = decompose(s, DECOMPOSE_PARAMS, solver)
    pieces = " ".join(
        f"{k}:[{', '.join(f'{q}={v.hex()}' for q, v in sorted(piece.items()))}]"
        for k, piece in res.pieces
    )
    return f"decompose {label} solver={solver} pieces={pieces} score={res.score.hex()}"


# 63 cubes over scales 0..6 with tied magnitudes, and the family with one
# more cube at scale 2^63: both have 64 cubes, the column path's threshold.
NEAR = {Cube(i % 7, (i,)): 1.0 + i % 5 for i in range(63)}
PAST_INT64 = CoeffSeq({**NEAR, Cube(1 << 63, (0,)): 2.5})
# (label, sequence, alpha) of the rearrange runs.
REARRANGEMENTS = (
    ("past-int64-alpha-0", PAST_INT64, 0.0),
    ("past-int64-alpha-0.5", PAST_INT64, 0.5),
    ("n64-alpha-0.5", CoeffSeq({**NEAR, Cube(6, (63,)): 0.75}), 0.5),
)


def rearrange_digest(label: str, s: CoeffSeq, alpha: float) -> str:
    """One line: the steps' masses and values as ``float.hex``, or the error."""
    try:
        steps = rearrange(s, MeasureSpec(alpha))
    except ScaleRangeError as exc:
        return f"rearrange {label} error={exc}"
    masses = " ".join(x.hex() for x in steps.masses)
    values = " ".join(x.hex() for x in steps.values)
    return f"rearrange {label} masses=[{masses}] values=[{values}]"


def digest(
    command: str,
    seed: int,
    config: tuple[str, str] | None = None,
    sequence: str = SAMPLE,
) -> str:
    """One line: command, seed, config name, exit code, report digest, stdout
    and stderr."""
    argv = [command] + ([sequence] if _COMMANDS[command].takes_input else [])
    argv += ["--seed", str(seed), "--format", "json"]
    label = f"{command} seed={seed}"
    with tempfile.TemporaryDirectory() as out_dir:
        if config is not None:
            name, settings = config
            cfg = Path(out_dir) / f"{name}.cfg"
            cfg.write_text(settings)
            argv += ["--config", str(cfg)]
            label += f" config={name}"
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
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
        printed, warned = (
            stream.getvalue().replace(out_dir, "<out>").strip()
            for stream in (stdout, stderr)
        )
    return f"{label} exit={code} sha256={sha} stdout={printed!r} stderr={warned!r}"


if __name__ == "__main__":
    for seed in SEEDS:
        for command in _COMMANDS:
            print(digest(command, seed), flush=True)
    for command, name, settings in CONFIGS:
        print(digest(command, SEEDS[0], (name, settings)), flush=True)
    with tempfile.TemporaryDirectory() as work:
        for command, name, settings, make, n in LARGE_CONFIGS:
            sequence = Path(work) / f"{make.__name__}-{n}.seq"
            sequence.write_text(make(n))
            print(digest(command, SEEDS[0], (name, settings), str(sequence)), flush=True)
    for spread in SPREADS:
        print(spread_digest(*spread), flush=True)
    for label, sequence in ("sample", read_sequence(SAMPLE)), ("underflow", UNDERFLOW):
        for solver in ("greedy", "knapsack", "brute"):
            print(decompose_digest(label, sequence, solver), flush=True)
    for rearrangement in REARRANGEMENTS:
        print(rearrange_digest(*rearrangement), flush=True)
