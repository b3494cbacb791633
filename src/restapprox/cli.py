"""Command-line front end.

Subcommands
-----------

``norm``
    All four quasi-norms of a coefficient file: the aggregated lattice norm,
    the per-scale norm, the weighted rearrangement norm, and the
    budget-weighted approximation norm.
``sigma``
    Best restricted approximation error at one mass budget.
``approx-norm``
    Integral and dyadic budget aggregates plus their sandwich check.
``democracy``
    Structured-family values and masses against their closed forms.
``jackson`` / ``bernstein``
    Comparison constants over random suites of growing size, with a drift
    check.
``lorentz-besov``
    The rearrangement-versus-per-scale norm identity on random draws.
``verify-all``
    The full ten-criterion verification suite.

Every subcommand accepts ``--config`` (flat ``key=value`` lines), ``--out``
(report directory), ``--format`` (``csv`` or ``json``) and ``--seed``.  The
command-line seed overrides the config seed; the committed default is
``verify.DEFAULT_SEED``.  Reports are written as ``<command>.<format>`` with
rows sorted by id; the wall-time column is last so byte comparison modulo
that column is a plain text diff.

Exit codes: 0 — success, no report row has status ``fail``; 1 — at least one
row failed; 2 — usage, config, or parameter error.  The status is read from
the report's rows, the same count the summary line prints.
"""

from __future__ import annotations

import argparse
import math
import sys
from functools import cache, partial
from pathlib import Path
from typing import Callable, NamedTuple

from .approx import (
    ApproxParams,
    approx_norm,
    bernstein_constant,
    jackson_constant,
    sigma_exact,
    sigma_greedy,
    sigma_profile,
)
from .democracy import DemocracyCase, GammaFamily, predicted_admissible
from .dyadic import Cube, MeasureSpec
from .errors import (
    CapabilityError,
    ConfigError,
    ContractViolationError,
    DivergenceError,
    QuadratureError,
    ScaleRangeError,
)
from .lorentz import CoeffSeq, LorentzParams, lorentz_norm
from .report import ReportRow, failure_count, format_number, write_report
from .spaces import IDENTITY_TOL, SpaceParams, space_norm
from .verify import (
    CLOSED_FORM_TOL,
    DEFAULT_SEED,
    DRIFT_BOUND,
    closed_form_checks,
    comparison_suites,
    drift,
    lorentz_besov_draws,
    results_to_rows,
    run_all,
    sandwich,
)
from .weights import WeightFn

__all__ = ["main", "run_norm", "run_democracy", "run_verify_all"]

# Errors reported as "error: ..." with exit code 2.
_USAGE_ERRORS = (
    ScaleRangeError,
    ContractViolationError,
    CapabilityError,
    DivergenceError,
    QuadratureError,
    ConfigError,
    OSError,
)


# --------------------------------------------------------------------------
# config and data files
# --------------------------------------------------------------------------


def _read_text(path: str | Path) -> str:
    """The file's text, or a ConfigError naming it when it is not UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc})") from None


def load_config(path: str | Path) -> dict[str, str]:
    """Flat ``key=value`` lines; ``#`` starts a comment; blank lines ignored."""
    values: dict[str, str] = {}
    text = _read_text(path)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key:
            raise ConfigError(f"{path}:{lineno}: expected 'key=value', got {raw!r}")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        values[key] = value
    return values


class Settings:
    """Typed, range-checked access to a flat config mapping."""

    def __init__(self, values: dict[str, str], allowed: frozenset[str], source: str):
        unknown = sorted(set(values) - allowed - {"seed"})
        if unknown:
            raise ConfigError(
                f"{source}: unknown keys {', '.join(unknown)}; "
                f"allowed: {', '.join(sorted(allowed))}"
            )
        self._values = values
        self._source = source

    def _fail(self, key: str, message: str) -> ConfigError:
        return ConfigError(f"{self._source}: key {key!r} {message}")

    def get_float(
        self,
        key: str,
        default: float,
        *,
        lo: float | None = None,
        hi: float | None = None,
        allow_inf: bool = False,
    ) -> float:
        raw = self._values.get(key)
        if raw is None:
            return default
        try:
            value = float(raw)
        except ValueError:
            raise self._fail(key, f"is not a number: {raw!r}") from None
        if math.isnan(value):
            raise self._fail(key, "must not be NaN")
        if math.isinf(value) and not allow_inf:
            raise self._fail(key, "must be finite")
        if lo is not None and value < lo:
            raise self._fail(key, f"must be >= {lo:g}, got {value:g}")
        if hi is not None and value > hi:
            raise self._fail(key, f"must be <= {hi:g}, got {value:g}")
        return value

    def get_int(self, key: str, default: int, *, lo: int, hi: int) -> int:
        raw = self._values.get(key)
        if raw is None:
            return default
        try:
            value = int(raw)
        except ValueError:
            raise self._fail(key, f"is not an integer: {raw!r}") from None
        if not lo <= value <= hi:
            raise self._fail(key, f"must be in [{lo}, {hi}], got {value}")
        return value

    def get_choice(self, key: str, default: str, choices: tuple[str, ...]) -> str:
        value = self._values.get(key, default)
        if value not in choices:
            raise self._fail(key, f"must be one of {choices}, got {value!r}")
        return value

    def get_weight(self, key: str, default: str) -> WeightFn:
        return WeightFn.parse(self._values.get(key, default))

    def get_seed(self, override: int | None) -> int:
        if override is not None:
            return override
        return self.get_int("seed", DEFAULT_SEED, lo=0, hi=2**64 - 1)


def read_sequence(path: str | Path) -> CoeffSeq:
    """Parse ``j k1 ... kd value`` lines into a coefficient sequence.

    Tokens are separated by any whitespace, ``#`` starts a comment that runs
    to the end of its line, blank lines are skipped, and zero coefficients
    are dropped.  The dimension is that of the first data line and must be
    the same on every line.  The text is checked in bulk, column by column;
    when a check fails, the error names the first bad line.
    """
    text = _read_text(path)
    lines = text.splitlines()
    if "#" in text:
        lines = [line.partition("#")[0] for line in lines]
        tokens = " ".join(lines).split()
    else:
        tokens = text.split()
    widths = set(map(len, map(str.split, lines))) - {0}
    del lines
    if not widths:
        raise ConfigError(f"{path}: no coefficients found")
    width = max(widths)
    columns = None
    if len(widths) == 1 and width >= 3:
        columns = _number_columns(tokens, width)
    del tokens
    if columns is not None:
        js, ks, values = columns
        seq = CoeffSeq._from_clean(zip(Cube.from_columns(js, ks), values))
        if len(seq) == len(values):
            if 0.0 in values:
                seq = CoeffSeq._from_clean((q, v) for q, v in seq.items() if v)
            return seq
    raise _first_bad_line(path, text)


def _number_columns(
    tokens: list[str], width: int
) -> tuple[list[int], list[tuple[int, ...]], list[float]] | None:
    """Scales, position tuples and values of ``tokens`` read ``width`` to a
    line, or None when a token is not a number or a value is not finite."""
    try:
        js = list(map(int, tokens[::width]))
        axes = [map(int, tokens[axis::width]) for axis in range(1, width - 1)]
        ks = list(zip(*axes))
        values = list(map(float, tokens[width - 1 :: width]))
    except ValueError:
        return None
    return (js, ks, values) if all(map(math.isfinite, values)) else None


def _first_bad_line(path: str | Path, text: str) -> ConfigError:
    """The error of ``text``'s first bad line, each line checked as
    ``read_sequence`` checks the whole text: at least three tokens, the
    first data line's dimension, numbers, a finite value, a new cube."""
    d: int | None = None
    seen: set[tuple[int, tuple[int, ...]]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.partition("#")[0].split()
        if not parts:
            continue
        where = f"{path}:{lineno}"
        if len(parts) < 3:
            return ConfigError(f"{where}: expected 'j k1 ... kd value', got {raw!r}")
        if d is None:
            d = len(parts) - 2
        elif len(parts) - 2 != d:
            return ConfigError(f"{where}: expected dimension {d}, got {len(parts) - 2}")
        try:
            key = int(parts[0]), tuple(map(int, parts[1:-1]))
            value = float(parts[-1])
        except ValueError:
            return ConfigError(f"{where}: bad number in {raw!r}")
        if not math.isfinite(value):
            return ConfigError(f"{where}: coefficient must be finite")
        if key in seen:
            return ConfigError(f"{where}: duplicate cube {Cube(*key)}")
        seen.add(key)


_SOLVERS = ("greedy", "knapsack", "brute")


def _space_from(cfg: Settings, d: int, *, kind_default: str = "tl") -> SpaceParams:
    kind = cfg.get_choice("kind", kind_default, ("tl", "besov"))
    allow_inf_p = kind == "besov"
    return SpaceParams(
        cfg.get_float("s", 0.0, lo=-64.0, hi=64.0),
        cfg.get_float("p", 2.0, lo=0.01, allow_inf=allow_inf_p),
        cfg.get_float("q", 2.0, lo=0.01, allow_inf=True),
        d,
        kind,
    )


# --------------------------------------------------------------------------
# subcommand handlers; each returns its report rows
# --------------------------------------------------------------------------


def run_norm(seq: CoeffSeq, cfg: Settings, seed: int) -> list[ReportRow]:
    del seed  # fully determined by the input file and config
    space = _space_from(cfg, seq.d)
    besov = SpaceParams(space.s, space.p, space.q, seq.d, "besov")
    alpha = cfg.get_float("alpha", 1.0, lo=-16.0, hi=16.0)
    measure = MeasureSpec(alpha)
    lorentz = LorentzParams(
        cfg.get_weight("eta", "power:p=2"),
        mu=cfg.get_float("mu", 2.0, lo=0.01, allow_inf=True),
        xi=cfg.get_float("lorentz_xi", 0.0, lo=0.0, hi=16.0),
    )
    approx = ApproxParams(
        cfg.get_float("approx_xi", 0.5, lo=1e-6, hi=16.0),
        cfg.get_float("approx_mu", 2.0, lo=0.01, allow_inf=True),
        space,
        measure,
    )
    solver = cfg.get_choice("solver", "greedy", _SOLVERS)
    space_desc = f"s={space.s:g} p={space.p:g} q={space.q:g} d={seq.d}"
    return [
        ReportRow(
            "norm/aggregated",
            space_desc,
            "norm",
            format_number(space_norm(seq, space)),
        ),
        ReportRow(
            "norm/per-scale",
            space_desc,
            "norm",
            format_number(space_norm(seq, besov)),
        ),
        ReportRow(
            "norm/rearranged",
            f"eta={lorentz.eta.spec_string()} mu={lorentz.mu:g} "
            f"xi={lorentz.xi:g} alpha={alpha:g}",
            "norm",
            format_number(lorentz_norm(seq, measure, lorentz)),
        ),
        ReportRow(
            "norm/budgeted",
            f"{space_desc} xi={approx.xi:g} mu={approx.mu:g} "
            f"alpha={alpha:g} solver={solver}",
            "norm",
            format_number(approx_norm(seq, approx, solver)),
        ),
    ]


def run_sigma(seq: CoeffSeq, cfg: Settings, seed: int) -> list[ReportRow]:
    del seed
    space = _space_from(cfg, seq.d)
    measure = MeasureSpec(cfg.get_float("alpha", 1.0, lo=-16.0, hi=16.0))
    params = ApproxParams(1.0, 1.0, space, measure)
    budget = cfg.get_float("budget", 1.0, lo=0.0)
    solver = cfg.get_choice("solver", "greedy", _SOLVERS)
    if solver == "greedy":
        result = sigma_greedy(seq, budget, params)
    else:
        result = sigma_exact(seq, budget, params, mode=solver)
    desc = f"budget={budget:g} solver={solver}"
    return [
        ReportRow("sigma/error", desc, "error", format_number(result.error)),
        ReportRow(
            "sigma/certified", desc, "certified", "1" if result.certified else "0"
        ),
        ReportRow(
            "sigma/support",
            desc,
            "cubes",
            "; ".join(str(c) for c in result.support),
        ),
    ]


def run_approx_norm(seq: CoeffSeq, cfg: Settings, seed: int) -> list[ReportRow]:
    del seed
    space = _space_from(cfg, seq.d)
    measure = MeasureSpec(cfg.get_float("alpha", 1.0, lo=-16.0, hi=16.0))
    xi = cfg.get_float("xi", 0.5, lo=1e-6, hi=16.0)
    mu = cfg.get_float("mu", 2.0, lo=0.01, allow_inf=True)
    params = ApproxParams(xi, mu, space, measure)
    solver = cfg.get_choice("solver", "greedy", _SOLVERS)
    check = sandwich(sigma_profile(seq, params, solver), xi, mu)
    desc = f"xi={xi:g} mu={mu:g} solver={solver}"
    # Below xi*mu = 1 the lower constant degrades: the row is informational.
    if check.guaranteed:
        status = "pass" if check.ok else "fail"
        tolerance = f"within [2^-xi, 2^xi] = [{check.lo:.6g}, {check.hi:.6g}]"
    else:
        status, tolerance = "info", "window not guaranteed for xi*mu < 1"
    return [
        ReportRow("approx-norm/integral", desc, "norm", format_number(check.integral)),
        ReportRow("approx-norm/dyadic", desc, "norm", format_number(check.dyadic)),
        ReportRow(
            "approx-norm/sandwich",
            "approx:integral-dyadic-sandwich",
            "ratio",
            format_number(check.ratio),
            status=status,
            tolerance=tolerance,
        ),
    ]


def run_democracy(cfg: Settings, seed: int) -> list[ReportRow]:
    del seed
    d = cfg.get_int("d", 1, lo=1, hi=2)
    f1 = SpaceParams(
        cfg.get_float("s1", 0.3, lo=-64.0, hi=64.0),
        cfg.get_float("p1", 1.5, lo=0.01),
        cfg.get_float("q1", 2.2, lo=0.01, allow_inf=True),
        d,
        "tl",
    )
    f2 = SpaceParams(
        cfg.get_float("s2", 0.8, lo=-64.0, hi=64.0),
        cfg.get_float("p2", 2.5, lo=0.01, allow_inf=True),
        cfg.get_float("q2", 3.0, lo=0.01, allow_inf=True),
        d,
        "besov",
    )
    formula = DemocracyCase(f1, f2, 1.0).formula_alpha
    alpha = cfg.get_float("alpha", formula, lo=-64.0, hi=64.0)
    alpha += cfg.get_float("alpha_perturb", 0.0, lo=-8.0, hi=8.0)
    case = DemocracyCase(f1, f2, alpha)
    adm = predicted_admissible(case)
    rows = [
        ReportRow(
            "democracy/admissible",
            f"alpha={alpha:g} formula={formula:g}",
            "predicted",
            "1" if adm.ok else "0",
            tolerance=adm.reason,
        )
    ]
    for tag in ("grid", "tower", "row"):
        for n in (1, 2, 4, 8):
            l_values = (1, 2, 4) if tag == "grid" else (1,)
            for l_val in l_values:
                fam = GammaFamily(tag, n, L=l_val, d=d)
                suffix = f"-L{l_val}" if tag == "grid" else ""
                base_id = f"democracy/{tag}-N{n}{suffix}"
                for metric, got, want, ok in closed_form_checks(fam, case, formula):
                    rows.append(
                        ReportRow(
                            f"{base_id}/{metric}",
                            "democracy:closed-form",
                            metric,
                            format_number(got),
                            status="pass" if ok else "fail",
                            tolerance=f"rel<={CLOSED_FORM_TOL} "
                            f"want={format_number(want)}",
                        )
                    )
    return rows


def _run_constant(name: str, cfg: Settings, seed: int) -> list[ReportRow]:
    space = _space_from(cfg, 1)
    params = ApproxParams(
        cfg.get_float("xi", 0.5, lo=1e-6, hi=16.0),
        cfg.get_float("mu", math.inf, lo=0.01, allow_inf=True),
        space,
        MeasureSpec(cfg.get_float("alpha", 0.0, lo=-16.0, hi=16.0)),
    )
    lorentz = LorentzParams(
        cfg.get_weight("eta", "power:p=2"),
        mu=cfg.get_float("lorentz_mu", 1.0, lo=0.01, allow_inf=True),
        xi=cfg.get_float("lorentz_xi", 0.5, lo=0.0, hi=16.0),
    )
    fn = jackson_constant if name == "jackson" else bernstein_constant
    rows = []
    constants = []
    for size, suite in comparison_suites(seed, 107 if name == "jackson" else 108):
        value = fn(suite, params, lorentz)
        constants.append(value)
        rows.append(
            ReportRow(
                f"{name}/size-{size:03d}",
                f"suite of 5, {size} cubes each",
                "constant",
                format_number(value),
            )
        )
    ratio, ok = drift(constants)
    rows.append(
        ReportRow(
            f"{name}/drift",
            "constants:drift",
            "max/min",
            format_number(ratio),
            status="pass" if ok else "fail",
            tolerance=f"x<{DRIFT_BOUND:g} across sizes 16/32/64",
        )
    )
    return rows


def run_lorentz_besov(cfg: Settings, seed: int) -> list[ReportRow]:
    draws = cfg.get_int("draws", 50, lo=1, hi=500)
    draw_checks = lorentz_besov_draws(seed, 104, draws)
    return [
        ReportRow(
            f"lorentz-besov/draw-{i:03d}",
            f"tau={tau:g} d={d} alpha={alpha:.6g} gamma={gamma:.6g}",
            "relative-gap",
            format_number(gap),
            status="pass" if ok else "fail",
            tolerance=f"lorentz-besov:identity rel<={IDENTITY_TOL:g}",
        )
        for i, (tau, d, alpha, gamma, gap, ok) in enumerate(draw_checks)
    ]


def run_verify_all(cfg: Settings, seed: int) -> list[ReportRow]:
    alpha_perturb = cfg.get_float("alpha_perturb", 0.0, lo=-8.0, hi=8.0)
    results = run_all(seed, alpha_perturb)
    for result in results:
        print(result.line())
    return results_to_rows(results)


# --------------------------------------------------------------------------
# argument parsing and dispatch
# --------------------------------------------------------------------------


class _Command(NamedTuple):
    """A subcommand's handler, whether it reads an input file (passed to the
    handler first), and the config keys it accepts besides ``seed``."""

    run: Callable[..., list[ReportRow]]
    takes_input: bool
    keys: frozenset[str]


# The space and measure keys of every command that reads an input file.
_SPACE_KEYS = frozenset({"s", "p", "q", "kind", "alpha"})

_CONSTANT_KEYS = frozenset(
    {"s", "p", "q", "alpha", "xi", "mu", "eta", "lorentz_mu", "lorentz_xi"}
)

_COMMANDS = {
    "norm": _Command(
        run_norm,
        True,
        _SPACE_KEYS | {"eta", "mu", "lorentz_xi", "approx_xi", "approx_mu", "solver"},
    ),
    "sigma": _Command(run_sigma, True, _SPACE_KEYS | {"budget", "solver"}),
    "approx-norm": _Command(
        run_approx_norm, True, _SPACE_KEYS | {"xi", "mu", "solver"}
    ),
    "democracy": _Command(
        run_democracy,
        False,
        frozenset({"d", "s1", "p1", "q1", "s2", "p2", "q2", "alpha", "alpha_perturb"}),
    ),
    "jackson": _Command(partial(_run_constant, "jackson"), False, _CONSTANT_KEYS),
    "bernstein": _Command(partial(_run_constant, "bernstein"), False, _CONSTANT_KEYS),
    "lorentz-besov": _Command(run_lorentz_besov, False, frozenset({"draws"})),
    "verify-all": _Command(run_verify_all, False, frozenset({"alpha_perturb"})),
}


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every
    ``main`` call; parsing does not change it."""
    parser = argparse.ArgumentParser(
        prog="restapprox",
        description="Restricted nonlinear approximation toolkit.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key=value config file")
    common.add_argument("--out", default="out", help="report directory")
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    common.add_argument("--seed", type=int, help="overrides the config seed")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        sp = sub.add_parser(name, parents=[common])
        if command.takes_input:
            sp.add_argument("input", help="coefficient file: 'j k1 ... kd value' lines")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors, 0 for --help
        return int(exc.code or 0)
    command = _COMMANDS[ns.command]
    try:
        raw = load_config(ns.config) if ns.config else {}
        source = ns.config or "<defaults>"
        cfg = Settings(raw, command.keys, source)
        if ns.seed is not None and not 0 <= ns.seed < 2**64:
            raise ConfigError("--seed must fit in an unsigned 64-bit integer")
        seed = cfg.get_seed(ns.seed)
        inputs = (read_sequence(ns.input),) if command.takes_input else ()
        if inputs and not inputs[0]:  # every coefficient was zero, and dropped
            raise ConfigError(f"{ns.input}: no nonzero coefficients found")
        rows = command.run(*inputs, cfg, seed)
        path = write_report(rows, ns.out, ns.command, ns.format)
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    failures = failure_count(rows)
    print(f"{len(rows)} rows -> {path} ({failures} failing)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
