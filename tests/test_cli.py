"""Command-line interface: config parsing, commands, reports, exit codes."""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import restapprox
from restapprox import (
    ApproxParams,
    CoeffSeq,
    ConfigError,
    Cube,
    LorentzParams,
    MeasureSpec,
    SpaceParams,
    WeightFn,
    approx_norm,
    lorentz_norm,
    sigma_greedy,
    space_norm,
)
from restapprox import weights
from restapprox.cli import _COMMANDS, build_parser, load_config, main, read_sequence
from restapprox.report import format_number

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
SAMPLE = str(FIXTURES / "sample.seq")


def _rows(out_dir: Path) -> list[dict[str, str]]:
    files = list(out_dir.glob("*.csv"))
    assert len(files) == 1
    with open(files[0], newline="") as fh:
        return list(csv.DictReader(fh))


def _row(rows: list[dict[str, str]], row_id: str) -> dict[str, str]:
    matches = [r for r in rows if r["id"] == row_id]
    assert len(matches) == 1, f"expected exactly one {row_id!r} row"
    return matches[0]


def test_load_config(tmp_path):
    cfg = tmp_path / "a.cfg"
    cfg.write_text("# comment\n\nalpha = 1.5\nsolver=knapsack  \n")
    assert load_config(cfg) == {"alpha": "1.5", "solver": "knapsack"}
    bad = tmp_path / "b.cfg"
    bad.write_text("alpha 1.5\n")
    with pytest.raises(ConfigError, match="b.cfg:1"):
        load_config(bad)
    dup = tmp_path / "c.cfg"
    dup.write_text("alpha=1\nalpha=2\n")
    with pytest.raises(ConfigError, match="duplicate"):
        load_config(dup)


def test_read_sequence_happy_path():
    seq = read_sequence(SAMPLE)
    assert seq.d == 1
    assert len(seq) == 8
    assert seq[Cube(-1, (0,))] == 1.5
    assert seq[Cube(2, (6,))] == -0.125


def test_read_sequence_errors(tmp_path):
    def attempt(text):
        p = tmp_path / "seq.txt"
        p.write_text(text)
        return pytest.raises(ConfigError), p

    raises, p = attempt("0 0 1.0\n1 0 0 2.0\n")
    with raises:
        read_sequence(p)  # dimension changes mid-file
    raises, p = attempt("0 0\n")
    with raises:
        read_sequence(p)  # too few fields
    raises, p = attempt("0 zero 1.0\n")
    with raises:
        read_sequence(p)  # bad integer
    raises, p = attempt("0 0 inf\n")
    with raises:
        read_sequence(p)  # non-finite coefficient
    raises, p = attempt("0 0 1.0\n0 0 2.0\n")
    with raises:
        read_sequence(p)  # duplicate cube
    raises, p = attempt("# nothing\n")
    with raises:
        read_sequence(p)  # empty


def _line_loop_read(path):
    """The line-by-line reader ``read_sequence`` replaced, kept as its
    oracle: each line is stripped of its comment, split, and checked in
    turn, and the first bad line raises."""
    entries = {}
    d = None
    text = Path(path).read_text()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) < 3:
            raise ConfigError(
                f"{path}:{lineno}: expected 'j k1 ... kd value', got {raw!r}"
            )
        if d is None:
            d = len(parts) - 2
        elif len(parts) - 2 != d:
            raise ConfigError(
                f"{path}:{lineno}: expected dimension {d}, got {len(parts) - 2}"
            )
        try:
            j = int(parts[0])
            k = tuple(int(v) for v in parts[1:-1])
            value = float(parts[-1])
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: bad number in {raw!r}") from None
        if not math.isfinite(value):
            raise ConfigError(f"{path}:{lineno}: coefficient must be finite")
        cube = Cube(j, k)
        if cube in entries:
            raise ConfigError(f"{path}:{lineno}: duplicate cube {cube}")
        entries[cube] = value
    if not entries:
        raise ConfigError(f"{path}: no coefficients found")
    return CoeffSeq(entries)


def _read_outcome(reader, path):
    """The entries in order (scale, position, dimension, hash and value as
    hex) and the sequence's dimension, or the ConfigError's message."""
    try:
        seq = reader(path)
    except ConfigError as exc:
        return str(exc)
    entries = [(q.j, q.k, q.d, hash(q), v.hex()) for q, v in seq.items()]
    return entries, seq.d


_JUNK = st.text("0123456789-.e", min_size=1, max_size=4) | st.sampled_from(
    ["inf", "-inf", "nan", "1e999", "0", "-0.0", "+3", "1_0"]
)
_GAP = st.text(" \t\x1f", min_size=1, max_size=2)
_LINE_END = st.sampled_from(["\n", "\r\n", "\r", "\x85"])


@st.composite
def _sequence_texts(draw):
    """Texts of ``j k1 ... kd value`` lines at d = 1 to 3 over a few cubes
    (so some repeat), with zero values, blank and comment lines, lines of
    other widths, and junk tokens, joined by assorted whitespace."""
    d = draw(st.integers(1, 3))
    text = ""
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(["data"] * 5 + ["blank", "width", "junk"]))
        width = draw(st.integers(1, 6)) if kind == "width" else d + 2
        tokens = [str(draw(st.integers(-1, 2))) for _ in range(width - 1)]
        value = draw(st.floats(allow_nan=False, allow_infinity=False) | st.just(0.0))
        tokens.append(repr(value))
        if kind == "junk":
            tokens[draw(st.integers(0, width - 1))] = draw(_JUNK)
        if kind == "blank":
            tokens = []
        line = draw(_GAP) if draw(st.booleans()) else ""
        for token in tokens:
            line += token + draw(_GAP)
        if draw(st.integers(0, 4)) == 0:
            line += "#" + draw(st.text(" 0123456789#-\x1f", max_size=6))
        text += line + draw(_LINE_END)
    return text


@settings(max_examples=400)
@given(_sequence_texts())
def test_read_sequence_matches_the_line_loop(text):
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "seq.txt"
        path.write_bytes(text.encode())
        got = _read_outcome(read_sequence, path)
        assert got == _read_outcome(_line_loop_read, path)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "# only a comment\n\n",
        "0 0 1.0\n1 0 0 2.0\n",
        "0 0\n",
        "0 zero 1.0\n",
        "0 0 inf\n",
        "0 0 1.0\n0 0 2.0\n",
        "0 0 1.0\n1 0 0.0\n\n# zero dropped\n1 1 -0.0\n",
        "0 0 1.0 # note\r\n1 1\t2.0\x1f\n",
        "1 0 1.0\n0 0 inf\n2 0 0 1.0\n",
    ],
)
def test_read_sequence_examples_match_the_line_loop(tmp_path, text):
    path = tmp_path / "seq.txt"
    path.write_bytes(text.encode())
    assert _read_outcome(read_sequence, path) == _read_outcome(_line_loop_read, path)


def test_reading_and_dropping_cubes_builds_no_cube_or_sequence_one_by_one(
    tmp_path, monkeypatch
):
    """Counted: reading a 2 000-line file, and ``CoeffSeq.without`` on it,
    call neither ``Cube.__new__`` nor ``CoeffSeq.__init__``: the cubes come
    from one ``Cube.from_columns`` and each sequence from one
    ``CoeffSeq._from_clean``."""
    path = tmp_path / "seq.txt"
    path.write_text(
        "".join(f"{i % 11} {i} {1.0 + i / 7!r}\n" for i in range(2000))
    )
    names = ("Cube.__new__", "Cube.from_columns")
    calls = dict.fromkeys(names + ("CoeffSeq.__init__", "CoeffSeq._from_clean"), 0)
    new, init = Cube.__new__, CoeffSeq.__init__
    from_columns = Cube.from_columns.__func__
    from_clean = CoeffSeq._from_clean.__func__

    def counted_new(cls, *args):
        calls["Cube.__new__"] += 1
        return new(cls, *args)

    def counted_from_columns(cls, js, ks):
        calls["Cube.from_columns"] += 1
        return from_columns(cls, js, ks)

    def counted_init(self, *args):
        calls["CoeffSeq.__init__"] += 1
        init(self, *args)

    def counted_from_clean(cls, entries):
        calls["CoeffSeq._from_clean"] += 1
        return from_clean(cls, entries)

    monkeypatch.setattr(Cube, "__new__", counted_new)
    monkeypatch.setattr(Cube, "from_columns", classmethod(counted_from_columns))
    monkeypatch.setattr(CoeffSeq, "__init__", counted_init)
    monkeypatch.setattr(CoeffSeq, "_from_clean", classmethod(counted_from_clean))
    seq = read_sequence(path)
    rest = seq.without(seq.support[:100])
    assert (len(seq), len(rest)) == (2000, 1900)
    bulk = {"Cube.from_columns": 1, "CoeffSeq._from_clean": 2}
    assert calls == {"Cube.__new__": 0, "CoeffSeq.__init__": 0, **bulk}
    # The counters see builds one by one.
    assert _line_loop_read(path) == seq
    assert calls == {"Cube.__new__": 2000, "CoeffSeq.__init__": 1, **bulk}


def test_norm_rows_match_direct_computation(tmp_path):
    assert main(["norm", SAMPLE, "--out", str(tmp_path)]) == 0
    rows = _rows(tmp_path)
    seq = read_sequence(SAMPLE)
    space = SpaceParams(0.0, 2.0, 2.0, 1, "tl")
    besov = SpaceParams(0.0, 2.0, 2.0, 1, "besov")
    measure = MeasureSpec(1.0)
    lorentz = LorentzParams(WeightFn.power(2.0), mu=2.0, xi=0.0)
    approx = ApproxParams(0.5, 2.0, space, measure)
    assert float(_row(rows, "norm/aggregated")["value"]) == space_norm(seq, space)
    assert float(_row(rows, "norm/per-scale")["value"]) == space_norm(seq, besov)
    assert float(_row(rows, "norm/rearranged")["value"]) == lorentz_norm(
        seq, measure, lorentz
    )
    assert float(_row(rows, "norm/budgeted")["value"]) == approx_norm(
        seq, approx, "greedy"
    )
    assert all(r["status"] == "info" for r in rows)


def test_sigma_knapsack_certifies_support(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("budget = 1.25\nsolver = knapsack\n")
    out = tmp_path / "out"
    assert main(["sigma", SAMPLE, "--config", str(cfg), "--out", str(out)]) == 0
    rows = _rows(out)
    assert float(_row(rows, "sigma/error")["value"]) == pytest.approx(
        math.sqrt(7.578125), rel=1e-12
    )
    assert _row(rows, "sigma/certified")["value"] == "1"
    assert _row(rows, "sigma/support")["value"] == "0 0; 3 9"


def test_approx_norm_sandwich_checked(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("xi = 0.5\nmu = 2\nsolver = knapsack\n")
    out = tmp_path / "out"
    assert main(["approx-norm", SAMPLE, "--config", str(cfg), "--out", str(out)]) == 0
    rows = _rows(out)
    sandwich = _row(rows, "approx-norm/sandwich")
    assert sandwich["status"] == "pass"
    ratio = float(sandwich["value"])
    assert 2.0**-0.5 * (1 - 1e-9) <= ratio <= 2.0**0.5 * (1 + 1e-9)
    integral = float(_row(rows, "approx-norm/integral")["value"])
    dyadic = float(_row(rows, "approx-norm/dyadic")["value"])
    assert ratio == integral / dyadic


def test_approx_norm_sandwich_informational_below_unit_exponent(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("xi = 0.3\nmu = 2\n")
    out = tmp_path / "out"
    assert main(["approx-norm", SAMPLE, "--config", str(cfg), "--out", str(out)]) == 0
    sandwich = _row(_rows(out), "approx-norm/sandwich")
    assert sandwich["status"] == "info"
    assert "not guaranteed" in sandwich["tolerance"]


def test_unknown_config_key_is_a_usage_error(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("girth = 3\n")
    assert main(["norm", SAMPLE, "--config", str(cfg), "--out", str(tmp_path)]) == 2


def test_missing_input_file_is_a_usage_error(tmp_path):
    assert main(["norm", str(tmp_path / "nope.seq"), "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("as_config", [False, True])
def test_a_file_that_is_not_utf8_is_a_usage_error(tmp_path, capsys, as_config):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"0 0 1.0\n1 0 \xff2.0\n")
    args = [SAMPLE, "--config", str(bad)] if as_config else [str(bad)]
    assert main(["norm", *args, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: not UTF-8 text (")
    assert err.count("\n") == 1
    assert not list(tmp_path.glob("*.csv"))


def test_capability_limit_is_a_usage_error(tmp_path):
    # 13 nested cubes of masses 2^i and captured weights 3^i: all 2^13
    # subsets are on the frontier, too many for an exact profile.
    seq = tmp_path / "big.seq"
    seq.write_text("".join(f"{-i} 0 {math.sqrt(3**i)!r}\n" for i in range(13)))
    cfg = tmp_path / "run.cfg"
    cfg.write_text("solver = knapsack\n")
    out = tmp_path / "out"
    code = main(["approx-norm", str(seq), "--config", str(cfg), "--out", str(out)])
    assert code == 2


def test_overflowing_norm_is_a_typed_error_and_knapsack_takes_the_cube(
    tmp_path, capsys
):
    # (1e200)^2 overflows: the norm is out of range, while the knapsack
    # weight becomes inf and the cube is captured first.
    seq = tmp_path / "over.seq"
    seq.write_text("0 0 1e200\n1 0 1.0\n")
    assert main(["norm", str(seq), "--out", str(tmp_path / "norm")]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("solver = knapsack\n")
    out = tmp_path / "sigma"
    assert main(["sigma", str(seq), "--config", str(cfg), "--out", str(out)]) == 0
    rows = _rows(out)
    assert _row(rows, "sigma/support")["value"] == "0 0"
    assert _row(rows, "sigma/certified")["value"] == "1"
    assert float(_row(rows, "sigma/error")["value"]) == 1.0


def test_brute_sigma_with_an_infinite_weight_is_a_typed_error(tmp_path, capsys):
    # 2^900 * 1e300 overflows to an infinite captured weight.
    seq = tmp_path / "inf.seq"
    seq.write_text("-300 0 1e300\n0 0 1.0\n1 0 2.0\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("s = -3\np = 2\nq = 2\nalpha = 0\nsolver = brute\nbudget = 1\n")
    out = tmp_path / "out"
    assert main(["sigma", str(seq), "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_help_and_missing_subcommand(capsys):
    assert main(["--help"]) == 0
    assert "usage" in capsys.readouterr().out
    assert main([]) == 2


_SEED_RANGE = "--seed must fit in an unsigned 64-bit integer"


@pytest.mark.parametrize(
    "config, seed, message",
    [
        ("budget = 1.25\nsolver = greedy\n", None, None),
        ("", str(2**64), _SEED_RANGE),
        ("", "-1", _SEED_RANGE),
        ("budget = lots\n", None, "key 'budget' is not a number: 'lots'"),
        ("budget = nan\n", None, "key 'budget' must not be NaN"),
        ("budget = inf\n", None, "key 'budget' must be finite"),
        ("p = inf\n", None, "key 'p' must be finite"),
        ("budget = -1\n", None, "key 'budget' must be >= 0, got -1"),
        ("alpha = 17\n", None, "key 'alpha' must be <= 16, got 17"),
        ("seed = 1.5\n", None, "key 'seed' is not an integer: '1.5'"),
        (
            f"seed = {2**64}\n",
            None,
            f"key 'seed' must be in [0, {2**64 - 1}], got {2**64}",
        ),
        (
            "solver = magic\n",
            None,
            "key 'solver' must be one of ('greedy', 'knapsack', 'brute'), "
            "got 'magic'",
        ),
    ],
)
def test_sigma_greedy_and_settings_errors(tmp_path, capsys, config, seed, message):
    """``sigma`` under the greedy solver reports ``sigma_greedy``'s result;
    each out-of-range ``--seed`` and each kind of bad config value exits 2
    with its message."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    out = tmp_path / "out"
    argv = ["sigma", SAMPLE, "--config", str(cfg), "--out", str(out)]
    code = main(argv + (["--seed", seed] if seed is not None else []))
    err = capsys.readouterr().err
    if message is not None:
        assert code == 2
        where = "" if message == _SEED_RANGE else f"{cfg}: "
        assert err == f"error: {where}{message}\n"
        return
    assert code == 0, err
    space = SpaceParams(0.0, 2.0, 2.0, 1, "tl")
    params = ApproxParams(1.0, 1.0, space, MeasureSpec(1.0))
    result = sigma_greedy(read_sequence(SAMPLE), 1.25, params)
    rows = _rows(out)
    assert _row(rows, "sigma/error")["value"] == format_number(result.error)
    assert _row(rows, "sigma/certified")["value"] == str(int(result.certified))
    support = "; ".join(str(q) for q in result.support)
    assert _row(rows, "sigma/support")["value"] == support
    assert {r["params"] for r in rows} == {"budget=1.25 solver=greedy"}


def test_main_twice_in_one_process_runs_like_two_processes(tmp_path, capsys):
    """``main`` builds its argument parser once per process: a usage error
    and then a good run exit, print and report as each does in a fresh
    interpreter."""
    out = str(tmp_path / "out")
    runs = (
        ["norm", SAMPLE, "--format", "xml", "--out", out],
        ["norm", SAMPLE, "--format", "json", "--out", out],
    )
    in_process = []
    for argv in runs:
        code = main(argv)
        printed = capsys.readouterr()
        in_process.append((code, printed.out, printed.err))
    report = _json_values(tmp_path / "out" / "norm.json")
    separate = []
    for argv in runs:
        result = _run_child([sys.executable, "-m", "restapprox", *argv], tmp_path)
        separate.append((result.returncode, result.stdout, result.stderr))
    assert in_process == separate
    assert [code for code, _, _ in in_process] == [2, 0]
    assert _json_values(tmp_path / "out" / "norm.json") == report
    assert build_parser() is build_parser()


def _json_values(path: Path) -> list[dict]:
    rows = json.loads(path.read_text())
    for row in rows:
        del row["wall_time_s"]
    return rows


def test_json_format(tmp_path):
    out = tmp_path / "out"
    assert main(["norm", SAMPLE, "--out", str(out), "--format", "json"]) == 0
    files = list(out.glob("*.json"))
    assert len(files) == 1
    data = json.loads(files[0].read_text())
    assert {r["id"] for r in data} == {
        "norm/aggregated", "norm/per-scale", "norm/rearranged", "norm/budgeted",
    }


def test_seed_changes_randomized_suites(tmp_path):
    out_a, out_b, out_c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert main(["jackson", "--out", str(out_a)]) == 0
    assert main(["jackson", "--out", str(out_b), "--seed", "3"]) == 0
    assert main(["jackson", "--out", str(out_c)]) == 0
    rows_a, rows_b, rows_c = _rows(out_a), _rows(out_b), _rows(out_c)
    values_a = [r["value"] for r in rows_a]
    values_b = [r["value"] for r in rows_b]
    assert values_a != values_b  # different seed, different suites
    # identical seed reproduces the report byte-for-byte
    file_a = next(out_a.glob("*.csv")).read_bytes()
    file_c = next(out_c.glob("*.csv")).read_bytes()
    assert file_a == file_c
    assert rows_a  # sanity: the sweep produced rows


def test_democracy_clean_and_perturbed(tmp_path):
    out = tmp_path / "clean"
    assert main(["democracy", "--out", str(out)]) == 0
    rows = _rows(out)
    assert all(r["status"] in ("pass", "info") for r in rows)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha_perturb = 0.05\n")
    out2 = tmp_path / "perturbed"
    assert main(["democracy", "--config", str(cfg), "--out", str(out2)]) == 1
    rows2 = _rows(out2)
    assert any(r["status"] == "fail" for r in rows2)


def test_lorentz_besov_command(tmp_path):
    out = tmp_path / "out"
    cfg = tmp_path / "run.cfg"
    cfg.write_text("draws = 10\n")
    assert main(["lorentz-besov", "--config", str(cfg), "--out", str(out)]) == 0
    rows = _rows(out)
    assert rows and all(r["status"] == "pass" for r in rows)


def test_verify_all_clean(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["verify-all", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert printed.count("PASS criterion") == 10
    assert "FAIL" not in printed
    rows = _rows(out)
    assert len(rows) == 10
    assert all(r["status"] == "pass" for r in rows)
    assert [r["id"] for r in rows] == [f"crit-{k:02d}" for k in range(1, 11)]


def test_verify_all_detects_injected_drift(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha_perturb = 0.1\n")
    out = tmp_path / "out"
    assert main(["verify-all", "--config", str(cfg), "--out", str(out)]) == 1
    printed = capsys.readouterr().out
    assert "FAIL criterion 2" in printed
    rows = _rows(out)
    statuses = {r["id"]: r["status"] for r in rows}
    assert statuses["crit-02"] == "fail"
    assert sum(1 for s in statuses.values() if s == "fail") == 1


def _toml():
    if sys.version_info >= (3, 11):
        import tomllib

        return tomllib
    return pytest.importorskip("tomli")


def _run_child(command, cwd, timeout=None):
    """Run ``command`` with the same copy of the package that this process
    imported first on the child's path."""
    package_root = str(Path(restapprox.__file__).parents[1])
    paths = [package_root, os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    return subprocess.run(
        command, capture_output=True, text=True, env=env, cwd=cwd, timeout=timeout
    )


def test_console_script_entry_point(tmp_path):
    with open(ROOT / "pyproject.toml", "rb") as fh:
        scripts = _toml().load(fh)["project"]["scripts"]
    target = scripts.get("restapprox")
    assert target == "restapprox.cli:main"
    module, attr = target.split(":")
    args = ["norm", str(FIXTURES / "atom.seq"), "--out", str(tmp_path)]

    # The call that pip's generated console-script wrapper makes.
    wrapper = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    commands = [[sys.executable, "-c", wrapper, *args]]
    installed = shutil.which("restapprox")
    if installed:  # the executable itself exists only after an install
        commands.append([installed, *args])
    for command in commands:
        result = _run_child(command, tmp_path)
        assert result.returncode == 0, result.stderr
        assert "4 rows" in result.stdout, result.stderr


def test_python_dash_m_runs_the_cli(tmp_path):
    command = [sys.executable, "-m", "restapprox", "norm", str(FIXTURES / "atom.seq")]
    result = _run_child([*command, "--out", str(tmp_path)], tmp_path)
    assert result.returncode == 0, result.stderr
    assert "4 rows" in result.stdout, result.stderr


# The import gate runs in child processes: this one has imported scipy.
_REPORT_SCIPY = (
    "import sys; from restapprox.cli import main; code = main(sys.argv[1:]); "
    "print('scipy' in sys.modules); sys.exit(code)"
)


def _loads_scipy(argv: list[str], cwd: Path) -> bool:
    """Whether ``main(argv)``, run in a fresh interpreter, loads scipy."""
    result = _run_child([sys.executable, "-c", _REPORT_SCIPY, *argv], cwd)
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()[-1] == "True"


def test_import_leaves_scipy_unloaded(tmp_path):
    code = "import sys, restapprox, restapprox.cli; print('scipy' in sys.modules)"
    result = _run_child([sys.executable, "-c", code], tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "False\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["sigma", SAMPLE],
        ["approx-norm", SAMPLE],
        ["jackson"],
        ["norm", SAMPLE, "--config", "power.cfg"],
    ],
    ids=["sigma", "approx-norm", "jackson", "norm-power"],
)
def test_closed_form_commands_leave_scipy_unloaded(tmp_path, argv):
    (tmp_path / "power.cfg").write_text("eta = power:p=2\n")
    assert not _loads_scipy([*argv, "--out", str(tmp_path / "out")], tmp_path)


# Every command in one fresh interpreter, with whether scipy is loaded after
# each: the power-log norm and verify-all run the weight-integral kernel.
_EVERY_COMMAND = (
    "import json, sys; from restapprox.cli import main\n"
    "for argv in json.loads(sys.argv[1]):\n"
    "    print('gate', argv[0], main(argv), 'scipy' in sys.modules)\n"
)


def test_every_command_leaves_scipy_unloaded(tmp_path):
    (tmp_path / "powerlog.cfg").write_text("eta = powerlog:p=2,b=0.5\n")
    commands = [
        ["norm", SAMPLE, "--config", "powerlog.cfg"],
        ["sigma", SAMPLE],
        ["approx-norm", SAMPLE],
        ["democracy"],
        ["jackson"],
        ["bernstein"],
        ["lorentz-besov"],
        ["verify-all"],
    ]
    assert {argv[0] for argv in commands} == set(_COMMANDS)
    argvs = [[*argv, "--out", str(tmp_path / str(k))] for k, argv in enumerate(commands)]
    result = _run_child([sys.executable, "-c", _EVERY_COMMAND, json.dumps(argvs)], tmp_path)
    assert result.returncode == 0, result.stderr
    lines = [line for line in result.stdout.splitlines() if line.startswith("gate ")]
    assert lines == [f"gate {argv[0]} 0 False" for argv in commands]
    value = _row(_rows(tmp_path / "0"), "norm/rearranged")["value"]
    assert value == "5.530291232650642"  # as with scipy's quad
    params = LorentzParams(WeightFn.power_log(2.0, 0.5), mu=2.0, xi=0.0)
    assert float(value) == lorentz_norm(read_sequence(SAMPLE), MeasureSpec(1.0), params)


def test_norm_exits_fast_across_a_huge_scale_gap(tmp_path):
    # The volume 2^-10^7 raises the range error only after the forest is
    # built; a build that walks the gap one scale at a time takes ~30 s.
    seq = tmp_path / "gap.seq"
    seq.write_text("0 0 1.0\n10000000 0 1.0\n")
    cfg = tmp_path / "gap.cfg"
    cfg.write_text("s = -0.5\n")
    command = [sys.executable, "-m", "restapprox", "norm", str(seq), "--config", str(cfg)]
    result = _run_child([*command, "--out", str(tmp_path)], tmp_path, timeout=30)
    assert result.returncode == 2, result.stderr
    assert "error:" in result.stderr


def test_norm_across_a_900_scale_gap_folds_vanishing_steps(tmp_path):
    # At alpha = 1 the two fine cubes' masses 2^-900 leave the float total 1
    # unchanged; the rearrangement used to reject those zero-length steps.
    seq = tmp_path / "gap.seq"
    seq.write_text("0 0 1.0\n900 0 0.5\n900 1 0.25\n")
    assert main(["norm", str(seq), "--out", str(tmp_path)]) == 0
    rows = _rows(tmp_path)
    values = {row["id"]: row["value"] for row in rows}
    assert values == {
        "norm/aggregated": "1.14564392373896",
        "norm/per-scale": "1.14564392373896",
        "norm/rearranged": "1.0",
        "norm/budgeted": "1.14564392373896",
    }


@pytest.mark.parametrize(
    "line, eta",
    [
        ("-500 0 1.0", "powerlog:p=0.5,b=3"),  # the integral overflows to inf
        ("-1000 0 1.0", "powerlog:p=0.5,b=3"),  # exp raises OverflowError
        ("-1000 0 1.0", "power:p=0.5"),  # b**e raises OverflowError
    ],
)
def test_norm_past_the_float_range_is_a_typed_error(tmp_path, capsys, line, eta):
    # One cube of mass 2^500 or 2^1000 at alpha = 1: its Lorentz integral
    # exceeds the float range.  This used to print nan or a traceback.
    seq = tmp_path / "huge.seq"
    seq.write_text(line + "\n")
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(f"eta = {eta}\nmu = 1\n")
    argv = ["norm", str(seq), "--config", str(cfg), "--out", str(tmp_path)]
    assert main(argv) == 2
    assert "error: a weight integral exceeds the float range" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_norm_rejects_a_weight_spec_with_a_leftover_key(tmp_path, capsys):
    # ``b`` is not a key of the power family; it used to be dropped silently.
    seq = tmp_path / "one.seq"
    seq.write_text("0 0 1.0\n")
    cfg = tmp_path / "eta.cfg"
    cfg.write_text("eta = power:p=2,b=1\n")
    argv = ["norm", str(seq), "--config", str(cfg), "--out", str(tmp_path)]
    assert main(argv) == 2
    assert "error: bad weight spec 'power:p=2,b=1': unknown key 'b'" in (
        capsys.readouterr().err
    )
    assert not list(tmp_path.glob("*.csv"))


def test_norm_past_the_float_range_prints_only_the_error_line(tmp_path):
    # numpy's overflow in this integral must not print a warning ahead of
    # the typed error.
    seq = tmp_path / "huge.seq"
    seq.write_text("-500 0 1.0\n")
    cfg = tmp_path / "huge.cfg"
    cfg.write_text("eta = powerlog:p=0.5,b=3\nmu = 1\n")
    command = [sys.executable, "-m", "restapprox", "norm", str(seq), "--config", str(cfg)]
    result = _run_child([*command, "--out", str(tmp_path)], tmp_path)
    assert result.returncode == 2
    assert result.stderr == "error: a weight integral exceeds the float range\n"


def test_norm_whose_weight_integral_does_not_converge_exits_2(monkeypatch):
    """One cube of mass 2^990 under (1 + |log t|)^-300: the kernel bisects
    the integral over [0, 2^990] for several rounds towards t = 1, more
    than the round cap, lowered here to 3, allows."""
    monkeypatch.setattr(weights, "_GK_ROUNDS", 3)
    config = "eta = powerlog:p=2,b=-300\nmu = 1\n"
    code, err = _run_in_process("norm", "-990 0 1.0\n", config)
    assert code == 2 and len(err) == 1
    assert err[0].startswith(
        "error: weight integral did not converge (achieved relative tolerance "
    )


def test_readme_config_table_lists_every_commands_keys():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("### Config keys", 1)[1].split("\n\n|", 1)[1]
    table = {}
    for line in ("|" + section).split("\n\n", 1)[0].splitlines():
        names, keys = line.strip("|").split("|")
        if "`" not in names:
            continue  # header and rule
        for name in re.findall(r"`([^`]+)`", names):
            assert name not in table, f"{name} listed twice"
            table[name] = frozenset(keys.strip().strip("`").split())
    assert set(table) == set(_COMMANDS)
    for name, command in _COMMANDS.items():
        assert table[name] == command.keys, name


# Seconds one in-process run may take before it counts as a hang; the
# slowest corpus run takes about 0.1 s on a 2-core x86-64 host.
_RUN_SECONDS = 10


class _RunTimedOut(BaseException):
    """Raised by the alarm in a run past ``_RUN_SECONDS``; a BaseException,
    so that no ``except Exception`` in the package can swallow it."""


def _time_out(signum, frame):
    raise _RunTimedOut(f"the run took more than {_RUN_SECONDS} s")


def _run_in_process(
    command: str, text: str | None, config: str
) -> tuple[int, list[str]]:
    """``main``'s exit code and stderr lines for ``command`` under
    ``config``, reading ``text`` as its coefficient file when it takes one.
    A run still going after ``_RUN_SECONDS`` raises ``_RunTimedOut``."""
    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        (work / "run.cfg").write_text(config)
        argv = [command, "--config", str(work / "run.cfg"), "--out", str(work / "out")]
        if text is not None:
            (work / "in.seq").write_text(text)
            argv.insert(1, str(work / "in.seq"))
        err = io.StringIO()
        previous = signal.signal(signal.SIGALRM, _time_out)
        signal.alarm(_RUN_SECONDS)
        try:
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = main(argv)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
    return code, err.getvalue().splitlines()


def test_a_run_past_its_time_bound_raises(monkeypatch):
    """The corpus runs' time bound fires: a run that hangs ends in
    ``_RunTimedOut`` after ``_RUN_SECONDS`` instead of hanging the suite."""
    monkeypatch.setitem(globals(), "_RUN_SECONDS", 1)
    monkeypatch.setitem(globals(), "main", lambda argv: time.sleep(30))
    began = time.monotonic()
    with pytest.raises(_RunTimedOut):
        _run_in_process("norm", "0 0 1.0\n", "")
    assert time.monotonic() - began < 10


# Inputs whose budget aggregate or closed form leaves the float range (A: a
# profile's integral and dyadic aggregates at xi * mu = 1e-8; B: a breakpoint
# power at alpha = -16; C: the tower's geometric sum at N = 4), and a
# democracy dimension whose tower of N = 8 holds 2 396 745 cubes.
_REPRO_A = "3 3 0 5.914754410877724\n2 3 -1 -2.7285759707215473\n"
_REPRO_B = "40 -2 -0.13175628821446664\n0 1 -0.0064791366410641175\n"
_AGGREGATE_RANGE = "the budget aggregate exceeds the float range"
_PAST_THE_RANGE = [
    ("approx-norm", _REPRO_A, "s = 3\nxi = 1e-6\nmu = 0.01\n", _AGGREGATE_RANGE),
    ("norm", _REPRO_A, "approx_xi = 1e-6\napprox_mu = 0.01\n", _AGGREGATE_RANGE),
    ("approx-norm", _REPRO_B, "alpha = -16\nkind = besov\nmu = 16\n", _AGGREGATE_RANGE),
    ("democracy", None, "s1 = 64\ns2 = -64\n", "a closed form exceeds the float range"),
    ("democracy", None, "d = 3\n", "key 'd' must be in [1, 2], got 3"),
]


@pytest.mark.parametrize("command, text, config, message", _PAST_THE_RANGE)
def test_values_past_the_float_range_exit_2_with_one_error_line(
    command, text, config, message
):
    code, err = _run_in_process(command, text, config)
    assert code == 2 and len(err) == 1
    assert err[0].startswith("error: ") and err[0].endswith(message)


# The config keys' limits as the commands check them, hi None for none; the
# democracy command's alpha takes [-64, 64].
_KEY_LIMITS = {
    "s": (-64, 64), "s1": (-64, 64), "s2": (-64, 64),
    "p": (0.01, None), "p1": (0.01, None), "p2": (0.01, math.inf),
    "q": (0.01, math.inf), "q1": (0.01, math.inf), "q2": (0.01, math.inf),
    "mu": (0.01, math.inf), "approx_mu": (0.01, math.inf),
    "lorentz_mu": (0.01, math.inf), "alpha": (-16, 16), "alpha_perturb": (-8, 8),
    "xi": (1e-6, 16), "approx_xi": (1e-6, 16), "lorentz_xi": (0, 16),
    "budget": (0, None), "d": (1, 2), "draws": (1, 500), "seed": (0, 2**64 - 1),
}
_INT_KEYS = {"d", "draws", "seed"}
# Each word key's valid words first, then the count of those.
_WORD_KEYS = {
    "kind": (["tl", "besov", "lorentz"], 2),
    "solver": (["greedy", "knapsack", "brute", "exact"], 3),
    "eta": (
        [
            "power:p=2", "power:p=0.01", "power:p=64", "powerlog:p=2,b=0.5",
            "powerlog:p=0.5,b=3", "powerlog:p=2,b=-1.5", "power:p=nan",
            "power:p=-1", "powerlog:p=2", "bogus:p=1",
        ],
        6,
    ),
}


def _config_value(command: str, key: str, valid: bool) -> st.SearchStrategy[str]:
    """A value of ``key`` at or inside its limits, or (``valid`` False) past
    them: out of range, not a number, NaN or an infinity it does not take."""
    if key in _WORD_KEYS:
        words, count = _WORD_KEYS[key]
        return st.sampled_from(words[:count] if valid else words[count:])
    lo, hi = _KEY_LIMITS[key]
    if (command, key) == ("democracy", "alpha"):
        lo, hi = -64, 64
    if key in _INT_KEYS:
        if not valid:
            return st.sampled_from([lo - 1, hi + 1, "1.5"]).map(str)
        return (st.sampled_from([lo, hi]) | st.integers(lo, hi)).map(str)
    if not valid:
        past = [lo - 1e-3, "nan", "x", "-inf"]
        if hi != math.inf:
            past.append("inf")
        if hi not in (None, math.inf):
            past.append(hi + 1e-3)
        return st.sampled_from(past).map(str)
    top = 1e6 if hi is None else hi
    inside = st.floats(lo, min(top, 1e3))
    return (st.sampled_from([lo, top, 1.0, 2.0]) | inside).map(repr)


_NEAR_SCALES = st.integers(-3, 3)
_ALL_SCALES = _NEAR_SCALES | st.integers(-1003, -997) | st.integers(997, 1003)
_POSITIONS = st.integers(-4, 4) | st.integers(-(2**70), 2**70)
_VALUES = st.sampled_from(
    [1e300, -1e300, 5e-324, -2.2e-308, 0.0, 3.0, -3.0]
) | st.floats(-10.0, 10.0)


@st.composite
def _hostile_runs(draw):
    """A command other than ``verify-all``; for one taking a file, 0-12 lines
    at d = 1-3, at scales near 0 (and, for one file in four, near +-1 000 as
    well), positions of up to 70 bits, and values subnormal, near the float
    limit, tied, zero or plain; and a config of up to six keys, at most one
    of them past its limits."""
    command = draw(st.sampled_from(sorted(set(_COMMANDS) - {"verify-all"})))
    text = None
    if _COMMANDS[command].takes_input:
        d = draw(st.integers(1, 3))
        scales = draw(st.sampled_from([_NEAR_SCALES] * 3 + [_ALL_SCALES]))
        text = ""
        for _ in range(draw(st.integers(0, 12))):
            tokens = [draw(scales), *(draw(_POSITIONS) for _ in range(d))]
            text += " ".join(map(str, tokens)) + f" {draw(_VALUES)!r}\n"
    allowed = sorted(_COMMANDS[command].keys | {"seed"})
    keys = draw(st.lists(st.sampled_from(allowed), unique=True, max_size=6))
    bad = draw(st.sampled_from([None] * 4 + keys))
    config = "".join(
        f"{key} = {draw(_config_value(command, key, key != bad))}\n" for key in keys
    )
    return command, text, config


@settings(max_examples=300)
@given(_hostile_runs())
@example(_PAST_THE_RANGE[0][:3])
@example(_PAST_THE_RANGE[1][:3])
@example(_PAST_THE_RANGE[2][:3])
@example(_PAST_THE_RANGE[3][:3])
@example(_PAST_THE_RANGE[4][:3])
def test_hostile_inputs_exit_0_1_or_2_with_one_error_line(run):
    """Every command but ``verify-all`` exits 0 or 1 on hostile but valid
    inputs, or 2 with exactly one ``error:`` line; no exception escapes."""
    code, err = _run_in_process(*run)
    assert code in (0, 1, 2)
    if code == 2:
        assert len(err) == 1 and err[0].startswith("error: "), err
