"""Command-line interface: config parsing, commands, reports, exit codes."""

from __future__ import annotations

import csv
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import restapprox
from restapprox import (
    ApproxParams,
    ConfigError,
    Cube,
    LorentzParams,
    MeasureSpec,
    SpaceParams,
    WeightFn,
    approx_norm,
    lorentz_norm,
    space_norm,
)
from restapprox.cli import _COMMANDS, load_config, main, read_sequence

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
    # quad reports roundoff on this integral; its warning must not reach
    # stderr ahead of the typed error.
    seq = tmp_path / "huge.seq"
    seq.write_text("-500 0 1.0\n")
    cfg = tmp_path / "huge.cfg"
    cfg.write_text("eta = powerlog:p=0.5,b=3\nmu = 1\n")
    command = [sys.executable, "-m", "restapprox", "norm", str(seq), "--config", str(cfg)]
    result = _run_child([*command, "--out", str(tmp_path)], tmp_path)
    assert result.returncode == 2
    assert result.stderr == "error: a weight integral exceeds the float range\n"


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
