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
_DYADIC = "tests/test_dyadic.py::"
_SPACES = "tests/test_spaces.py::"
_DEMOCRACY = "tests/test_democracy.py::"
_CLI = "tests/test_cli.py::"
_ACCEPTANCE = "tests/test_acceptance.py::test_acceptance["
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
    Mutant(
        "tail-bound-without-beta",
        "weights.py",
        "    beta = max(bm, 0.0)\n",
        "    beta = 0.0\n",
        (_WEIGHTS + "test_the_tail_past_the_cut_is_below_its_share",),
    ),
    Mutant(
        "resasc-clause-in-every-round",
        "weights.py",
        "        if rounds == 0:\n            ok &= abserr < resasc\n",
        "        ok &= abserr < resasc\n",
        (_WEIGHTS + "test_a_flat_narrow_step_ends_in_few_rounds",),
    ),
    Mutant(
        "no-rounding-margin",
        "weights.py",
        "raw = np.abs((resk - resg) * hlgth[block]) + _ROUNDING_MARGIN * resabs",
        "raw = np.abs((resk - resg) * hlgth[block])",
        (_WEIGHTS + "test_rejected_steps_are_the_scalar_results",),
    ),
    Mutant(
        "cut-a-growing-tail",
        "weights.py",
        "        if not (rates[infinite] < 0.0).all():  # no cut bounds a growing tail\n",
        "        if False:\n",
        (_WEIGHTS + "test_a_step_to_an_infinite_mass_is_past_the_float_range",),
    ),
    Mutant(
        "no-round-cap",
        "weights.py",
        "for rounds in range(_GK_ROUNDS):",
        "for rounds in range(1 << 62):",
        (_WEIGHTS + "test_the_round_cap_raises_quadrature_error",
         "tests/test_cli.py::test_norm_whose_weight_integral_does_not_converge_exits_2"),
    ),
    Mutant(
        "no-interval-cap",
        "weights.py",
        "        if 2 * np.bincount(owners[pending]).max() > _GK_PIECES:\n            break\n",
        "",
        (_WEIGHTS + "test_the_interval_cap_raises_quadrature_error",),
    ),
    Mutant(
        "interval-cap-over-the-call",
        "weights.py",
        "if 2 * np.bincount(owners[pending]).max() > _GK_PIECES:",
        "if 2 * len(pending) > len(totals) + 64 * _GK_BLOCK:",
        (_WEIGHTS + "test_many_narrow_steps_converge_as_each_does_alone",),
    ),
    Mutant(
        "cap-returns-a-partial-sum",
        "weights.py",
        '    raise QuadratureError("weight integral did not converge", achieved=achieved)',
        "    return totals",
        (_WEIGHTS + "test_the_round_cap_raises_quadrature_error",),
    ),
    Mutant(
        "no-outer-region-term",
        "spaces.py",
        "            if outer != 0.0:\n                terms.append(-outer * size)\n",
        "",
        (_DYADIC + "test_region_integral_by_hand",
         _SPACES + "test_tl_norm_matches_grid_oracle"),
    ),
    Mutant(
        "chain-ignores-parent",
        "spaces.py",
        "chains[i] = chains[p] + value",
        "chains[i] = 0.0 + value",
        (_DYADIC + "test_forest_chain_values_and_maxima",
         _SPACES + "test_tl_norm_matches_grid_oracle"),
    ),
    Mutant(
        "q-inf-summed",
        "spaces.py",
        "    if math.isinf(params.q):\n        chains = [-math.inf]",
        "    if False:\n        chains = [-math.inf]",
        (_DYADIC + "test_forest_chain_values_and_maxima",
         _SPACES + "test_tl_norm_matches_grid_oracle"),
    ),
    Mutant(
        "no-nan-volume-check",
        "spaces.py",
        "            if size != size:\n                VOLUMES(q)  # raises pow2's error\n",
        "",
        (_DYADIC + "test_region_integral_reads_a_volume_only_where_a_term_uses_it",),
    ),
    Mutant(
        "no-scale-factor-raise",
        "spaces.py",
        "params.coeff_powers(forest.cubes[scale.index(math.nan)])",
        "pass",
        (_SPACES + "test_tl_norm_raises_for_a_scale_factor_past_the_float_range",),
    ),
    Mutant(
        "scale-factor-raise-in-input-order",
        "spaces.py",
        "params.coeff_powers(forest.cubes[scale.index(math.nan)])",
        "params.coeff_powers(next(iter(s)))",
        (_SPACES + "test_tl_norm_raises_for_a_scale_factor_past_the_float_range",),
    ),
    Mutant(
        "no-constant-pass-through",
        "spaces.py",
        "                    seen_constant[y] = seen_constant[p]\n",
        "",
        ("tests/test_approx.py::test_suffix_norms_equal_norms_of_suffixes_in_any_order",),
    ),
    Mutant(
        "step-aggregate-keeps-a-zero-tail",
        "weights.py",
        "    while n and not values[n - 1] > 0:\n        n -= 1\n",
        "",
        ("tests/test_approx.py::test_a_zero_error_tail_ends_both_aggregates",),
    ),
    Mutant(
        "step-aggregate-branches-swapped",
        "weights.py",
        "    if math.isinf(mu):\n        return max(map(operator.mul,",
        "    if not math.isinf(mu):\n        return max(map(operator.mul,",
        ("tests/test_approx.py::test_profile_norm_matches_a_decimal_reference",
         _LORENTZ + "test_lorentz_norm_across_scale_gaps_matches_exact_oracle"),
    ),
    Mutant(
        "profile-norm-keeps-the-integral-error",
        "approx.py",
        "            raise ScaleRangeError(_AGGREGATE_RANGE) from None\n",
        "            raise\n",
        ("tests/test_approx.py::test_budget_aggregates_past_the_float_range_are_typed_errors",),
    ),
    Mutant(
        "columns-keep-zero-length-steps",
        "lorentz.py",
        "kept = np.diff(ends, prepend=0.0) > 0.0",
        "kept = np.diff(ends, prepend=0.0) >= 0.0",
        (_LORENTZ + "test_rearrange_takes_the_columns_at_every_alpha",),
    ),
    Mutant(
        "int64-keys-pass-62-bits",
        "dyadic.py",
        "        if bits + tie > 62:\n",
        "        if bits + tie > 63:\n",
        (_DYADIC + "test_int64_keys_decline_to_the_python_keys",
         _DYADIC + "test_int64_keys_equal_the_python_keys"),
    ),
    Mutant(
        "parent-search-left-side",
        "dyadic.py",
        'np.searchsorted(rows, rows - n - 1, "right")',
        'np.searchsorted(rows, rows - n - 1, "left")',
        (_DYADIC + "test_array_parents_by_hand",
         _DYADIC + "test_array_forest_and_norms_equal_the_list_kernels",
         _DYADIC + "test_int64_keys_equal_the_python_keys"),
    ),
    Mutant(
        "depth-levels-drop-the-deepest",
        "dyadic.py",
        "np.arange(int(depth[by_depth[-1]]) + 2) * n",
        "np.arange(int(depth[by_depth[-1]]) + 1) * n",
        (_DYADIC + "test_array_forest_and_norms_equal_the_list_kernels",
         _SPACES + "test_large_tl_norm_takes_one_numpy_step_per_depth_level"),
    ),
    Mutant(
        "level-chain-ignores-parent",
        "spaces.py",
        "combine(chains[parent[level]], inputs[level])",
        "combine(chains[-1], inputs[level])",
        (_DYADIC + "test_array_forest_and_norms_equal_the_list_kernels",
         _DYADIC + "test_region_integrals_by_hand_on_depth_levels",
         _DEMOCRACY + "test_admissible_spread_matches_the_per_family_loop"),
    ),
    Mutant(
        "level-terms-unmasked",
        "spaces.py",
        "axis=1)[nonzero]",
        "axis=1).ravel()",
        (_DYADIC + "test_region_integrals_by_hand_on_depth_levels",),
    ),
    Mutant(
        "batch-keeps-terms-past-the-limit",
        "spaces.py",
        "    if (np.abs(terms) > _TERM_LIMIT).any():\n",
        "    if False:\n",
        (_DYADIC + "test_region_integrals_by_hand_on_depth_levels",),
    ),
    Mutant(
        "batch-first-exponent-for-all",
        "spaces.py",
        "exponents[0] if len(set(exponents)) == 1 else np.repeat(exponents, counts)",
        "exponents[0]",
        (_SPACES + "test_space_norms_score_a_mixed_batch_in_two_forests",),
    ),
    Mutant(
        "scale-sizes-in-sorted-order",
        "spaces.py",
        "for j in dict.fromkeys(scales)}",
        "for j in sorted(dict.fromkeys(scales))}",
        (_SPACES + "test_the_first_scale_of_s_past_the_float_range_raises",),
    ),
    Mutant(
        "scale-sizes-ignore-dimension",
        "spaces.py",
        "powers[j * d]",
        "powers[j]",
        (_ACCEPTANCE + "criterion_1]", _ACCEPTANCE + "criterion_4]"),
    ),
    Mutant(
        "columns-divide-as-floats",
        "lorentz.py",
        "(totals[last] / (1 << shift)).astype(np.float64)",
        "totals[last].astype(np.float64) / (1 << shift)",
        (_LORENTZ + "test_rearrange_takes_the_columns_at_every_alpha",),
    ),
    Mutant(
        "columns-scales-in-sorted-order",
        "lorentz.py",
        "scales = dict.fromkeys(map(_J, s))",
        "scales = dict.fromkeys(sorted(map(_J, s)))",
        (_SPACES + "test_the_first_scale_of_s_past_the_float_range_raises",),
    ),
    Mutant(
        "exact-sum-drops-the-shift",
        "dyadic.py",
        "self._num += num << (self._shift - shift)",
        "self._num += num",
        (_DYADIC + "test_exact_sum_rounds_every_prefix_as_fsum",),
    ),
    Mutant(
        "read-sequence-keeps-duplicates",
        "cli.py",
        "if len(seq) == len(values):",
        "if True:",
        (_CLI + "test_read_sequence_errors",),
    ),
    Mutant(
        "families-share-one-box",
        "spaces.py",
        "    moved[:, 0] += np.repeat(np.cumsum(width) - width - lo, np.diff(bounds)) << rel\n",
        "",
        (_SPACES + "test_space_norms_score_a_mixed_batch_in_two_forests",
         _DEMOCRACY + "test_admissible_spread_matches_the_per_family_loop"),
    ),
    Mutant(
        "family-sums-one-off",
        "spaces.py",
        "zip([0, *ends], ends, ps)",
        "zip([0, 0, *ends], ends, ps)",
        (_SPACES + "test_space_norms_score_a_mixed_batch_in_two_forests",
         _DEMOCRACY + "test_admissible_spread_matches_the_per_family_loop"),
    ),
    Mutant(
        "family-terms-in-preorder",
        "spaces.py",
        "terms[np.argsort(owner, kind=\"stable\")]",
        "terms",
        (_SPACES + "test_space_norms_group_terms_by_family_not_by_preorder_run",
         _DEMOCRACY + "test_family_ratios_score_families_whose_preorders_interleave"),
    ),
    Mutant(
        "pow2-passes-nan",
        "dyadic.py",
        "if not abs(exponent) <= _MAX_EXP:",
        "if abs(exponent) > _MAX_EXP:",
        (_DYADIC + "test_pow2_out_of_range",),
    ),
    Mutant(
        "measure-takes-non-finite-alpha",
        "dyadic.py",
        "        if not math.isfinite(self.alpha):\n",
        "        if False:\n",
        (_DYADIC + "test_measure_spec",
         _DEMOCRACY + "test_case_validation"),
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
