"""The full verification suite: ten self-contained property checks.

Each criterion function draws its own deterministic instances from a seed,
checks one contract of the package against independently derived closed forms
or structural invariants, and returns a result with a stable anchor string
identifying the property.  ``run_all`` executes every criterion and is the
engine behind both the command-line ``verify-all`` subcommand and the
acceptance test module.

``alpha_perturb`` shifts the measure exponent used by the democracy suites
away from the matching value; any nonzero shift is designed to make those
suites fail, which doubles as a self-test of the harness.

The command-line ``lorentz-besov``, ``jackson`` and ``bernstein`` subcommands
draw their instances from this module too (``lorentz_besov_draws`` and
``comparison_suites``, under their own RNG salts), and the ``approx-norm``,
``democracy``, ``jackson`` and ``bernstein`` reports make their checks through
``sandwich``, ``closed_form_checks`` and ``drift``, so each check has one
implementation, window, tolerance and bound.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .approx import (
    ApproxParams,
    SigmaProfile,
    approx_norm,
    bernstein_constant,
    decompose,
    jackson_constant,
    sigma_exact,
    sigma_profile,
)
from .democracy import (
    DemocracyCase,
    GammaFamily,
    admissible_spread,
    democracy_value,
    divergence_exponent,
    random_cube_set,
)
from .dyadic import Cube, MeasureSpec, nu_measure, pow2
from .lorentz import CoeffSeq, LorentzParams, lorentz_norm
from .report import ReportRow
from .spaces import IDENTITY_TOL, SpaceParams, lorentz_equals_besov_check
from .spaces import matched_exponents, space_norm
from .weights import WeightFn, _smoothed_weights, boyd_lower_index, geometric_sum_bound

__all__ = [
    "DEFAULT_SEED",
    "CriterionResult",
    "run_all",
    "results_to_rows",
] + [f"criterion_{k}" for k in range(1, 11)]

DEFAULT_SEED = 17

# Relative tolerance of the democracy closed-form checks, as printed.
CLOSED_FORM_TOL = "1e-9"
# Jackson and Bernstein constants must stay within this factor across sizes.
DRIFT_BOUND = 4.0
# Relative rounding slack on both ends of the sandwich window [2^-xi, 2^xi].
_SANDWICH_SLACK = 1e-9
_ATOM_TOL = 1e-10  # relative, of criterion 6's single-atom closed form

# Recorded equivalence bounds for the decomposition score against the
# budget-weighted norm (criterion 8), fixed for xi = 0.5, mu = 1.  Frozen from
# an oracle run over the same generator (observed exact [0.540, 1.713] and
# greedy [0.273, 1.803]) with a factor-two margin on both ends.
SCORE_RATIO_BOUNDS_EXACT = (0.25, 3.5)
SCORE_RATIO_BOUNDS_GREEDY = (0.12, 4.0)


@dataclass(frozen=True)
class CriterionResult:
    cid: int
    title: str
    passed: bool
    details: str
    anchor: str
    wall_time_s: float = 0.0

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"{tag} criterion {self.cid}: {self.title} — {self.details}"


def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([seed, salt])


def _rel_err(got: float, expected: float) -> float:
    return abs(got - expected) / max(abs(expected), 1e-300)


def _signed_values(rng: np.random.Generator, n: int, decades: float) -> list[float]:
    signs = 1 - 2 * rng.integers(0, 2, size=n)
    exponents = rng.uniform(-decades, decades, size=n)
    return [float(s) * 10.0 ** float(e) for s, e in zip(signs, exponents)]


def _draw_seq(
    rng: np.random.Generator,
    count: int,
    d: int,
    j_lo: int,
    j_hi: int,
    decades: float,
) -> CoeffSeq:
    cubes = random_cube_set(rng, count, d, j_lo, j_hi)
    return CoeffSeq(dict(zip(cubes, _signed_values(rng, count, decades))))


def comparison_suites(seed: int, salt: int) -> list[tuple[int, list[CoeffSeq]]]:
    """Suites of five random 1-d sequences of 16, 32 and 64 cubes each."""
    rng = _rng(seed, salt)
    return [
        (size, [_draw_seq(rng, size, 1, -4, 8, 1.0) for _ in range(5)])
        for size in (16, 32, 64)
    ]


class Sandwich(NamedTuple):
    """The integral and dyadic budget aggregates of one profile, their ratio,
    the window [lo, hi] around [2^-xi, 2^xi], and whether the ratio is in it.
    The window is guaranteed only when mu is infinite or xi*mu >= 1."""

    integral: float
    dyadic: float
    ratio: float
    lo: float
    hi: float
    ok: bool
    guaranteed: bool


def sandwich(profile: SigmaProfile, xi: float, mu: float) -> Sandwich:
    """The integral / dyadic aggregate sandwich of ``profile`` at (xi, mu)."""
    integral = profile.norm(xi, mu)
    dyadic = profile.norm_dyadic(xi, mu)
    ratio = integral / dyadic if dyadic > 0 else math.nan
    lo = pow2(-xi) * (1 - _SANDWICH_SLACK)
    hi = pow2(xi) * (1 + _SANDWICH_SLACK)
    ok = dyadic > 0 and lo <= ratio <= hi
    guaranteed = math.isinf(mu) or xi * mu >= 1.0
    return Sandwich(integral, dyadic, ratio, lo, hi, ok, guaranteed)


def closed_form_checks(
    fam: GammaFamily, case: DemocracyCase, mass_alpha: float | None = None
) -> Iterator[tuple[str, float, float, bool]]:
    """``(metric, got, want, ok)`` for the family's democracy value and, when
    ``mass_alpha`` is given, its mass under ``case.measure`` against the
    closed form at exponent ``mass_alpha``; ok when the relative error is at
    most ``CLOSED_FORM_TOL``."""
    cubes = fam.generate()
    checks = [("value", democracy_value(cubes, case), fam.closed_form_value(case))]
    if mass_alpha is not None:
        mass = nu_measure(cubes, case.measure)
        checks.append(("mass", mass, fam.closed_form_mass(mass_alpha)))
    for metric, got, want in checks:
        yield metric, got, want, _rel_err(got, want) <= float(CLOSED_FORM_TOL)


def drift(constants: list[float]) -> tuple[float, bool]:
    """max/min of comparison constants across suite sizes, and whether it is
    finite and below ``DRIFT_BOUND``."""
    value = max(constants) / min(constants)
    return value, math.isfinite(value) and value < DRIFT_BOUND


def _shrunk(rng: np.random.Generator, seq: CoeffSeq) -> CoeffSeq:
    """Entrywise |result| <= |seq|: each entry scaled into [0, 1], some zeroed."""
    entries = {}
    for cube, value in seq.items():
        factor = 0.0 if rng.random() < 0.1 else float(rng.uniform(0.0, 1.0))
        entries[cube] = value * factor
    return CoeffSeq(entries)


# --------------------------------------------------------------------------
# criterion 1: unit-atom norms
# --------------------------------------------------------------------------


def criterion_1(seed: int = DEFAULT_SEED) -> CriterionResult:
    rng = _rng(seed, 1)
    worst = 0.0
    for i in range(200):
        d = int(rng.integers(1, 4))
        kind = "tl" if i % 2 == 0 else "besov"
        s = float(rng.uniform(-3, 3))
        if kind == "besov" and rng.random() < 0.15:
            p = math.inf
        else:
            p = float(rng.uniform(0.4, 8.0))
        q = math.inf if rng.random() < 0.15 else float(rng.uniform(0.4, 8.0))
        params = SpaceParams(s, p, q, d, kind)
        j = int(rng.integers(-20, 21))
        k = tuple(int(v) for v in rng.integers(-(1 << 10), 1 << 10, size=d))
        cube = Cube(j, k)
        expected = cube.volume_power(params.atom_exponent)
        got = space_norm(CoeffSeq.unit(cube), params)
        worst = max(worst, _rel_err(got, expected))
    return CriterionResult(
        1,
        "unit-atom norms match the closed form",
        worst <= 1e-12,
        f"200 draws, worst relative error {worst:.3e} (tolerance 1e-12)",
        "atoms:closed-form",
    )


# --------------------------------------------------------------------------
# criterion 2: democracy closed forms
# --------------------------------------------------------------------------


def criterion_2(seed: int = DEFAULT_SEED, alpha_perturb: float = 0.0) -> CriterionResult:
    del seed  # fully deterministic: fixed parameter sets and family sizes
    worst = 0.0
    failures = 0
    base_params = [
        dict(s1=0.3, p1=1.5, q1=2.2, s2=0.8, p2=2.5, q2=3.0),
        dict(s1=-0.4, p1=2.0, q1=2.0, s2=0.2, p2=1.3, q2=1.8),
    ]
    for d in (1, 2):
        for bp in base_params:
            f1 = SpaceParams(bp["s1"], bp["p1"], bp["q1"], d, "tl")
            f2 = SpaceParams(bp["s2"], bp["p2"], bp["q2"], d, "tl")
            alpha0 = DemocracyCase(f1, f2, 1.0).formula_alpha
            case = DemocracyCase(f1, f2, alpha0 + alpha_perturb)
            for n in (1, 2, 4, 8):
                for L in (1, 2, 4):
                    fam = GammaFamily("grid", n, L=L, d=d)
                    for _, got, want, ok in closed_form_checks(fam, case, alpha0):
                        worst = max(worst, _rel_err(got, want))
                        failures += 0 if ok else 1
    for d in (1, 2):
        for p1, q1 in ((1.7, 1.7), (1.2, 2.8)):
            s1, p2 = 0.25, 2.0
            f1 = SpaceParams(s1, p1, q1, d, "tl")
            f2 = SpaceParams(s1 + d / p2, p2, 2.0, d, "tl")
            case = DemocracyCase(f1, f2, 1.0 + alpha_perturb)
            for n in (1, 2, 4, 8):
                for tag in ("tower", "row"):
                    fam = GammaFamily(tag, n, d=d)
                    for _, got, want, ok in closed_form_checks(fam, case):
                        worst = max(worst, _rel_err(got, want))
                        failures += 0 if ok else 1
    return CriterionResult(
        2,
        "democracy values and masses match the family closed forms",
        failures == 0,
        f"grids, towers, rows; worst relative error {worst:.3e} "
        f"(tolerance {CLOSED_FORM_TOL})",
        "democracy:closed-form",
    )


# --------------------------------------------------------------------------
# criterion 3: admissibility dichotomy
# --------------------------------------------------------------------------


def criterion_3(seed: int = DEFAULT_SEED, alpha_perturb: float = 0.0) -> CriterionResult:
    rng = _rng(seed, 3)
    growths = []
    accepted = 0
    while accepted < 20:
        d = 2 if accepted % 3 == 2 else 1
        f1 = SpaceParams(
            float(rng.uniform(-1, 1)),
            float(rng.uniform(1, 3)),
            float(rng.uniform(1, 3)),
            d,
            "tl",
        )
        f2 = SpaceParams(
            float(rng.uniform(-1, 1)),
            float(rng.uniform(1, 3)),
            float(rng.uniform(1, 3)),
            d,
            "tl",
        )
        alpha = DemocracyCase(f1, f2, 1.0).formula_alpha + alpha_perturb
        if abs(alpha - 1.0) < 0.2 or abs(alpha) > 5.0:
            continue
        case = DemocracyCase(f1, f2, alpha)
        lo30, hi30 = admissible_spread(case, rng, 100, 30, j_min=-2, j_max=5)
        lo60, hi60 = admissible_spread(case, rng, 100, 60, j_min=-2, j_max=5)
        growths.append((hi60 / lo60) / (hi30 / lo30))
        accepted += 1
    worst_growth = max(growths)
    fit_errs = []
    for p1, q1 in ((1.0, 2.0), (1.5, 3.0), (2.0, 4.0)):
        f1 = SpaceParams(0.3, p1, q1, 1, "tl")
        f2 = SpaceParams(0.8, 2.0, 2.0, 1, "tl")  # per-cube exponent 0
        case = DemocracyCase(f1, f2, 1.0)
        slope, _ = divergence_exponent(case, [8, 16, 32, 64, 128, 256, 512, 1024])
        fit_errs.append(abs(slope - abs(1.0 / q1 - 1.0 / p1)))
    worst_fit = max(fit_errs)
    passed = worst_growth < 1.5 and worst_fit <= 0.05
    return CriterionResult(
        3,
        "ratio spread stays bounded iff the measure exponent matches",
        passed,
        f"20 matched draws: worst spread growth x{worst_growth:.3f} (< 1.5); "
        f"3 mismatched fits: worst exponent error {worst_fit:.4f} (<= 0.05)",
        "democracy:dichotomy",
    )


# --------------------------------------------------------------------------
# criterion 4: weighted Lorentz / per-scale norm identity
# --------------------------------------------------------------------------


_TAUS = (0.5, 1.0, 1.7, 3.0)


def lorentz_besov_draws(
    seed: int, salt: int, draws: int
) -> Iterator[tuple[float, int, float, float, float, bool]]:
    """Random instances of the Lorentz / per-scale norm identity, checked.

    Draw ``i`` takes tau from ``_TAUS`` in turn and d = 1, 2 alternately; the
    exponents are redrawn until the matched measure exponent alpha and
    smoothness gamma stay moderate.  Yields ``(tau, d, alpha, gamma, gap, ok)``
    per draw, with ``gap`` the relative gap of the two sides.
    """
    rng = _rng(seed, salt)
    for i in range(draws):
        tau = _TAUS[i % 4]
        d = 1 if i % 2 == 0 else 2
        while True:
            s1 = float(rng.uniform(-1, 1))
            p1 = float(rng.uniform(1, 3))
            s2 = float(rng.uniform(-1, 1))
            p2 = float(rng.uniform(1, 3))
            f2 = SpaceParams(s2, p2, p2, d, "tl")
            alpha, gamma = matched_exponents(s1, p1, f2, tau)
            if abs(alpha) <= 6.0 and abs(gamma) <= 5.0:
                break
        seq = _draw_seq(rng, int(rng.integers(3, 18)), d, -4, 4, 1.0)
        lhs, rhs, ok = lorentz_equals_besov_check(seq, s1, p1, f2, tau)
        yield tau, d, alpha, gamma, abs(lhs - rhs) / max(lhs, rhs, 1.0), ok


def criterion_4(seed: int = DEFAULT_SEED) -> CriterionResult:
    worst = 0.0
    failures = 0
    for _, _, _, _, gap, ok in lorentz_besov_draws(seed, 4, 50):
        worst = max(worst, gap)
        failures += 0 if ok else 1
    return CriterionResult(
        4,
        "weighted rearrangement norm equals the per-scale norm",
        failures == 0,
        f"50 draws over tau in {_TAUS}, worst relative gap {worst:.3e} "
        f"(tolerance {IDENTITY_TOL:g})",
        "lorentz-besov:identity",
    )


# --------------------------------------------------------------------------
# criterion 5: knapsack solver against the exact Pareto-frontier search
# --------------------------------------------------------------------------


def criterion_5(seed: int = DEFAULT_SEED) -> CriterionResult:
    rng = _rng(seed, 5)
    failures = 0
    uncertified = 0
    support_mismatches = 0
    for _ in range(50):
        cubes = random_cube_set(rng, 14, 1, -2, 2)
        values = _signed_values(rng, 14, 0.5)
        seq = CoeffSeq(dict(zip(cubes, values)))
        space = SpaceParams(
            float(rng.uniform(-1, 1)), p := float(rng.uniform(0.5, 2.0)), p, 1, "tl"
        )
        params = ApproxParams(
            xi=0.5,
            mu=1.0,
            space=space,
            measure=MeasureSpec(float(rng.uniform(-1, 1))),
        )
        total = nu_measure(cubes, params.measure)
        budget = float(rng.uniform(0.0, 1.1)) * total
        brute = sigma_exact(seq, budget, params, mode="brute")
        knap = sigma_exact(seq, budget, params, mode="knapsack")
        if not knap.certified:
            uncertified += 1
        if brute.support != knap.support:
            support_mismatches += 1
            if abs(brute.error - knap.error) > 1e-12 * max(1.0, brute.error):
                failures += 1
    passed = failures == 0 and uncertified == 0
    return CriterionResult(
        5,
        "branch-and-bound equals the Pareto-frontier search on 14-cube instances",
        passed,
        f"50 instances, {support_mismatches} support ties resolved differently, "
        f"{failures} error disagreements beyond 1e-12, {uncertified} uncertified",
        "sigma:knapsack-vs-brute",
    )


# --------------------------------------------------------------------------
# criterion 6: budget-weighted norm consistency
# --------------------------------------------------------------------------


def criterion_6(seed: int = DEFAULT_SEED) -> CriterionResult:
    rng = _rng(seed, 6)
    sandwich_failures = 0
    for i in range(100):
        n = int(rng.integers(1, 21))
        seq = _draw_seq(rng, n, 1, -5, 5, 1.0)
        s = float(rng.uniform(-1, 1))
        p = float(rng.uniform(0.5, 3.0))
        q = p if rng.random() < 0.8 else float(rng.uniform(0.5, 3.0))
        space = SpaceParams(s, p, q, 1, "tl")
        if i % 5 == 4:
            mu, xi = math.inf, float(rng.uniform(0.2, 1.5))
        else:
            x = float(rng.uniform(1.0, 6.0))
            mu = float(rng.uniform(0.5, 4.0))
            xi = x / mu
        params = ApproxParams(xi, mu, space, MeasureSpec(float(rng.uniform(-1, 1))))
        if not sandwich(sigma_profile(seq, params, "greedy"), xi, mu).ok:
            sandwich_failures += 1
    worst_atom = 0.0
    for i in range(30):
        j = int(rng.integers(-10, 11))
        cube = Cube(j, (int(rng.integers(-8, 9)),))
        c = _signed_values(rng, 1, 2.0)[0]
        kind = "tl" if i % 2 == 0 else "besov"
        space = SpaceParams(
            float(rng.uniform(-2, 2)),
            float(rng.uniform(0.5, 4.0)),
            float(rng.uniform(0.5, 4.0)),
            1,
            kind,
        )
        alpha = float(rng.uniform(-1.5, 1.5))
        xi = float(rng.uniform(0.2, 2.0))
        mu = math.inf if i % 6 == 5 else float(rng.uniform(0.5, 3.0))
        params = ApproxParams(xi, mu, space, MeasureSpec(alpha))
        atom_norm = abs(c) * pow2(-j * space.atom_exponent)
        mass = pow2(-j * alpha)
        factor = 1.0 if math.isinf(mu) else (xi * mu) ** (-1.0 / mu)
        expected = atom_norm * mass**xi * factor
        got = approx_norm(CoeffSeq.unit(cube, c), params, "greedy")
        worst_atom = max(worst_atom, _rel_err(got, expected))
    passed = sandwich_failures == 0 and worst_atom <= _ATOM_TOL
    return CriterionResult(
        6,
        "integral and dyadic budget aggregates sandwich; atom closed form",
        passed,
        f"100 profiles within [2^-xi, 2^xi] ({sandwich_failures} failures); "
        f"30 atoms, worst relative error {worst_atom:.3e} (tolerance {_ATOM_TOL:g})",
        "approx:integral-dyadic-sandwich",
    )


# --------------------------------------------------------------------------
# criterion 7: comparison constants, matched and mismatched
# --------------------------------------------------------------------------


def _padded_tower(n: int) -> CoeffSeq:
    cubes = list(GammaFamily("tower", n, d=1).generate()) + [Cube(0, (3,))]
    return CoeffSeq({q: 1.0 for q in cubes})


def criterion_7(seed: int = DEFAULT_SEED) -> CriterionResult:
    space = SpaceParams(0.0, 2.0, 2.0, 1, "tl")
    lorentz_params = LorentzParams(eta=WeightFn.power(2.0), mu=1.0, xi=0.5)
    matched = ApproxParams(0.5, math.inf, space, MeasureSpec(0.0))
    jacks, berns = [], []
    for _, suite in comparison_suites(seed, 7):
        jacks.append(jackson_constant(suite, matched, lorentz_params))
        berns.append(bernstein_constant(suite, matched, lorentz_params))
    finite = all(math.isfinite(v) and v > 0 for v in jacks + berns)
    drift_j, flat_j = drift(jacks)
    drift_b, flat_b = drift(berns)
    j_ctrl = [
        jackson_constant(
            [_padded_tower(n)],
            ApproxParams(0.5, math.inf, space, MeasureSpec(1.0)),
            lorentz_params,
        )
        for n in (4, 5, 6)
    ]
    b_ctrl = [
        bernstein_constant(
            [_padded_tower(n)],
            ApproxParams(0.5, math.inf, space, MeasureSpec(-1.0)),
            lorentz_params,
        )
        for n in (4, 5, 6)
    ]
    controls_grow = (
        j_ctrl[0] < j_ctrl[1] < j_ctrl[2] and b_ctrl[0] < b_ctrl[1] < b_ctrl[2]
    )
    passed = finite and flat_j and flat_b and controls_grow
    return CriterionResult(
        7,
        "comparison constants stay flat when matched and grow when not",
        passed,
        f"sizes 16/32/64: drift x{drift_j:.2f} and x{drift_b:.2f} "
        f"(< {DRIFT_BOUND:g}); "
        f"mismatched controls {['%.2f' % v for v in j_ctrl]} and "
        f"{['%.2f' % v for v in b_ctrl]} strictly increasing: {controls_grow}",
        "constants:drift",
    )


# --------------------------------------------------------------------------
# criterion 8: decomposition into dyadic-budget pieces
# --------------------------------------------------------------------------


def criterion_8(seed: int = DEFAULT_SEED) -> CriterionResult:
    rng = _rng(seed, 8)
    recon_failures = 0
    budget_failures = 0
    ratios_exact: list[float] = []
    ratios_greedy: list[float] = []
    for i in range(100):
        exact = i < 50
        if exact:
            n = int(rng.integers(2, 13))
            p = float(rng.uniform(0.7, 2.5))
            q = p
            seq = _draw_seq(rng, n, 1, -3, 3, 1.0)
            solver = "knapsack"
        else:
            n = int(rng.integers(5, 41))
            p = float(rng.uniform(0.5, 3.0))
            roll = rng.random()
            q = p if roll < 0.5 else (math.inf if roll < 0.6 else float(rng.uniform(0.5, 3.0)))
            seq = _draw_seq(rng, n, 1, -4, 6, 1.0)
            solver = "greedy"
        space = SpaceParams(float(rng.uniform(-1, 1)), p, q, 1, "tl")
        params = ApproxParams(
            0.5, 1.0, space, MeasureSpec(float(rng.uniform(-1, 1)))
        )
        result = decompose(seq, params, solver)
        acc = CoeffSeq({})
        for _, piece in result.pieces:
            acc = acc.plus(piece)
        if acc != seq:
            recon_failures += 1
        for k, piece in result.pieces:
            mass = nu_measure(piece.support, params.measure)
            if mass > pow2(k) * (1 + 1e-12):
                budget_failures += 1
        denom = approx_norm(seq, params, solver)
        (ratios_exact if exact else ratios_greedy).append(result.score / denom)
    lo_e, hi_e = SCORE_RATIO_BOUNDS_EXACT
    lo_g, hi_g = SCORE_RATIO_BOUNDS_GREEDY
    bounds_ok = all(lo_e <= r <= hi_e for r in ratios_exact) and all(
        lo_g <= r <= hi_g for r in ratios_greedy
    )
    passed = recon_failures == 0 and budget_failures == 0 and bounds_ok
    spread = (
        f"exact ratios [{min(ratios_exact):.3f}, {max(ratios_exact):.3f}] in "
        f"[{lo_e}, {hi_e}]; greedy ratios [{min(ratios_greedy):.3f}, "
        f"{max(ratios_greedy):.3f}] in [{lo_g}, {hi_g}]"
    )
    return CriterionResult(
        8,
        "dyadic-budget pieces reconstruct exactly and score comparably",
        passed,
        f"100 cases: {recon_failures} reconstruction and {budget_failures} "
        f"budget failures; {spread}",
        "decompose:representation",
    )


# --------------------------------------------------------------------------
# criterion 9: weight-class machinery
# --------------------------------------------------------------------------


def criterion_9(seed: int = DEFAULT_SEED) -> CriterionResult:
    rng = _rng(seed, 9)
    geo_failures = 0
    for _ in range(10_000):
        if rng.random() < 0.5:
            w = WeightFn.power(float(rng.uniform(0.3, 5.0)))
        else:
            w = WeightFn.power_log(
                float(rng.uniform(0.4, 4.0)), float(rng.uniform(-2.0, 2.0))
            )
        t = pow2(float(rng.uniform(-20, 20)))
        j_steps = int(rng.integers(1, 61))
        total, bound = geometric_sum_bound(w, t, j_steps)
        if total > bound * (1 + 1e-12):
            geo_failures += 1
    families = [WeightFn.power(p) for p in (0.5, 1.0, 2.0, 4.0)]
    for _ in range(12):
        p = float(rng.uniform(0.5, 3.0))
        families.append(WeightFn.power_log(p, float(rng.uniform(-1.0, 1.0)) / p))
    smooth_failures = 0
    ts = [pow2(k) for k in range(-30, 31, 2)]
    for w in families:
        s0, delta = w.certified_contraction
        c1 = math.log(2.0) / w.doubling_constant
        c2 = math.log(1.0 / s0) / (1.0 - delta)
        for t, g in zip(ts, _smoothed_weights(w, ts)):
            if not c1 * (1 - 1e-9) <= g / w.value(t) <= c2 * (1 + 1e-9):
                smooth_failures += 1
    boyd_exact = all(
        boyd_lower_index(WeightFn.power(p), pow2(-40)) == 1.0 / p
        for p in (0.5, 1.0, 2.0, 4.0)
    )
    boyd_log = abs(boyd_lower_index(WeightFn.power_log(2.0, 1.0), pow2(-500)) - 0.5)
    passed = (
        geo_failures == 0 and smooth_failures == 0 and boyd_exact and boyd_log <= 0.05
    )
    return CriterionResult(
        9,
        "geometric tail bounds, smoothing envelope, and Boyd indices",
        passed,
        f"10000 tail draws ({geo_failures} violations); smoothing ratio inside "
        f"proof constants on the log grid ({smooth_failures} violations); "
        f"power-family index exact: {boyd_exact}; log-family gap {boyd_log:.3f}",
        "weights:class-suite",
    )


# --------------------------------------------------------------------------
# criterion 10: lattice axioms for every norm implementation
# --------------------------------------------------------------------------


def _scaling_and_domination_failures(
    rng: np.random.Generator, norm: Callable[[CoeffSeq], float], a: CoeffSeq
) -> int:
    """Homogeneity under a random scalar, then domination by a shrunk copy."""
    failures = 0
    na = norm(a)
    c = _signed_values(rng, 1, 3.0)[0]
    if abs(norm(a.scaled(c)) - abs(c) * na) > 1e-12 * abs(c) * na:
        failures += 1
    if norm(_shrunk(rng, a)) > na * (1 + 1e-12):
        failures += 1
    return failures


def _space_lattice_failures(rng: np.random.Generator, kind: str) -> int:
    failures = 0
    for _ in range(500):
        s = float(rng.uniform(-1, 1))
        if kind == "besov" and rng.random() < 0.1:
            p = math.inf
        else:
            p = float(rng.uniform(0.4, 3.0))
        q = math.inf if rng.random() < 0.12 else float(rng.uniform(0.4, 3.0))
        params = SpaceParams(s, p, q, 1, kind)
        a = _draw_seq(rng, int(rng.integers(1, 16)), 1, -3, 4, 1.5)
        failures += _scaling_and_domination_failures(
            rng, lambda x: space_norm(x, params), a
        )
        b = _draw_seq(rng, int(rng.integers(1, 16)), 1, -3, 4, 1.5)
        rho = params.rho
        lhs = space_norm(a.plus(b), params) ** rho
        rhs = space_norm(a, params) ** rho + space_norm(b, params) ** rho
        if lhs > rhs * (1 + 1e-12):
            failures += 1
    return failures


def _lorentz_lattice_failures(rng: np.random.Generator) -> int:
    failures = 0
    for _ in range(250):
        # Exponent choices that reduce the norm to a weighted additive form,
        # where the full power-triangle inequality is available.
        tau = float(rng.uniform(0.5, 3.0))
        xi = float(rng.uniform(0.0, 0.9 / tau))
        p_base = 1.0 / (1.0 / tau - xi)
        params = LorentzParams(WeightFn.power(p_base), mu=tau, xi=xi)
        measure = MeasureSpec(float(rng.uniform(-1, 1)))
        a = _draw_seq(rng, int(rng.integers(1, 16)), 1, -3, 4, 1.5)
        failures += _scaling_and_domination_failures(
            rng, lambda x: lorentz_norm(x, measure, params), a
        )
        b = _draw_seq(rng, int(rng.integers(1, 16)), 1, -3, 4, 1.5)
        rho = min(1.0, tau)
        lhs = lorentz_norm(a.plus(b), measure, params) ** rho
        rhs = (
            lorentz_norm(a, measure, params) ** rho
            + lorentz_norm(b, measure, params) ** rho
        )
        if lhs > rhs * (1 + 1e-12):
            failures += 1
    for _ in range(250):
        # General integrability exponent: scaling and domination only.
        p_eta = float(rng.uniform(0.4, 3.0))
        xi = float(rng.uniform(0.0, 1.0))
        mu = math.inf if rng.random() < 0.15 else float(rng.uniform(0.4, 4.0))
        params = LorentzParams(WeightFn.power(p_eta), mu=mu, xi=xi)
        measure = MeasureSpec(float(rng.uniform(-1, 1)))
        a = _draw_seq(rng, int(rng.integers(1, 16)), 1, -3, 4, 1.5)
        failures += _scaling_and_domination_failures(
            rng, lambda x: lorentz_norm(x, measure, params), a
        )
    return failures


def _approx_lattice_failures(rng: np.random.Generator) -> int:
    failures = 0
    for _ in range(200):
        # Budget-split power subadditivity of the optimal error itself.
        p = float(rng.uniform(0.5, 2.5))
        space = SpaceParams(float(rng.uniform(-1, 1)), p, p, 1, "tl")
        measure = MeasureSpec(float(rng.uniform(-1, 1)))
        params = ApproxParams(1.0, 1.0, space, measure)
        a = _draw_seq(rng, int(rng.integers(1, 9)), 1, -3, 3, 1.0)
        b = _draw_seq(rng, int(rng.integers(1, 9)), 1, -3, 3, 1.0)
        ta = float(rng.uniform(0.0, 1.1)) * nu_measure(a.support, measure)
        tb = float(rng.uniform(0.0, 1.1)) * nu_measure(b.support, measure)
        sa = sigma_exact(a, ta, params, "brute").error
        sb = sigma_exact(b, tb, params, "brute").error
        s_sum = sigma_exact(a.plus(b), ta + tb, params, "brute").error
        rho = min(1.0, p)
        if s_sum**rho > (sa**rho + sb**rho) * (1 + 1e-12) + 1e-300:
            failures += 1
    for _ in range(150):
        space = SpaceParams(
            float(rng.uniform(-1, 1)),
            float(rng.uniform(0.5, 3.0)),
            float(rng.uniform(0.5, 3.0)),
            1,
            "tl",
        )
        mu = math.inf if rng.random() < 0.15 else float(rng.uniform(0.5, 3.0))
        params = ApproxParams(
            float(rng.uniform(0.3, 1.5)),
            mu,
            space,
            MeasureSpec(float(rng.uniform(-1, 1))),
        )
        a = _draw_seq(rng, int(rng.integers(1, 13)), 1, -3, 3, 1.0)
        na = approx_norm(a, params, "greedy")
        c = _signed_values(rng, 1, 2.0)[0]
        if abs(approx_norm(a.scaled(c), params, "greedy") - abs(c) * na) > 1e-12 * abs(
            c
        ) * na:
            failures += 1
    for _ in range(150):
        p = float(rng.uniform(0.5, 2.5))
        space = SpaceParams(float(rng.uniform(-1, 1)), p, p, 1, "tl")
        params = ApproxParams(
            float(rng.uniform(0.3, 1.2)),
            float(rng.uniform(0.5, 3.0)),
            space,
            MeasureSpec(float(rng.uniform(-1, 1))),
        )
        a = _draw_seq(rng, int(rng.integers(1, 11)), 1, -3, 3, 1.0)
        b = _shrunk(rng, a)
        if approx_norm(b, params, "brute") > approx_norm(a, params, "brute") * (
            1 + 1e-12
        ):
            failures += 1
    return failures


def criterion_10(seed: int = DEFAULT_SEED) -> CriterionResult:
    rng = _rng(seed, 10)
    tl_failures = _space_lattice_failures(rng, "tl")
    besov_failures = _space_lattice_failures(rng, "besov")
    lorentz_failures = _lorentz_lattice_failures(rng)
    approx_failures = _approx_lattice_failures(rng)
    total = tl_failures + besov_failures + lorentz_failures + approx_failures
    return CriterionResult(
        10,
        "homogeneity, domination monotonicity, and power triangle bounds",
        total == 0,
        "500 pairs per norm (slack 1e-12): failures "
        f"aggregated={tl_failures}, per-scale={besov_failures}, "
        f"rearrangement={lorentz_failures}, budget={approx_failures}",
        "norms:lattice-axioms",
    )


# --------------------------------------------------------------------------
# orchestration
# --------------------------------------------------------------------------


def run_all(seed: int = DEFAULT_SEED, alpha_perturb: float = 0.0) -> list[CriterionResult]:
    """Run all ten criteria, recording wall time per criterion."""
    ordered = (
        lambda: criterion_1(seed),
        lambda: criterion_2(seed, alpha_perturb),
        lambda: criterion_3(seed, alpha_perturb),
        lambda: criterion_4(seed),
        lambda: criterion_5(seed),
        lambda: criterion_6(seed),
        lambda: criterion_7(seed),
        lambda: criterion_8(seed),
        lambda: criterion_9(seed),
        lambda: criterion_10(seed),
    )
    results = []
    for fn in ordered:
        start = time.perf_counter()
        result = fn()
        results.append(
            dataclasses.replace(result, wall_time_s=time.perf_counter() - start)
        )
    return results


def results_to_rows(results: list[CriterionResult]) -> list[ReportRow]:
    """One report row per criterion; every row names the checked property."""
    return [
        ReportRow(
            id=f"crit-{r.cid:02d}",
            params=r.anchor,
            metric="passed",
            value="1" if r.passed else "0",
            status="pass" if r.passed else "fail",
            tolerance=r.details,
            wall_time_s=r.wall_time_s,
        )
        for r in results
    ]
