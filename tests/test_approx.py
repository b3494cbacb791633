"""Budgeted approximation errors, profiles, aggregates, and decompositions."""

from __future__ import annotations

import decimal
import functools
import math
import sys
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from restapprox import (
    ApproxParams,
    AtomWeights,
    CapabilityError,
    CoeffSeq,
    ContractViolationError,
    Cube,
    MeasureSpec,
    ScaleRangeError,
    SigmaProfile,
    SpaceParams,
    approx_norm,
    approx_norm_dyadic,
    bernstein_constant,
    decompose,
    jackson_constant,
    lorentz_norm,
    LorentzParams,
    pow2,
    rearrange,
    sigma_exact,
    sigma_greedy,
    sigma_profile,
    space_norm,
    suffix_norms,
    WeightFn,
)
from restapprox import approx, spaces
from restapprox.democracy import GammaFamily, random_cube_set
from restapprox.dyadic import ExactSum

from conftest import cube_strategy, seq_strategy, signed_values

EUCLID = SpaceParams(0.0, 2.0, 2.0, 1, "tl")  # atom exponent 0: plain l2
LEBESGUE = MeasureSpec(1.0)

A = Cube(0, (0,))
B = Cube(1, (0,))
C = Cube(1, (1,))
D = Cube(2, (0,))
# masses 1, 1/2, 1/2, 1/4; captured squared weights 5, 4, 4, 0.01
HAND = CoeffSeq({A: math.sqrt(5.0), B: 2.0, C: -2.0, D: 0.1})


def _params(xi=1.0, mu=2.0, space=EUCLID, measure=LEBESGUE):
    return ApproxParams(xi, mu, space, measure)


def test_params_validation():
    for bad_xi in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ContractViolationError):
            ApproxParams(bad_xi, 2.0, EUCLID, LEBESGUE)
    with pytest.raises(ContractViolationError):
        ApproxParams(1.0, 0.0, EUCLID, LEBESGUE)
    assert ApproxParams(1.0, math.inf, EUCLID, LEBESGUE).mu == math.inf


def test_exact_beats_greedy_by_hand():
    # Budget 1: the optimum drops both half-cubes (captured weight 8) while
    # greedy locks in the single biggest value (captured weight 5).
    p = _params()
    exact = sigma_exact(HAND, 1.0, p, mode="knapsack")
    assert exact.support == (B, C)
    assert exact.certified
    assert exact.error == pytest.approx(math.sqrt(5.01), rel=1e-13)
    brute = sigma_exact(HAND, 1.0, p, mode="brute")
    assert brute.error == pytest.approx(exact.error, rel=1e-13)
    assert brute.support == (B, C)
    greedy = sigma_greedy(HAND, 1.0, p)
    assert greedy.support == (A,)
    assert not greedy.certified
    assert greedy.error == pytest.approx(math.sqrt(8.01), rel=1e-13)


def test_greedy_skips_and_continues():
    # Budget 0.75: the two largest candidates do not fit, the later and
    # smaller ones still get admitted.
    res = sigma_greedy(HAND, 0.75, _params())
    assert res.support == (B, D)
    assert res.error == pytest.approx(3.0, rel=1e-13)


def test_greedy_priorities_use_u_weights():
    s = CoeffSeq({A: 1.0, Cube(3, (0,)): 0.5})
    p = _params()
    assert sigma_greedy(s, 1.0, p).support == (A,)
    u = AtomWeights(SpaceParams(1.0, 1.0, 1.0, 1, "tl"))  # u(Q) = |Q|^(-1/2)
    assert sigma_greedy(s, 1.0, p, u=u).support == (Cube(3, (0,)),)


def test_zero_budget_and_validation():
    p = _params()
    res = sigma_exact(HAND, 0.0, p)
    assert res.support == ()
    assert res.error == pytest.approx(math.sqrt(13.01), rel=1e-13)
    for bad in (-1.0, math.inf, math.nan):
        with pytest.raises(ContractViolationError):
            sigma_exact(HAND, bad, p)
        with pytest.raises(ContractViolationError):
            sigma_greedy(HAND, bad, p)
    with pytest.raises(ContractViolationError):
        sigma_exact(HAND, 1.0, p, mode="magic")
    empty = CoeffSeq({})
    assert sigma_exact(empty, 1.0, p).error == 0.0
    assert sigma_greedy(empty, 1.0, p).error == 0.0


def test_exact_profile_by_hand():
    profile = sigma_profile(HAND, _params(), solver="knapsack")
    assert profile.breakpoints == (
        0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0, 2.25,
    )
    want_sq = (13.01, 13.0, 9.01, 9.0, 5.01, 5.0, 4.01, 4.0, 0.01)
    for err, sq in zip(profile.errors, want_sq):
        assert err == pytest.approx(math.sqrt(sq), rel=1e-13)
    assert profile.breakpoints[-1] == 2.25
    assert profile.value_at(0.6) == pytest.approx(math.sqrt(9.01), rel=1e-13)
    assert profile.value_at(2.25) == 0.0
    assert profile.value_at(100.0) == 0.0
    with pytest.raises(ContractViolationError):
        profile.value_at(-0.1)


def test_greedy_profile_by_hand():
    profile = sigma_profile(HAND, _params(), solver="greedy")
    assert profile.breakpoints == (0.0, 1.0, 1.5, 2.0, 2.25)
    want_sq = (13.01, 8.01, 4.01, 0.01)
    for err, sq in zip(profile.errors, want_sq):
        assert err == pytest.approx(math.sqrt(sq), rel=1e-13)


def test_profile_shape_validation():
    with pytest.raises(ContractViolationError):
        SigmaProfile((0.0, 1.0), (2.0, 1.0))
    with pytest.raises(ContractViolationError):
        SigmaProfile((0.5, 1.0), (2.0,))
    with pytest.raises(ContractViolationError):
        SigmaProfile((0.0, 1.0, 1.0), (2.0, 1.0))
    with pytest.raises(ContractViolationError):
        SigmaProfile((0.0, 1.0, 2.0), (1.0, 2.0))
    # a negative error within the slack of a rise used to make a complex power
    for errors in [(1.0, -1e-10, 1e-10), (math.nan,)]:
        with pytest.raises(ContractViolationError, match="errors must be >= 0"):
            SigmaProfile((0.0, *range(1, len(errors) + 1)), errors)


@given(
    seq_strategy(max_size=16),
    st.floats(0.0, 1.2),
    st.floats(0.7, 2.5),
    st.floats(-1.0, 1.0),
)
def test_knapsack_matches_brute(s, frac, p, alpha):
    space = SpaceParams(0.0, p, p, 1, "tl")
    measure = MeasureSpec(alpha)
    params = ApproxParams(1.0, 2.0, space, measure)
    budget = frac * math.fsum(measure(q) for q in s.support)
    a = sigma_exact(s, budget, params, mode="brute")
    b = sigma_exact(s, budget, params, mode="knapsack")
    assert b.certified
    assert b.error == pytest.approx(a.error, rel=1e-9, abs=1e-12)
    greedy = sigma_greedy(s, budget, params)
    assert greedy.error >= a.error * (1.0 - 1e-9)


@given(seq_strategy(max_size=8), st.floats(-1.0, 1.0))
def test_profile_agrees_with_pointwise_solver(s, alpha):
    params = ApproxParams(1.0, 2.0, EUCLID, MeasureSpec(alpha))
    profile = sigma_profile(s, params, solver="knapsack")
    bp = profile.breakpoints
    # Probe strictly inside each piece: at a breakpoint itself the pointwise
    # solvers' feasibility test is one rounding error away from either side.
    budgets = [0.0] + [0.5 * (a + b) for a, b in zip(bp, bp[1:])] + [bp[-1] * 1.5 + 1.0]
    for t in budgets:
        want = sigma_exact(s, t, params, mode="brute").error
        assert profile.value_at(t) == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_single_atom_norm_closed_form():
    cube = Cube(3, (-2,))
    s = CoeffSeq.unit(cube, -0.8)
    for alpha in (0.5, 1.0, 2.0):
        measure = MeasureSpec(alpha)
        nu = measure(cube)
        for xi, mu in ((0.5, 2.0), (1.3, 0.7), (2.0, 1.0)):
            params = ApproxParams(xi, mu, EUCLID, measure)
            want = 0.8 * nu**xi * (xi * mu) ** (-1.0 / mu)
            assert approx_norm(s, params) == pytest.approx(want, rel=1e-12)
        params = ApproxParams(0.9, math.inf, EUCLID, measure)
        assert approx_norm(s, params) == pytest.approx(0.8 * nu**0.9, rel=1e-12)


@given(seq_strategy(max_size=6), st.floats(0.5, 2.0), st.floats(0.5, 3.0))
def test_norm_matches_quadrature(s, xi, mu):
    params = ApproxParams(xi, mu, EUCLID, LEBESGUE)
    got = approx_norm(s, params, solver="knapsack")
    profile = sigma_profile(s, params, solver="knapsack")
    total = 0.0
    for k, err in enumerate(profile.errors):
        if err == 0.0:
            continue
        a, b = profile.breakpoints[k], profile.breakpoints[k + 1]
        if a == 0.0:
            # integrand err^mu * t^(xi mu - 1) has an algebraic endpoint
            # singularity at 0; hand the exponent to the quadrature rule
            piece, _ = quad(
                lambda t: err**mu, a, b, weight="alg", wvar=(xi * mu - 1.0, 0.0)
            )
        else:
            piece, _ = quad(lambda t: (t**xi * err) ** mu / t, a, b)
        total += piece
    assert got == pytest.approx(total ** (1.0 / mu), rel=1e-7, abs=1e-12)


def _decimal_profile_norm(profile: SigmaProfile, xi: float, mu: float) -> Decimal:
    """(sum of err^mu (b^x - a^x) / x over the pieces [a, b])^(1/mu), x =
    xi * mu rounded as the package rounds it, in 60-digit decimals."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        x, m = Decimal(xi * mu), Decimal(mu)
        total = Decimal(0)
        bp = profile.breakpoints
        for a, b, err in zip(bp, bp[1:], profile.errors):
            if err > 0:
                lower = (Decimal(a).ln() * x).exp() if a > 0 else Decimal(0)
                piece = ((Decimal(b).ln() * x).exp() - lower) / x
                total += (Decimal(err).ln() * m).exp() * piece
        return (total.ln() / m).exp()


@pytest.mark.parametrize(
    "breakpoints, errors",
    [
        ((0.0, 1.0, 4.0), (2.0, 1.0)),
        ((0.0, 0.5, 0.5000001, 3.0, 3.0000000001, 1e6), (5.0, 4.0, 2.5, 1.0, 0.3)),
        ((0.0, 1e-3, 1.0 + 2.0**-40, 7.0), (1.0, 0.75, 0.125)),
        ((0.0, 2.0, 2.0 + 2.0**-30, 1e12), (3.0, 3.0, 0.0)),
    ],
)
@pytest.mark.parametrize("xi", [1e-6, 1e-4, 0.5])
@pytest.mark.parametrize("mu", [0.01, 0.37, 1.0, 2.0, 40.0])
def test_profile_norm_matches_a_decimal_reference(breakpoints, errors, xi, mu):
    """Pieces narrow and wide, at xi mu down to 1e-8, where b^x - a^x
    cancels (one piece of the first profile was 4.8e-11 relative off when
    written so).  The norm is within a few ulps of its decimal reference
    before the 1/mu root, which at mu = 0.01 multiplies relative errors by
    100; past the float range it is the aggregate's ScaleRangeError."""
    profile = SigmaProfile(breakpoints, errors)
    want = _decimal_profile_norm(profile, xi, mu)
    if want >= Decimal(sys.float_info.max):
        with pytest.raises(ScaleRangeError, match="budget aggregate"):
            profile.norm(xi, mu)
        return
    got = profile.norm(xi, mu)
    assert got == pytest.approx(float(want), rel=2e-15 * max(1.0, 1.0 / mu), abs=0.0)


def test_norm_sup_form_attained_at_right_endpoints():
    params = ApproxParams(0.7, math.inf, EUCLID, LEBESGUE)
    got = approx_norm(HAND, params, solver="knapsack")
    profile = sigma_profile(HAND, params, solver="knapsack")
    grid = [
        b * (1.0 - 1e-12) for b in profile.breakpoints[1:]
    ] + [0.5 * (a + b) for a, b in zip(profile.breakpoints, profile.breakpoints[1:])]
    want = max(t**0.7 * profile.value_at(t) for t in grid)
    assert got == pytest.approx(want, rel=1e-9)


@given(seq_strategy(max_size=6), st.floats(0.5, 2.0), st.floats(0.5, 3.0))
def test_dyadic_norm_matches_wide_explicit_sum(s, xi, mu):
    params = ApproxParams(xi, mu, EUCLID, LEBESGUE)
    got = approx_norm_dyadic(s, params, solver="greedy")
    if not s:
        assert got == 0.0
        return
    profile = sigma_profile(s, params, solver="greedy")
    k_hi = math.ceil(math.log2(profile.breakpoints[-1])) + 2
    total = math.fsum(
        (pow2(k * xi) * profile.value_at(pow2(k))) ** mu
        for k in range(k_hi - 500, k_hi)
    )
    assert got == pytest.approx(total ** (1.0 / mu), rel=1e-9)


def test_dyadic_norm_sup_form_by_hand():
    params = ApproxParams(1.0, math.inf, EUCLID, LEBESGUE)
    got = approx_norm_dyadic(HAND, params, solver="knapsack")
    profile = sigma_profile(HAND, params, solver="knapsack")
    want = max(
        pow2(k) * profile.value_at(pow2(k)) for k in range(-60, 4)
    )
    assert got == pytest.approx(want, rel=1e-12)


def test_a_zero_error_tail_ends_both_aggregates():
    """Past its last positive error a profile is 0, so the breakpoint 1e300
    after it, whose powers leave the float range, is no step of either
    aggregate.  Both sup forms and the dyadic sum used to raise."""
    profile = SigmaProfile((0.0, 2.0, 1e300), (3.0, 0.0))
    assert profile.norm(2.0, math.inf) == 12.0
    assert profile.norm(2.0, 2.0) == 6.0
    assert profile.norm_dyadic(2.0, math.inf) == 3.0
    # the tail sum over k <= 1 of (3 * 2^(2k))^2 is 9 * 16/15
    assert profile.norm_dyadic(2.0, 2.0) == pytest.approx(3.0 * math.sqrt(16.0 / 15.0))
    assert SigmaProfile((0.0, 1.0), (0.0,)).norm_dyadic(2.0, 2.0) == 0.0


@pytest.mark.parametrize("xi", [0.0, -1.0, math.nan, 1e-310])
def test_profile_norm_needs_the_power_weight_of_xi(xi):
    """t^xi is the power weight of index 1/xi; 1/1e-310 overflows."""
    with pytest.raises(ContractViolationError, match="1/xi finite"):
        SigmaProfile((0.0, 1.0), (1.0,)).norm(xi, math.inf)


# Rate exponents of which half do not round trip through 1/xi: at 0.9, 0.45
# and 1.9 the weight t^(1/(1/xi)) is not t^xi.
_ROUND_TRIPS = [0.9, 0.45, 1.9, 0.5, 0.7, 3.0]
# 80 distinct values over scales 0..6: a rearrangement on numpy columns.
_EIGHTY = CoeffSeq({Cube(k % 7, (k,)): 1.0 + (37 * k % 101) / 7.0 for k in range(80)})


@pytest.mark.parametrize("xi", _ROUND_TRIPS)
@pytest.mark.parametrize("mu", [0.37, 1.0, 2.0, 7.5, math.inf])
@pytest.mark.parametrize(
    "s, alpha",
    [(HAND, 1.0), (HAND, 0.5), (_EIGHTY, -0.3)],
    ids=["hand-1", "hand-0.5", "eighty-0.3"],
)
def test_profile_norm_is_the_lorentz_step_aggregate(xi, mu, s, alpha):
    """A profile whose steps are a rearrangement's has the Lorentz norm of
    eta = t^(1/p), p = 1/xi, bit for bit: both take the one step aggregate,
    with the same weight."""
    assert sum(1.0 / (1.0 / x) != x for x in _ROUND_TRIPS) == 3
    measure = MeasureSpec(alpha)
    steps = rearrange(s, measure)
    profile = SigmaProfile((0.0, *steps.masses), steps.values)
    lorentz = LorentzParams(WeightFn.power(1.0 / xi), mu, 0.0)
    assert profile.norm(xi, mu).hex() == lorentz_norm(s, measure, lorentz).hex()


def test_decompose_hand_case():
    params = _params(xi=0.5, mu=2.0)
    res = decompose(HAND, params, solver="knapsack")
    ks = [k for k, _ in res.pieces]
    assert ks == sorted(set(ks))
    total = functools.reduce(lambda a, b: a.plus(b), (p for _, p in res.pieces))
    assert total == HAND
    for k, piece in res.pieces:
        mass = math.fsum(LEBESGUE(q) for q in piece.support)
        assert mass <= pow2(k) * (1.0 + 1e-12)
    recomputed = math.fsum(
        (pow2(k * 0.5) * space_norm(piece, EUCLID)) ** 2.0 for k, piece in res.pieces
    ) ** 0.5
    assert res.score == pytest.approx(recomputed, rel=1e-12)


def test_decompose_score_at_an_infinite_exponent_is_the_largest_piece():
    res = decompose(HAND, _params(xi=0.5, mu=math.inf), solver="greedy")
    assert len(res.pieces) > 1
    assert res.score == max(
        pow2(k * 0.5) * space_norm(piece, EUCLID) for k, piece in res.pieces
    )


def test_decompose_brackets_a_mass_at_the_exponent_limit():
    # One atom of mass 2^-1000: probing 2^-1001 while bracketing its exponent
    # raised ScaleRangeError, although both aggregates are finite.
    s = CoeffSeq({Cube(1000, (0,)): 1.0})
    params = _params(xi=0.5, mu=1.0, measure=MeasureSpec(1.0))
    for solver in ("greedy", "knapsack"):
        res = decompose(s, params, solver)
        assert res.pieces == ((-999, s),)
        assert res.score == pow2(-499.5)
    assert approx_norm(s, params) > 0.0
    assert approx_norm_dyadic(s, params) > 0.0


def test_decompose_exact_solvers_keep_a_cube_of_underflowing_weight():
    # The second cube's captured weight (1e-300)^2 underflows to 0, so no
    # exact search puts it in a support; the last budget, 2, covers the
    # total mass 1.5, and every solver takes the whole support there.
    s = CoeffSeq({Cube(0, (0,)): 1.0, Cube(1, (1,)): 1e-300})
    params = _params()
    greedy = decompose(s, params, "greedy")
    assert greedy.pieces == (
        (1, CoeffSeq({Cube(0, (0,)): 1.0})),
        (2, CoeffSeq({Cube(1, (1,)): 1e-300})),
    )
    for solver in ("knapsack", "brute"):
        assert decompose(s, params, solver) == greedy


def test_decompose_of_an_empty_sequence_has_no_pieces():
    for solver in ("greedy", "knapsack", "brute"):
        res = decompose(CoeffSeq({}), _params(), solver)
        assert res.pieces == ()
        assert res.score == 0.0


@given(seq_strategy(max_size=10), st.floats(-1.0, 1.0))
def test_decompose_reconstructs_exactly(s, alpha):
    params = ApproxParams(0.8, 1.5, EUCLID, MeasureSpec(alpha))
    res = decompose(s, params, solver="greedy")
    if not s:
        assert res.pieces == ()
        assert res.score == 0.0
        return
    total = functools.reduce(lambda a, b: a.plus(b), (p for _, p in res.pieces))
    assert total == s
    measure = MeasureSpec(alpha)
    for k, piece in res.pieces:
        mass = math.fsum(measure(q) for q in piece.support)
        assert mass <= pow2(k) * (1.0 + 1e-12)


@given(seq_strategy(max_size=8), st.floats(-1.0, 1.0))
def test_decompose_pieces_list_their_cubes_in_cube_order(s, alpha):
    params = ApproxParams(0.8, 1.5, EUCLID, MeasureSpec(alpha))
    for solver in ("greedy", "knapsack", "brute"):
        for _, piece in decompose(s, params, solver).pieces:
            assert list(piece) == sorted(piece)


def test_rate_constants_single_atom_are_one():
    cube = Cube(2, (3,))
    suite = [CoeffSeq.unit(cube, -1.7)]
    params = ApproxParams(1.0, math.inf, EUCLID, LEBESGUE)
    lorentz = LorentzParams(WeightFn.power(1.0), mu=math.inf, xi=0.0)
    assert jackson_constant(suite, params, lorentz) == pytest.approx(1.0, rel=1e-12)
    assert bernstein_constant(suite, params, lorentz) == pytest.approx(1.0, rel=1e-12)


def test_rate_constants_skip_an_empty_suite_member():
    suite = [CoeffSeq.unit(Cube(2, (3,)), -1.7)]
    params = ApproxParams(1.0, math.inf, EUCLID, LEBESGUE)
    lorentz = LorentzParams(WeightFn.power(1.0), mu=math.inf, xi=0.0)
    for constant in (jackson_constant, bernstein_constant):
        want = constant(suite, params, lorentz)
        assert constant([CoeffSeq({}), *suite], params, lorentz) == want


# The profile of A has breakpoint powers t^(xi mu) of exponent 1e-8, whose
# integral and dyadic aggregates pass the float range; B's breakpoint 2^640
# at alpha = -16 passes it at the power xi * mu = 8.
_PAST_A = CoeffSeq(
    {Cube(3, (3, 0)): 5.914754410877724, Cube(2, (3, -1)): -2.7285759707215473}
)
_PAST_B = CoeffSeq(
    {Cube(40, (-2,)): -0.13175628821446664, Cube(0, (1,)): -0.0064791366410641175}
)


def test_budget_aggregates_past_the_float_range_are_typed_errors():
    a = ApproxParams(1e-6, 0.01, SpaceParams(3.0, 2.0, 2.0, 2), MeasureSpec(1.0))
    profile = sigma_profile(_PAST_A, a)
    besov = SpaceParams(0.0, 2.0, 2.0, 1, "besov")
    b = ApproxParams(0.5, 16.0, besov, MeasureSpec(-16.0))
    for aggregate in (
        lambda: profile.norm(1e-6, 0.01),
        lambda: profile.norm_dyadic(1e-6, 0.01),
        lambda: sigma_profile(_PAST_B, b).norm(16.0, math.inf),
        lambda: approx_norm(_PAST_A, a),
        lambda: approx_norm(_PAST_B, b),
    ):
        with pytest.raises(ScaleRangeError, match="budget aggregate"):
            aggregate()
    # nu(supp s)^xi = (2^960)^2 in bernstein's denominator
    suite = [CoeffSeq.unit(Cube(-60, (0,)))]
    wide = ApproxParams(2.0, math.inf, EUCLID, MeasureSpec(16.0))
    lorentz = LorentzParams(WeightFn.power(1.0), mu=math.inf)
    with pytest.raises(ScaleRangeError, match="budget aggregate"):
        bernstein_constant(suite, wide, lorentz)
    # decompose's score: the piece holding the cube of volume 2^60, weighted
    # by 2^(k xi) at xi = 16, has a term past the float range
    pair = CoeffSeq({Cube(-60, (0,)): 1e30, Cube(0, (0,)): 1.0})
    for mu in (2.0, math.inf):
        with pytest.raises(ScaleRangeError, match="budget aggregate"):
            decompose(pair, ApproxParams(16.0, mu, EUCLID, LEBESGUE))


def test_rate_constants_reject_a_suite_member_of_zero_norm():
    # The Lorentz norm and the error norm of 1e-300 both underflow to 0.
    suite = [CoeffSeq({Cube(0, (0,)): 1e-300})]
    lorentz = LorentzParams(WeightFn.power(2.0), mu=2.0)
    with pytest.raises(ContractViolationError, match="zero Lorentz norm"):
        jackson_constant(suite, _params(), lorentz)
    with pytest.raises(ContractViolationError, match="zero error norm"):
        bernstein_constant(suite, _params(), lorentz)


def test_branch_and_bound_stops_uncertified_at_the_node_cap(monkeypatch):
    tower = CoeffSeq.indicator(GammaFamily("tower", 4).generate())  # 15 cubes
    assert sigma_exact(tower, 1.0, _params(), "knapsack").certified
    monkeypatch.setattr(approx, "_BNB_NODE_CAP", 5)
    capped = sigma_exact(tower, 1.0, _params(), "knapsack")
    assert not capped.certified
    assert capped.nodes == 6


def test_branch_and_bound_certifies_a_long_density_prefix():
    """2 000 items whose budget the first 1 300 in density order fill exactly:
    that prefix is optimal, and the search certifies it with the prefix's
    weight, summed in the search's order."""
    n, k = 2000, 1300
    masses = [1.0 + (i % 5) / 4 for i in range(n)]
    densities = [2.0 - (i * 7919 % n) / n for i in range(n)]  # distinct, shuffled
    weights = [m * d for m, d in zip(masses, densities)]
    order = sorted(range(n), key=lambda i: -(weights[i] / masses[i]))
    budget = math.fsum(masses[i] for i in order[:k])
    best_w, chosen, certified, _ = approx._branch_and_bound(masses, weights, budget)
    assert certified
    assert chosen == tuple(order[:k])
    assert best_w == functools.reduce(float.__add__, (weights[i] for i in order[:k]))


def _superincreasing(n: int) -> CoeffSeq:
    """Cube(-i) has mass 2^i and, at s = 0 and p = q = 2, captured weight
    3^i: each cube outweighs all earlier ones together in mass and in
    weight, so every subset is on the Pareto frontier."""
    return CoeffSeq({Cube(-i, (0,)): math.sqrt(3**i) for i in range(n)})


def test_capability_limits():
    p = _params()
    # 21 equal masses put only 22 supports on the frontier.
    big = CoeffSeq({Cube(0, (k,)): 1.0 + 0.001 * k for k in range(21)})
    brute = sigma_exact(big, 5.0, p, mode="brute")
    knap = sigma_exact(big, 5.0, p, mode="knapsack")
    assert (brute.error, brute.support) == (knap.error, knap.support)
    assert brute.nodes == 22
    thirteen_deep = _superincreasing(13)
    with pytest.raises(CapabilityError):
        sigma_exact(thirteen_deep, 1.0, p, mode="brute")
    with pytest.raises(CapabilityError):
        sigma_profile(thirteen_deep, p, solver="knapsack")
    assert sigma_greedy(big, 5.0, p).support  # greedy has no size cap
    nonadd = ApproxParams(1.0, 2.0, SpaceParams(0.0, 1.0, 2.0, 1, "tl"), LEBESGUE)
    with pytest.raises(CapabilityError):
        sigma_exact(HAND, 1.0, nonadd, mode="knapsack")
    thirteen = CoeffSeq({Cube(0, (k,)): 1.0 + 0.001 * k for k in range(13)})
    with pytest.raises(CapabilityError):
        sigma_exact(thirteen, 1.0, nonadd, mode="brute")
    with pytest.raises(CapabilityError):
        sigma_profile(thirteen, nonadd, solver="brute")
    with pytest.raises(ContractViolationError):
        sigma_profile(HAND, p, solver="magic")


def test_nonadditive_exact_small_case():
    # p != q exercises the subset-enumeration branch; with nested cubes the
    # norm is genuinely non-additive, but dropping the single biggest value
    # is still optimal here.
    nonadd = ApproxParams(1.0, 2.0, SpaceParams(0.0, 1.0, 2.0, 1, "tl"), LEBESGUE)
    s = CoeffSeq({A: 2.0, B: 1.0})
    res = sigma_exact(s, 1.0, nonadd, mode="brute")
    assert res.support == (A,)
    assert res.error == pytest.approx(
        space_norm(CoeffSeq({B: 1.0}), nonadd.space), rel=1e-13
    )


def test_empty_sequence_aggregates():
    params = _params()
    empty = CoeffSeq({})
    assert approx_norm(empty, params) == 0.0
    assert approx_norm_dyadic(empty, params) == 0.0
    profile = sigma_profile(empty, params)
    assert profile.breakpoints == (0.0,)
    assert profile.errors == ()


@pytest.mark.parametrize(
    "call",
    [
        lambda s, p: sigma_exact(s, 1.0, p, mode="magic"),
        lambda s, p: sigma_profile(s, p, "magic"),
        lambda s, p: decompose(s, p, "magic"),
        lambda s, p: approx_norm(s, p, "magic"),
        lambda s, p: approx_norm_dyadic(s, p, "magic"),
        lambda s, p: jackson_constant([s], p, LorentzParams(WeightFn.power(2.0), 2.0), "magic"),
    ],
    ids=["sigma_exact", "sigma_profile", "decompose", "approx_norm",
         "approx_norm_dyadic", "jackson_constant"],
)
@pytest.mark.parametrize("s", [CoeffSeq({}), HAND], ids=["empty", "hand"])
def test_unknown_solver_is_rejected_before_the_empty_return(call, s):
    with pytest.raises(ContractViolationError):
        call(s, _params())


def test_prefix_sums_stay_linear(monkeypatch):
    """rearrange and sigma_greedy hand math.fsum O(n) elements in all, where
    re-summing every prefix hands it about n^2/2; counted, not timed."""
    n = 2000
    s = CoeffSeq({Cube(11 + i % 3, (i,)): 1.0 + i / n for i in range(n)})
    summed = 0
    fsum = math.fsum

    def counting_fsum(terms):
        nonlocal summed
        terms = list(terms)
        summed += len(terms)
        return fsum(terms)

    monkeypatch.setattr(math, "fsum", counting_fsum)
    assert len(rearrange(s, MeasureSpec(0.0)).masses) == n
    result = sigma_greedy(s, n / 2, _params(measure=MeasureSpec(0.0)))
    assert len(result.support) == n // 2
    assert summed <= 64 * n


# --------------------------------------------------------------------------
# Exact frontiers, the knapsack bound and the greedy order, each against the
# slower form it replaces.
# --------------------------------------------------------------------------


def _fractional_bound(level, cur_mass, cur_w, masses, weights, budget) -> float:
    """Oracle: the Dantzig bound summed item by item in floats."""
    room = budget - cur_mass
    bound = cur_w
    for i in range(level, len(masses)):
        if masses[i] <= room:
            room -= masses[i]
            bound += weights[i]
        else:
            bound += weights[i] * (room / masses[i])
            break
    return bound


def _exact_frontier(masses, weights) -> tuple[list[float], list[int]]:
    """Oracle: the Pareto frontier by sorting all 2^n subsets' exact sums;
    its masses are those sums rounded once by ``Fraction``."""

    def subset_sums(xs):
        fractions = [Fraction(x) for x in xs]
        den = math.lcm(*(f.denominator for f in fractions))
        sums = [0]
        for f in fractions:
            sums += [total + int(f * den) for total in sums]
        return sums, den

    (mass, den), (weight, _) = subset_sums(masses), subset_sums(weights)
    frontier: list[int] = []
    best = -1
    for mask in sorted(range(len(mass)), key=lambda k: (mass[k], -weight[k], k)):
        if weight[mask] > best:
            best = weight[mask]
            frontier.append(mask)
    return [float(Fraction(mass[mask], den)) for mask in frontier], frontier


def _frontier_inputs(s, alpha, s_and_p):
    cubes, values = approx._sorted_entries(s)
    masses = [MeasureSpec(alpha)(q) for q in cubes]
    space = SpaceParams(s_and_p[0], s_and_p[1], s_and_p[1], 1, "tl")
    return masses, approx._additive_weights(cubes, values, space)


# Besides any floats: values and spaces whose captured weights are dyadic
# rationals of few bits, with dyadic alpha (masses are powers of two) or
# half-integer alpha (masses are dyadic multiples of 1 and of one float near
# sqrt 2), so that distinct subsets often tie exactly in mass and weight; and
# all-equal values, where every subset of one size ties.
_dyadic_values = st.sampled_from([0.25, -0.5, 0.75, 1.0, -1.5, 2.0, 3.0])
_dyadic_seqs = st.dictionaries(
    cube_strategy(j_lo=-4, j_hi=4), _dyadic_values, min_size=1, max_size=14
).map(CoeffSeq)
_float_frontier_inputs = st.tuples(
    seq_strategy(max_size=14),
    st.floats(-1.5, 1.5),
    st.sampled_from([(0.0, 2.0), (0.3, 1.0), (-0.7, 1.7)]),
)
_equal_seqs = _dyadic_seqs.map(lambda s: CoeffSeq({q: 1.0 for q in s.support}))
_tied_frontier_inputs = st.tuples(
    st.one_of(_dyadic_seqs, _equal_seqs),
    st.sampled_from([-1.0, 0.0, 1.0, 2.0, 0.5, -0.5, 1.5]),
    st.sampled_from([(0.0, 2.0), (0.5, 1.0), (1.0, 2.0)]),
)


@settings(max_examples=100)
@given(st.one_of(_float_frontier_inputs, _tied_frontier_inputs))
def test_pareto_merge_matches_exact_frontier(inputs):
    # Against exact sums over all subsets, mask for mask and mass for mass:
    # of exactly tied subsets the merge keeps the smallest mask.
    masses, weights = _frontier_inputs(*inputs)
    assert approx._pareto_frontier(masses, weights) == _exact_frontier(
        masses, weights
    )


def test_pareto_merge_keeps_smallest_mask_on_ties():
    # Four equal items: every subset of a given size ties exactly.
    _, merged = approx._pareto_frontier([0.5] * 4, [2.0] * 4)
    assert merged == [0b0000, 0b0001, 0b0011, 0b0111, 0b1111]


def test_pareto_merge_superincreasing_keeps_every_subset():
    # Each item outweighs all earlier ones together, in mass and in weight,
    # so every one of the 2^12 subsets is Pareto-optimal, in mask order: the
    # most the cap admits for 12 items.
    n = 12
    masses, merged = approx._pareto_frontier(
        [2.0**i for i in range(n)], [3.0**i for i in range(n)]
    )
    assert merged == list(range(1 << n))
    assert masses == [float(mask) for mask in merged]


_alphas = st.one_of(st.sampled_from([0.5, -0.3, 0.7071, 1.5]), st.floats(-1.5, 1.5))


@settings(max_examples=100)
@given(seq_strategy(max_size=12), _alphas, st.sampled_from([(2.0, 2.0), (1.0, 2.0)]))
def test_exact_candidate_masses_are_fsums(s, alpha, p_and_q):
    # Both branches, the Pareto frontier (p == q) and every subset (p != q):
    # each exact integer sum rounded once equals fsum of its support's masses.
    cubes, values = approx._sorted_entries(s)
    masses = [MeasureSpec(alpha)(q) for q in cubes]
    space = SpaceParams(0.3, *p_and_q, 1, "tl")
    table, masks = approx._exact_candidates(cubes, values, masses, space)
    assert len(table) == len(masks)
    for mass, mask in zip(table, masks):
        assert mass == math.fsum(m for i, m in enumerate(masses) if mask >> i & 1)


@pytest.mark.parametrize(
    "space", [EUCLID, SpaceParams(0.0, 1.0, 2.0, 1, "tl")], ids=["p=q", "p!=q"]
)
def test_exact_cap_boundary_on_superincreasing_inputs(space):
    # 2^12 candidate supports of 12 cubes is exactly the cap; 13 cubes pass
    # it, whether the candidates are the frontier (p == q) or every subset.
    params = _params(space=space)
    twelve = _superincreasing(12)
    brute = sigma_exact(twelve, 1000.0, params, mode="brute")
    assert brute.nodes == 1 << 12
    profile = sigma_profile(twelve, params, solver="brute")
    assert profile.breakpoints == tuple(float(m) for m in range(1 << 12))
    if space.p == space.q:
        # Mass sums are binary numbers, and weight orders like the mask.
        assert brute.support == tuple(Cube(-i, (0,)) for i in (9, 8, 7, 6, 5, 3))
    thirteen = _superincreasing(13)
    with pytest.raises(CapabilityError):
        sigma_exact(thirteen, 1000.0, params, mode="brute")
    with pytest.raises(CapabilityError):
        sigma_profile(thirteen, params, solver="brute")


def test_exact_search_fails_fast_past_the_cap(monkeypatch):
    """A 20-cube superincreasing input has all 2^20 subsets on its frontier.
    The merge stops at the step whose frontier times the cube count passes
    the cap, before any norm: counted, not timed."""
    sizes = []
    check = approx._check_work

    def recording_check(candidates, n):
        sizes.append(candidates)
        check(candidates, n)

    monkeypatch.setattr(approx, "_check_work", recording_check)
    calls = {"space_norm": 0}
    _counting(monkeypatch, calls)
    s = _superincreasing(20)
    with pytest.raises(CapabilityError):
        sigma_profile(s, _params(), solver="knapsack")
    with pytest.raises(CapabilityError):
        sigma_exact(s, 1.0, _params(), mode="brute")
    assert calls == {"space_norm": 0}
    # Each step doubles the frontier, and the step to 4 096 points raises,
    # so no merge ever holds more than 4 096 points.
    assert sizes == [1 << k for k in range(1, 13)] * 2


def _counting(monkeypatch, calls: dict[str, int]) -> None:
    """Count each call of the named ``approx`` functions into ``calls``."""
    for name in calls:

        def counted(*args, _name=name, _original=getattr(approx, name)):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(approx, name, counted)


def _refusing(monkeypatch, *names: str) -> None:
    def refuse(*args):
        raise AssertionError("called a search the other side owns")

    for name in names:
        monkeypatch.setattr(approx, name, refuse)


def test_exact_profile_never_enumerates(monkeypatch):
    """A 20-cube exact profile takes one merge and one norm per frontier
    mask: counted, not timed."""
    frontiers = []
    merge = approx._pareto_frontier

    def recording_merge(*args):
        frontiers.append(merge(*args))
        return frontiers[-1]

    monkeypatch.setattr(approx, "_pareto_frontier", recording_merge)
    calls = {"space_norm": 0}
    _counting(monkeypatch, calls)
    s = CoeffSeq({Cube(j % 5, (j,)): 1.0 + 0.01 * j for j in range(20)})
    params = _params(measure=MeasureSpec(1.0))
    profile = sigma_profile(s, params, solver="knapsack")
    assert len(frontiers) == 1
    _, masks = frontiers[0]
    assert calls["space_norm"] == len(masks) < 1 << 20
    assert profile.breakpoints[0] == 0.0
    assert profile.breakpoints[-1] == math.fsum(params.measure(q) for q in s.support)
    assert approx_norm(s, params, "knapsack") == profile.norm(1.0, 2.0)
    # Past 20 cubes, five distinct masses keep the frontier small.
    big = CoeffSeq({Cube(j % 5, (j,)): 1.0 for j in range(21)})
    brute = sigma_exact(big, 2.0, params, mode="brute")
    assert brute.error == sigma_exact(big, 2.0, params, mode="knapsack").error
    with pytest.raises(CapabilityError):
        sigma_profile(_superincreasing(21), params, solver="knapsack")


def test_brute_and_knapsack_share_no_search_code(monkeypatch):
    """Criterion 5's two sides on one of its 14-cube additive instances:
    brute sigma reads one merge and one norm and never runs branch and bound;
    the knapsack never runs the merge or the per-subset errors."""
    rng = np.random.default_rng([17, 5])
    cubes = random_cube_set(rng, 14, 1, -2, 2)
    values = [(-1.0) ** i * 10.0 ** float(rng.uniform(-0.5, 0.5)) for i in range(14)]
    s = CoeffSeq(dict(zip(cubes, values)))
    space = SpaceParams(0.4, 1.3, 1.3, 1, "tl")
    params = ApproxParams(0.5, 1.0, space, MeasureSpec(-0.3))
    budget = 0.6 * math.fsum(params.measure(q) for q in cubes)
    with monkeypatch.context() as patched:
        _refusing(patched, "_branch_and_bound", "_dantzig_bound")
        calls = {"_pareto_frontier": 0, "space_norm": 0}
        _counting(patched, calls)
        brute = sigma_exact(s, budget, params, mode="brute")
    assert calls == {"_pareto_frontier": 1, "space_norm": 1}
    assert 0 < len(brute.support) < 14
    assert brute.nodes < 1 << 14  # the frontier's masks, not every subset
    with monkeypatch.context() as patched:
        _refusing(patched, "_pareto_frontier", "_subset_errors")
        knap = sigma_exact(s, budget, params, mode="knapsack")
    assert knap.certified
    assert knap.error == pytest.approx(brute.error, rel=1e-12)


def test_exact_profile_rejects_infinite_weights():
    # With s = -3 the scale-(-300) cube's factor is 2^900, and the product
    # 2^900 * 1e300 overflows to an infinite captured weight.  With s = 0 the
    # factor is 1, and the power (1e300)^2 overflows.
    for smooth, huge in ((-3.0, Cube(-300, (0,))), (0.0, Cube(0, (5,)))):
        space = SpaceParams(smooth, 2.0, 2.0, 1, "tl")
        s = CoeffSeq({huge: 1e300, Cube(0, (0,)): 1.0, Cube(1, (0,)): 2.0})
        params = ApproxParams(0.5, 2.0, space, MeasureSpec(0.0))
        for solver in ("knapsack", "brute"):
            with pytest.raises(ContractViolationError):
                sigma_profile(s, params, solver)
        # The merge sums weights as exact integers, which an inf has not.
        with pytest.raises(ContractViolationError):
            sigma_exact(s, 1.0, params, mode="brute")
        # Branch and bound still takes the infinite weight first.
        result = sigma_exact(s, 1.0, params, mode="knapsack")
        assert result.support == (huge,)
        assert result.certified


_positive = st.floats(min_value=1e-9, max_value=1e6)


@given(
    st.lists(st.tuples(_positive, st.floats(0.0, 1e6)), min_size=1, max_size=40),
    st.floats(0.0, 1.5),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1e3),
    st.data(),
)
def test_dantzig_bound_at_least_float_loop(items, frac, used, cur_w, data):
    items.sort(key=lambda mw: -(mw[1] / mw[0]))
    masses = [m for m, _ in items]
    weights = [w for _, w in items]
    level = data.draw(st.integers(0, len(items) - 1))
    budget = frac * math.fsum(masses)
    cur_mass = used * budget
    old = _fractional_bound(level, cur_mass, cur_w, masses, weights, budget)
    new = approx._dantzig_bound(masses, weights)(level, cur_mass, cur_w, budget)
    assert old <= new <= old * (1.0 + 1e-12) + 1e-300


def test_dantzig_bound_on_prefix_budgets():
    # Budgets that a density prefix fills exactly are where the float loop
    # and the bisect both sit on an item boundary.
    masses = [0.1, 0.2, 0.3, 0.7, 1.1, 1e-9]
    weights = [1.0, 1.5, 2.0, 3.0, 3.5, 1e-12]
    bound = approx._dantzig_bound(masses, weights)
    for level in range(len(masses)):
        budget = 0.0
        for count in range(len(masses) + 1):
            if count:
                budget += masses[count - 1]
            old = _fractional_bound(level, 0.0, 0.0, masses, weights, budget)
            new = bound(level, 0.0, 0.0, budget)
            assert old <= new <= old * (1.0 + 1e-12) + 1e-300
    # Whole items whose weights sum past the float range bound by inf, as the
    # float loop does.
    huge = approx._dantzig_bound([1.0, 1.0], [1e308, 1e308])
    assert huge(0, 0.0, 0.0, 2.0) == math.inf


@given(
    st.integers(1, 3).flatmap(lambda d: st.lists(cube_strategy(d=d), max_size=30))
)
def test_cube_key_orders_like_cube(cubes):
    # cube_strategy draws negative scales and positions too.
    assert sorted(cubes) == sorted(cubes, key=lambda c: (c.j, c.k))
    # Built column-wise, the same cubes, hash for hash.
    built = Cube.from_columns([c.j for c in cubes], [c.k for c in cubes])
    assert built == cubes and all(type(c) is Cube for c in built)
    assert list(map(hash, built)) == list(map(hash, cubes))


@given(seq_strategy(max_size=25), st.floats(-1.0, 1.0), st.booleans())
def test_greedy_pieces_are_disjoint_prefixes(s, alpha, weighted):
    params = ApproxParams(0.8, 1.5, EUCLID, MeasureSpec(alpha))
    u = AtomWeights(SpaceParams(1.0, 1.0, 1.0, 1, "tl")) if weighted else None
    cubes, values = approx._sorted_entries(s)
    order = [cubes[i] for i in approx._greedy_order(cubes, values, u)]
    res = decompose(s, params, solver="greedy", u=u)
    seen: list[Cube] = []
    for _, piece in res.pieces:
        for q in piece.support:
            assert piece[q] == s[q]
        block = set(piece.support)
        assert block == set(order[len(seen) : len(seen) + len(block)])
        seen += order[len(seen) : len(seen) + len(block)]
    assert seen == order


# --------------------------------------------------------------------------
# Greedy profiles from one pass over one forest, against the per-prefix loop
# they replace.
# --------------------------------------------------------------------------


def _greedy_profile_oracle(s, params, u=None) -> SigmaProfile:
    """Oracle: the greedy profile with one ``space_norm`` per prefix, each on
    a fresh sequence, the way ``sigma_profile`` computed it before."""
    cubes, values = approx._sorted_entries(s)
    n = len(cubes)
    if n == 0:
        return SigmaProfile((0.0,), ())
    masses = [params.measure(q) for q in cubes]
    order = approx._greedy_order(cubes, values, u)
    raw = [(0.0, space_norm(s, params.space))]
    prefix_mass = ExactSum()
    for count in range(1, n + 1):
        prefix = order[:count]
        raw.append(
            (
                prefix_mass.add(masses[order[count - 1]]),
                space_norm(s.without(cubes[i] for i in prefix), params.space),
            )
        )
    return approx._lower_envelope(raw)


# tl with finite q (q == p too) and q = inf; besov with p and q finite or inf.
_suffix_spaces = st.sampled_from(
    [
        ("tl", 0.3, 1.5, 2.0),
        ("tl", -0.4, 2.0, 2.0),
        ("tl", 0.0, 0.7, 1.3),
        ("tl", 0.5, 1.5, math.inf),
        ("tl", 1.2, 0.8, math.inf),
        ("besov", 0.3, 1.5, 2.0),
        ("besov", -0.2, 0.6, 3.0),
        ("besov", 0.3, math.inf, 2.0),
        ("besov", 0.3, 1.5, math.inf),
        ("besov", 0.0, math.inf, math.inf),
    ]
)
# Magnitudes from a short list give exact ties in |u_Q s_Q|.
_suffix_values = st.sampled_from([1.0, -1.0, 0.5, 2.0, -0.25]) | signed_values


def _suffix_family(d):
    """Up to 16 cubes of scales -1..4 inside [0, 2)^d: deep chains of nested
    cubes, several cubes per scale."""
    cube = st.integers(-1, 4).flatmap(
        lambda j: st.builds(
            Cube,
            st.just(j),
            st.lists(st.integers(0, (1 << max(j, 0)) - 1), min_size=d, max_size=d),
        )
    )
    return st.dictionaries(cube, _suffix_values, max_size=16).map(CoeffSeq)


@settings(max_examples=200)
@given(
    st.integers(1, 3).flatmap(lambda d: st.tuples(st.just(d), _suffix_family(d))),
    _suffix_spaces,
    st.sampled_from([-0.5, 0.0, 1.0]),
    st.sampled_from(["none", "atoms", "map"]),
)
def test_greedy_profile_equals_per_prefix_norms(d_and_s, space, alpha, weights):
    d, s = d_and_s
    kind, smooth, p, q = space
    space = SpaceParams(smooth, p, q, d, kind)
    params = ApproxParams(0.7, 2.0, space, MeasureSpec(alpha))
    if weights == "atoms":
        u = AtomWeights(SpaceParams(0.5, 1.0, 1.0, d))
    elif weights == "map":
        u = {cube: 1.0 + (cube.j % 3) for cube in s.support}
    else:
        u = None
    profile = sigma_profile(s, params, "greedy", u)
    oracle = _greedy_profile_oracle(s, params, u)
    assert profile == oracle
    assert repr(profile) == repr(oracle)  # the signs of zeros too


@settings(max_examples=200)
@given(
    st.integers(1, 3).flatmap(lambda d: st.tuples(st.just(d), _suffix_family(d))),
    _suffix_spaces,
    st.randoms(use_true_random=False),
)
def test_suffix_norms_equal_norms_of_suffixes_in_any_order(d_and_s, space, rng):
    d, s = d_and_s
    kind, smooth, p, q = space
    params = SpaceParams(smooth, p, q, d, kind)
    order = list(s.support)
    rng.shuffle(order)
    want = [
        space_norm(CoeffSeq({q: s[q] for q in order[c:]}), params)
        for c in range(len(order) + 1)
    ]
    assert suffix_norms(s, params, order) == want


def test_suffix_norms_small_cases_and_validation():
    space = SpaceParams(0.0, 2.0, 2.0, 1)
    assert suffix_norms(CoeffSeq({}), space, []) == [0.0]
    assert suffix_norms(CoeffSeq({A: -3.0}), space, [A]) == [3.0, 0.0]
    for bad in ([A, B, C], [A, B, C, D, D], [A, B, C, Cube(3, (0,))]):
        with pytest.raises(ContractViolationError):
            suffix_norms(HAND, space, bad)
    with pytest.raises(ContractViolationError):
        suffix_norms(HAND, SpaceParams(0.0, 2.0, 2.0, 2), list(HAND.support))


# Families whose norm leaves the float range, each at a different check.
_OVERFLOWING = [
    # (b_Q)^q overflows: a scaled coefficient
    (SpaceParams(0.0, 2.0, 2.0, 1), {Cube(0, (0,)): 1e200, Cube(1, (0,)): 1.0}),
    # the chain maximum raised to p overflows: a region constant
    (SpaceParams(0.0, 3.0, math.inf, 1), {Cube(0, (0,)): 1e150, Cube(2, (1,)): 2.0}),
    # K |Q| overflows on a cube of volume 2^10: the region integral
    (SpaceParams(0.0, 1.0, 1.0, 1), {Cube(-10, (0,)): 1e308, Cube(0, (3,)): 1.0}),
    # the integral is finite, and its power 1/p = 2 is not: the norm
    (SpaceParams(0.0, 0.5, 0.5, 1), {Cube(-900, (0,)): 1.0, Cube(0, (0,)): 1.0}),
    # the volume 2^-1200 is outside the supported exponent range
    (SpaceParams(0.0, 1.0, 1.0, 1), {Cube(1200, (0,)): 1.0, Cube(0, (0,)): 1.0}),
    # The pass inserts the fine cube first and meets its volume's range
    # error; the whole family's overflowing constant comes first.
    (
        SpaceParams(0.0, 3.0, math.inf, 1),
        {Cube(1200, (0,)): 2.0**-700, Cube(0, (0,)): 1e150},
    ),
    # besov: a per-scale power, and a power across scales
    (
        SpaceParams(0.0, 2.0, 2.0, 1, "besov"),
        {Cube(0, (0,)): 1e200, Cube(1, (0,)): 1.0},
    ),
    (
        SpaceParams(0.0, math.inf, 2.0, 1, "besov"),
        {Cube(0, (0,)): 1e300, Cube(3, (1,)): 1.0},
    ),
    # besov at p = q = inf: the scaled coefficient 2^121 * 1e300 is inf
    (
        SpaceParams(60.0, math.inf, math.inf, 1, "besov"),
        {Cube(2, (0,)): 1e300, Cube(0, (0,)): 1.0},
    ),
]


@pytest.mark.parametrize("space, entries", _OVERFLOWING)
def test_overflowing_greedy_profile_raises_as_the_per_prefix_loop(space, entries):
    s = CoeffSeq(entries)
    params = ApproxParams(0.5, 2.0, space, MeasureSpec(0.0))
    with pytest.raises(ScaleRangeError) as oracle:
        _greedy_profile_oracle(s, params)
    with pytest.raises(ScaleRangeError) as got:
        sigma_profile(s, params)
    assert str(got.value) == str(oracle.value)


@pytest.mark.parametrize(
    "space, entries, message",
    [
        # K |Q| = 1e308 * 2^10 is inf: ExactSum's OverflowError, made typed
        (
            SpaceParams(0.0, 1.0, 1.0, 1),
            {Cube(-10, (0,)): 1e308, Cube(0, (3,)): 1.0},
            "the region integral exceeds the float range",
        ),
        # (1e150)^3 overflows: the pass's own ScaleRangeError, unchanged
        (
            SpaceParams(0.0, 3.0, math.inf, 1),
            {Cube(0, (0,)): 1e150, Cube(2, (1,)): 2.0},
            "a scaled coefficient exceeds the float range",
        ),
    ],
)
def test_tl_suffix_pass_raises_a_typed_error_of_its_own(
    monkeypatch, space, entries, message
):
    """The suffix pass raises the whole family's error by re-checking it; if
    that check passed, its own error still leaves as a ScaleRangeError."""
    monkeypatch.setattr(spaces, "_tl_forest_norm", lambda *args: 0.0)
    s = CoeffSeq(entries)
    with pytest.raises(ScaleRangeError, match=message):
        suffix_norms(s, space, list(s.support))


class _CountingList(list):
    """A list that counts its index reads."""

    reads = 0

    def __getitem__(self, index):
        self.reads += 1
        return super().__getitem__(index)


def test_greedy_profile_builds_one_forest_and_no_norms(monkeypatch):
    """Counted, not timed: one forest per profile, no norm call, and the
    pass visits sum(depth + 1) nodes, each reading its parent once."""
    forests = []

    class CountingForest(spaces.ContainmentForest):
        def __init__(self, cubes):
            super().__init__(cubes)
            self.parent = _CountingList(self.parent)
            forests.append(self)

    def refuse(*args):
        raise AssertionError("a greedy profile called a norm")

    monkeypatch.setattr(spaces, "ContainmentForest", CountingForest)
    for name in ("space_norm", "tl_norm", "besov_norm"):
        monkeypatch.setattr(spaces, name, refuse)
    monkeypatch.setattr(approx, "space_norm", refuse)
    # Complete dyadic trees of depths 6 and 9: n = 127 and 1023 = 8n + 7
    # cubes, where a cube of scale j has depth j.
    for depth in (6, 9):
        s = CoeffSeq(
            {
                Cube(j, (k,)): 1.0 + ((7 * k + j) % 11) / 8.0
                for j in range(depth + 1)
                for k in range(1 << j)
            }
        )
        for q in (2.0, math.inf):
            forests.clear()
            space = SpaceParams(0.3, 1.5, q, 1)
            params = _params(space=space, measure=MeasureSpec(0.5))
            profile = sigma_profile(s, params)
            total = math.fsum(params.measure(c) for c in s.support)
            assert profile.breakpoints[-1] == total
            assert len(forests) == 1
            visits = forests[0].parent.reads
            assert visits == sum((j + 1) << j for j in range(depth + 1))
        forests.clear()
        besov = SpaceParams(0.3, 1.5, 2.0, 1, "besov")
        sigma_profile(s, _params(space=besov))
        assert forests == []
