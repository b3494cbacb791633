"""Weight families: values, dilations, tail bounds, smoothing, Boyd index."""

from __future__ import annotations

import decimal
import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from scipy import special
from hypothesis import strategies as st

from restapprox import (
    CapabilityError,
    CoeffSeq,
    ConfigError,
    ContractViolationError,
    Cube,
    DivergenceError,
    LorentzParams,
    MeasureSpec,
    QuadratureError,
    ScaleRangeError,
    WeightFn,
    boyd_lower_index,
    geometric_sum_bound,
    pow2,
    smoothed_weight,
    lorentz_norm,
    rearrange,
    weight_integral,
    weight_integrals,
    weight_sup_on_interval,
    weight_sups,
)
from restapprox import weights

import oracles
from oracles import log_pieces, power_integral, quad_weight_integral, scanned_dilation


def weight_families() -> list[WeightFn]:
    return [
        WeightFn.power(0.5),
        WeightFn.power(1.0),
        WeightFn.power(2.0),
        WeightFn.power_log(2.0, 0.5),
        WeightFn.power_log(1.5, -0.4),
        WeightFn.power_log(3.0, 1.0 / 3.0),
    ]


def test_parse_round_trip():
    for w in weight_families():
        assert WeightFn.parse(w.spec_string()) == w


def test_parse_rejects_garbage():
    bad_specs = (
        "gauss:p=2",
        "power",
        "power:p=0",
        "powerlog:p=2",
        "power:p=x",
        "power:p=2,b=1",  # a key the family does not take
        "powerlog:p=2,b=1,zzz=3",
        "power:p=2,p=3",  # a repeated key
    )
    for bad in bad_specs:
        with pytest.raises(ConfigError):
            WeightFn.parse(bad)


def test_values_by_hand():
    assert WeightFn.power(2.0).value(4.0) == 2.0
    assert WeightFn.power(1.0).value(0.25) == 0.25
    assert WeightFn.power(2.0).value(0.0) == 0.0
    w = WeightFn.power_log(1.0, 1.0)
    # t * (1 + |ln t|) at t = e: e * 2
    assert w.value(math.e) == pytest.approx(2.0 * math.e, rel=1e-15)
    assert w.value(1.0) == 1.0


def test_negative_argument_rejected():
    with pytest.raises(ContractViolationError):
        WeightFn.power(2.0).value(-1.0)


def test_doubling_constant_closed_form():
    assert WeightFn.power(2.0).doubling_constant == 2.0**0.5
    w = WeightFn.power_log(2.0, 0.5)
    assert w.doubling_constant == pytest.approx(
        2.0**0.5 * (1.0 + math.log(2.0)) ** 0.5, rel=1e-15
    )


@given(st.sampled_from(weight_families()), st.floats(-15.0, 15.0))
def test_doubling_constant_dominates_samples(w, log_t):
    t = pow2(log_t)
    assert w.value(2.0 * t) <= w.doubling_constant * w.value(t) * (1 + 1e-12)


def test_class_membership():
    assert WeightFn.power(2.0).nondecreasing
    assert WeightFn.power_log(2.0, 0.5).nondecreasing  # |b| = 1/p
    assert WeightFn.power_log(2.0, -0.5).nondecreasing
    assert not WeightFn.power_log(2.0, 1.0).nondecreasing  # |b| > 1/p


@given(st.sampled_from(weight_families()), st.floats(-20.0, -0.01))
def test_dilation_closed_form_dominates_scan(w, log_s):
    s = pow2(log_s)
    exact = w.dilation_closed_form(s)
    scanned = scanned_dilation(w, s, 1e-8, 1e8, 400)
    assert scanned <= exact * (1 + 1e-9)


def test_dilation_power_is_exact_power():
    w = WeightFn.power(2.0)
    assert w.dilation_closed_form(0.25) == 0.5


def test_certified_contraction_clears_margin():
    for w in weight_families():
        s0, delta = w.certified_contraction
        assert 0 < s0 < 1
        assert delta <= 0.5
        assert w.dilation_closed_form(s0) == delta


@given(
    st.sampled_from(weight_families()),
    st.floats(-18.0, 18.0),
    st.integers(1, 50),
)
def test_geometric_sum_bound_dominates(w, log_t, steps):
    t = pow2(log_t)
    total, bound = geometric_sum_bound(w, t, steps)
    assert total <= bound * (1 + 1e-12)
    assert math.isfinite(bound)


@pytest.mark.parametrize("w", weight_families() + [WeightFn.power_log(0.7, 2.0)])
def test_geometric_sum_is_the_fsum_of_weight_values(w):
    """The partial sum takes every term's weight value bit for bit."""
    s0, _ = w.certified_contraction
    for t in (3e-7, 0.37, 1.0, 2.5e5):
        for J in range(61):
            total, _ = geometric_sum_bound(w, t, J)
            assert total == math.fsum(w.value(s0**j * t) for j in range(J + 1))


def test_geometric_sum_bound_needs_contraction():
    runaway = WeightFn.power_log(2.0, 1.5)
    if runaway.certified_contraction is None:
        with pytest.raises(CapabilityError):
            geometric_sum_bound(runaway, 1.0, 5)
    else:  # contraction exists; the bound must simply hold
        total, bound = geometric_sum_bound(runaway, 1.0, 5)
        assert total <= bound * (1 + 1e-12)


def test_weight_sup_on_interval_monotone_case():
    w = WeightFn.power(2.0)
    assert weight_sup_on_interval(w, 1.0, 4.0) == 2.0
    wl = WeightFn.power_log(2.0, 0.5)  # nondecreasing since |b| <= 1/p
    assert weight_sup_on_interval(wl, 0.25, 0.5) == wl.value(0.5)


@pytest.mark.parametrize(
    "w, a, b, at",
    [
        (WeightFn.power_log(1.0, -2.0), 0.5, 2.0, 1.0),  # the kink at t = 1
        (WeightFn.power_log(1.0, -2.0), 1.5, 2.0, 1.5),  # falling on (1, e)
        (WeightFn.power_log(0.5, 3.0), 0.5, 0.7, math.exp(-0.5)),  # interior max
    ],
)
def test_sups_take_every_candidate(w, a, b, at):
    """The sup over [a, b] is eta at ``at``, above eta(b): the kink at
    t = 1 (b < -1/p), the left end of a falling stretch, and the interior
    maximum e^(1 - bp) (b > 1/p); one step and the step list alike."""
    want = w.value(at)
    assert want > w.value(b)
    assert weight_sup_on_interval(w, a, b) == want
    assert weight_sups(w, [a, b])[1] == want


def test_weight_sup_on_interval_past_one_is_at_an_endpoint():
    # b = -1.5 < -1/p: t^(1/2) (1 + log t)^(-3/2) has one critical point on
    # (1, oo), t = e^2, and it is a minimum, so the sup over [1.5, 100] is
    # at an endpoint and at least the maximum over a fine log grid.
    w = WeightFn.power_log(2.0, -1.5)
    got = weight_sup_on_interval(w, 1.5, 100.0)
    assert got == w.value(100.0) == 0.7535581912447558
    assert w.value(math.exp(2.0)) < min(w.value(1.5), got)
    grid = [1.5 * (100.0 / 1.5) ** (i / 20000) for i in range(20001)]
    assert got >= max(map(w.value, grid))


def test_weight_integral_power_closed_form():
    # integral of (t^(1/2))^2 dt/t over [1, 4] = 3.
    assert weight_integral(WeightFn.power(2.0), 2.0, 1.0, 4.0) == pytest.approx(
        3.0, rel=1e-14
    )
    # mu = 1, eta = t: integral of t dt/t = b - a.
    assert weight_integral(WeightFn.power(1.0), 1.0, 0.5, 2.5) == pytest.approx(
        2.0, rel=1e-14
    )


@given(
    st.sampled_from(weight_families()),
    st.floats(0.5, 3.0),
    st.floats(-6.0, 2.0),
    st.floats(0.1, 4.0),
    st.floats(0.1, 4.0),
)
def test_weight_integral_additive_in_interval(w, mu, log_a, gap1, gap2):
    a = pow2(log_a)
    b = a * pow2(gap1)
    c = b * pow2(gap2)
    whole = weight_integral(w, mu, a, c)
    split = weight_integral(w, mu, a, b) + weight_integral(w, mu, b, c)
    assert whole == pytest.approx(split, rel=1e-9)


def test_weight_integral_simpson_oracle():
    w = WeightFn.power_log(2.0, 0.5)
    mu = 1.7
    a, b = 0.5, 3.0
    n = 4000
    h = (b - a) / n
    xs = [a + i * h for i in range(n + 1)]
    ys = [w.value(x) ** mu / x for x in xs]
    simpson = (
        h
        / 3.0
        * (
            ys[0]
            + ys[-1]
            + 4.0 * sum(ys[1:-1:2])
            + 2.0 * sum(ys[2:-1:2])
        )
    )
    assert weight_integral(w, mu, a, b) == pytest.approx(simpson, rel=1e-8)


def test_smoothed_weight_between_proof_constants():
    for w in (WeightFn.power(2.0), WeightFn.power_log(2.0, 0.5)):
        s0, delta = w.certified_contraction
        c1 = math.log(2.0) / w.doubling_constant
        c2 = math.log(1.0 / s0) / (1.0 - delta)
        for k in (-12, -3, 0, 4, 11):
            t = pow2(k)
            ratio = smoothed_weight(w, t) / w.value(t)
            assert c1 * (1 - 1e-9) <= ratio <= c2 * (1 + 1e-9)


def _dyadic_piece_sum(w: WeightFn, t: float, tol: float = 1e-10) -> float:
    """g(t) by the former dyadic-piece loop: weight integrals over
    [s0^(j+1) t, s0^j t] until the geometric tail bound of the certified
    contraction (s0, delta) drops below tol times the running total."""
    s0, delta = w.certified_contraction
    k_factor = weight_sup_on_interval(WeightFn.power_log(w.p, abs(w.b)), s0, 1.0)
    tail_unit = w.value(t) * math.log(1.0 / s0) * k_factor / (1.0 - delta)
    total = 0.0
    j = 0
    while True:
        hi = (s0**j) * t
        if hi == 0.0:
            return total
        total += weight_integral(w, 1.0, s0 * hi, hi)
        if total > 0 and delta ** (j + 1) * tail_unit <= tol * total:
            return total
        j += 1


def test_smoothed_weight_matches_the_dyadic_piece_sum():
    families = [
        WeightFn.power_log(p, b)
        for p in (0.5, 1.0, 2.0, 3.0)
        for b in (-1.0, -0.3, 0.25, 1.0)
    ]
    for w in families:
        for k in range(-30, 31, 6):
            t = pow2(k)
            assert smoothed_weight(w, t) == pytest.approx(
                _dyadic_piece_sum(w, t), rel=1e-9
            )


def test_smoothed_weight_power_closed_form():
    for p in (0.5, 2.0, 3.0):
        w = WeightFn.power(p)
        for t in (pow2(-20), 0.3, 1.0, pow2(17)):
            assert smoothed_weight(w, t) == w.p * t ** (1.0 / p)


def test_smoothed_weight_needs_no_contraction_certificate():
    # (1 + |log s|)^5 outgrows s^(1/8) on every dyadic step the scan tries.
    w = WeightFn.power_log(8.0, 5.0)
    assert w.certified_contraction is None
    c, b = w.power_exponent, w.b
    for k in (-40, -12, -3, 0):
        t = pow2(k)
        # x = -log s, y = 1 + x: g(t) = e^c c^-(b+1) Gamma(b+1, c(1 - log t)).
        want = (
            math.exp(c)
            * c ** -(b + 1)
            * special.gammaincc(b + 1, c * (1 - math.log(t)))
            * special.gamma(b + 1)
        )
        assert smoothed_weight(w, t) == pytest.approx(want, rel=1e-10)


def test_boyd_lower_index_power_exact():
    for p in (0.5, 1.0, 2.0, 4.0):
        assert boyd_lower_index(WeightFn.power(p), pow2(-40)) == 1.0 / p


def test_boyd_lower_index_log_family_converges():
    got = boyd_lower_index(WeightFn.power_log(2.0, 1.0), pow2(-500))
    assert got == pytest.approx(0.5, abs=0.05)


def test_times_power_composes():
    w = WeightFn.power(2.0).times_power(0.5)  # t^(1/2+1/2)
    assert w == WeightFn.power(1.0)
    wl = WeightFn.power_log(2.0, 0.3).times_power(0.25)
    assert wl.power_exponent == pytest.approx(0.75, rel=1e-15)
    assert wl.b == 0.3


def _steps(scales: list[int]) -> CoeffSeq:
    """One 1-d cube per scale, with strictly decreasing values, so that at
    alpha = 1 the rearrangement has one step of mass 2^-j per cube."""
    return CoeffSeq(
        {Cube(j, (i,)): 1.0 / (i + 1.0) for i, j in enumerate(scales)}
    )


def _oracle_norm(steps, w: WeightFn, mu: float) -> float:
    """The rearrangement-form norm from one weight_integral per step."""
    total = math.fsum(
        value**mu * weight_integral(w, mu, start, end)
        for start, end, value in steps.pieces()
    )
    return total ** (1.0 / mu)


@given(
    st.floats(0.3, 8.0),
    st.floats(-3.0, 3.0),
    st.floats(0.3, 8.0),
    # scales -20..40 put steps on both sides of t = 1, across it, and down
    # to a few ulps of their start
    st.lists(st.integers(-20, 40), min_size=1, max_size=40),
)
def test_weight_integrals_match_the_per_step_oracle(p, b, mu, scales):
    w = WeightFn.power_log(p, b)
    seq = _steps(scales)
    steps = rearrange(seq, MeasureSpec(1.0))
    got = weight_integrals(w, mu, steps.masses)
    assert len(got) == len(steps.masses)
    for (start, end, _), value in zip(steps.pieces(), got):
        assert value == weight_integral(w, mu, start, end)
        assert value == pytest.approx(quad_weight_integral(w, mu, start, end), rel=1e-13)
    params = LorentzParams(w, mu)
    assert lorentz_norm(seq, MeasureSpec(1.0), params) == pytest.approx(
        _oracle_norm(steps, w, mu), rel=1e-13
    )


@pytest.mark.parametrize("w", [WeightFn.power(0.5), WeightFn.power(3.0)])
def test_weight_integrals_power_family_is_the_closed_form(w):
    masses = [k / 7.0 for k in range(1, 40)]
    starts = [0.0] + masses[:-1]
    expected = [power_integral(w, 1.3, a, b) for a, b in zip(starts, masses)]
    assert weight_integrals(w, 1.3, masses) == expected


def test_weight_integrals_of_no_steps():
    assert weight_integrals(WeightFn.power_log(2.0, 0.5), 2.0, ()) == []


@pytest.mark.parametrize("masses", [[0.0], [0.0, 0.0], [0.0, 0.0, 1.0]])
def test_powerlog_integrals_of_zero_masses_are_the_step_integrals(masses):
    w = WeightFn.power_log(2.0, 0.5)
    starts = [0.0, *masses[:-1]]
    expected = [weight_integral(w, 2.0, a, b) for a, b in zip(starts, masses)]
    assert weight_integrals(w, 2.0, masses) == expected


def _counting_rules(monkeypatch) -> list[int]:
    """The number of intervals of every round of the adaptive kernel: one
    ``_dqk21`` call per round."""
    rounds = []
    rule = weights._dqk21

    def counted(rates, *args):
        rounds.append(len(rates))
        return rule(rates, *args)

    monkeypatch.setattr(weights, "_dqk21", counted)
    return rounds


@pytest.mark.parametrize(
    "a, b",
    [
        (1e-6, 1e3),  # one 21-point rule cannot span 20 e-folds on both sides
        (3.0, 3.0 + 64 * math.ulp(3.0)),  # |resk - resg| is rounding noise
        # |resk - resg| passes the test only without the rounding margin
        (3.0, 3.0 + 512 * math.ulp(3.0)),
    ],
)
def test_rejected_steps_are_the_scalar_results(monkeypatch, a, b):
    """[a, b] fails the first round's test, so the kernel bisects it; in a
    call with the step from 0 each step is its one-step call bit for bit,
    and [a, b] is within 1e-13 of ``quad``."""
    w = WeightFn.power_log(1.5, -0.4)
    rounds = _counting_rules(monkeypatch)
    scalar = weight_integral(w, 2.5, a, b)
    assert len(rounds) > 1
    got = weight_integrals(w, 2.5, (a, b))
    assert got == [weight_integral(w, 2.5, 0.0, a), scalar]
    assert scalar == pytest.approx(quad_weight_integral(w, 2.5, a, b), rel=1e-13)


def test_powerlog_norm_rounds_do_not_grow_with_steps(monkeypatch):
    """Counted: a power-log norm makes one kernel call, and 1 000 and 8 000
    steps take the same number of rounds; past the first round only the
    step from t = 0 and the wide steps are bisected, so the intervals past
    it stay few."""
    w = WeightFn.power_log(2.0, 0.5)
    params = LorentzParams(w, 2.0)
    counts = []
    rounds = _counting_rules(monkeypatch)
    for n in (1000, 8000):
        # scale-9 and scale-13 cubes: the steps' total mass crosses t = 1
        seq = _steps([9 if i % 2 else 13 for i in range(n)])
        rounds.clear()
        lorentz_norm(seq, MeasureSpec(1.0), params)
        counts.append(list(rounds))
    assert len(counts[0]) == len(counts[1]) <= 12
    assert counts[0][0] > 1000 and counts[1][0] > 8000
    assert counts[0][1:] == counts[1][1:] and sum(counts[1][1:]) <= 64


def _one_step(a: float, b: float):
    """``weights._log_piece_columns`` of the one step [a, b]."""
    return weights._log_piece_columns([a, b], [0], [1])


# Steps a few ulps wide, 1e-9 wide, and across t = 1, on both sides of it,
# and one where a expm1(log1p((b - a) / a)) rounds away from b - a.
NARROW_STEPS = [
    (232415.005545051, 232415.00554505247),
    (1000.0, 1000.0 * (1 + 1e-9)),
    (0.3, 0.3 + 3 * math.ulp(0.3)),
    (1e-3, 1e-3 * (1 + 1e-9)),
    (1.0 - 2.0**-40, 1.0 + 2.0**-40),
    (0.23, 0.42),
]


def _exact_width(lo: float, hi: float) -> float:
    """log1p of the exact ratio hi/lo - 1, rounded once."""
    return math.log1p(float(Fraction(hi) / Fraction(lo) - 1))


@pytest.mark.parametrize("a, b", NARROW_STEPS)
def test_narrow_step_widths_come_from_log1p(a, b):
    sides, x_lo, x_hi, widths = _one_step(a, b)
    assert sides.tolist() == [[a < 1.0, b > 1.0]]
    pieces = log_pieces(a, b)
    assert [x.hex() for x in widths] == [width.hex() for *_, width in pieces]
    for sign, _, _, width in pieces:
        lo, hi = (a, min(b, 1.0)) if sign < 0 else (max(a, 1.0), b)
        assert width == _exact_width(lo, hi)


@pytest.mark.parametrize("a, b", NARROW_STEPS[:4])
def test_narrow_step_integrals_are_accurate(a, b):
    """On a step this narrow, the midpoint rule in x = log t (at t =
    sqrt(ab)) is exact to 1e-17; the log difference was 15 % off on the
    first step."""
    w = WeightFn.power_log(2.0, 0.5)
    want = _exact_width(a, b) * w.value(math.sqrt(a * b)) ** 1.5
    assert weight_integral(w, 1.5, a, b) == pytest.approx(want, rel=1e-13)
    assert weight_integrals(w, 1.5, (a, b))[1] == pytest.approx(want, rel=1e-13)


def _decimal_power_integral(a: float, b: float, e: float) -> float:
    """(b^e - a^e) / e in 60-digit decimal arithmetic, rounded once."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        lo, hi, ex = Decimal(a), Decimal(b), Decimal(e)
        return float(((hi.ln() * ex).exp() - (lo.ln() * ex).exp()) / ex)


@pytest.mark.parametrize("a, b", NARROW_STEPS)
@pytest.mark.parametrize(
    "p, mu", [(0.5, 2.0), (1.0, 0.37), (0.5, 1.3), (10.0, 0.01), (2.0, 2.0)]
)
def test_narrow_power_step_integrals_are_accurate(a, b, p, mu):
    """Exponents e = c mu of 4, 0.37, 2.6, 0.001 and 1: b^e - a^e cancelled
    to 3.5e-2 relative off at (0.3, 0.3 + 3 ulp), e = 4, and to 0 on the
    first step at e = 0.001.  At e = 1 the integral is b - a, exact."""
    w = WeightFn.power(p)
    e = w.power_exponent * mu
    want = _decimal_power_integral(a, b, e)
    # 64 steps up to a, then [a, b]: the pass carries powers across steps
    ends = [a * k / 64 for k in range(1, 65)] + [b]
    for got in (weight_integral(w, mu, a, b), weight_integrals(w, mu, ends)[-1]):
        assert got == pytest.approx(want, rel=5e-16, abs=0.0)
        if e == 1.0:
            assert got == b - a


@pytest.mark.parametrize(
    "a, b", [(1.0, 4.0), (1e-3, 1e3), (0.01, 0.07), (3.0, 7.0), (1e-300, 1e300)]
)
@pytest.mark.parametrize("p, mu", [(1e6, 0.01), (1e4, 1.0), (1 / 0.3, 1.0)])
def test_wide_power_step_integrals_are_accurate(a, b, p, mu):
    """Exponents e = c mu of 1e-8, 1e-4 and 0.3 on wide steps (b > 2a):
    wherever (b/a)^e <= 2, b^e - a^e cancelled as on a narrow step, to
    3.6e-9 relative off on [3, 7] at e = 1e-8.  On [1e-300, 1e300] at
    e = 1e-8, b / a overflows and log(b / a) is log b - log a."""
    w = WeightFn.power(p)
    e = w.power_exponent * mu
    want = _decimal_power_integral(a, b, e)
    ends = [a * k / 64 for k in range(1, 65)] + [b]
    for got in (weight_integral(w, mu, a, b), weight_integrals(w, mu, ends)[-1]):
        assert got == pytest.approx(want, rel=5e-16, abs=0.0)


@pytest.mark.parametrize("w", [WeightFn.power(0.5), WeightFn.power_log(0.5, 3.0)])
def test_weight_integral_past_the_float_range(w):
    with pytest.raises(ScaleRangeError):
        weight_integral(w, 1.0, 0.0, 2.0**1000)
    with pytest.raises(ScaleRangeError):
        weight_integrals(w, 1.0, (1.0, 2.0**1000))


def test_an_integral_quad_cannot_finish_matches_its_series():
    """On [1, 1e300] the integrand e^(x/2) (1 + x)^-300 in x = log t falls
    from 1 at x = 0 to about e^-1620 at x = 599; quad's error estimate stays
    above a fifth of its result, and it gives up.  The kernel bisects
    towards x = 0 instead.  With u = 1 + x and the series of e^(u/2), the
    integral is e^(-1/2) sum_k (1 - U^(k-299)) / ((299 - k) 2^k k!) over k <
    299, U = 1 + log 1e300, plus terms for k >= 299 below e^-1600; the U
    terms are below 691^-200 wherever 2^k k! leaves a term above 1e-100."""
    w = WeightFn.power_log(2.0, -300.0)
    series = math.exp(-0.5) * math.fsum(
        1.0 / ((299 - k) * 2.0**k * math.factorial(k)) for k in range(100)
    )
    got = weight_integral(w, 1.0, 1.0, 1e300)
    assert got == pytest.approx(series, rel=1e-13, abs=0.0)
    assert weight_integrals(w, 1.0, (1.0, 1e300))[1] == got
    with pytest.raises(QuadratureError, match="did not converge"):
        quad_weight_integral(w, 1.0, 1.0, 1e300)


@pytest.mark.parametrize("a", [3.0, 1e100])
def test_a_flat_narrow_step_ends_in_few_rounds(monkeypatch, a):
    """An x-interval 1.3e-10 wide on which the integrand, at the smallest
    mu the CLI takes, is flat to 1e-12: dqk21's abserr equals its resasc
    there at every bisection, so the kernel accepts it only because later
    rounds drop dqagse's abserr != resasc clause (with it the step bisects
    until the interval cap).  Near t = 1e100 the interval is four million
    ulps of x = 230 wide."""
    w = WeightFn.power_log(2.0, 0.5)
    b = a * math.exp(1.3e-10)
    rounds = _counting_rules(monkeypatch)
    got = weight_integral(w, 0.01, a, b)
    assert rounds == [1, 2]
    assert got == pytest.approx(quad_weight_integral(w, 0.01, a, b), rel=1e-13)


def test_the_kernel_matches_quad_on_random_pieces():
    """2 000 pieces in one kernel call: rates +-10^U(-2, 0.7), log
    exponents U(-3, 3), widths 10^U(-10, log10 30) from x = U(0, 20) or
    10^U(-3, 1), and 30 % of the decaying pieces infinite.  Each is within
    1e-13 of ``quad`` on its own piece."""
    rng = np.random.default_rng(2026)
    n = 2000
    rates = rng.choice((-1.0, 1.0), n) * 10.0 ** rng.uniform(-2.0, 0.7, n)
    los = np.where(rng.random(n) < 0.5, rng.uniform(0.0, 20.0, n), 10.0 ** rng.uniform(-3.0, 1.0, n))
    his = los + 10.0 ** rng.uniform(-10.0, math.log10(30.0), n)
    his[(rates < 0.0) & (rng.random(n) < 0.3)] = math.inf
    widths = his - los
    for bm in (-3.0, -0.7, 0.0, 1.9, 3.0):
        got = weights._gauss_kronrod_21(rates, bm, los, his, widths)
        want = [oracles.quad_piece(*piece) for piece in zip(rates, [bm] * n, los, his, widths)]
        assert got.tolist() == pytest.approx(want, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("b", [3.0, -3.0])
@pytest.mark.parametrize("p, mu", [(100.0, 1.0), (1.0, 0.01), (3.0, 0.05)])
def test_infinite_ranges_at_small_rates(p, mu, b):
    """Steps from t = 0 at rates c mu of 0.01, 0.01 and 0.017 and log
    exponents b mu from -3 to 3: the cut of the infinite range lies
    hundreds of e-folds out, and the result matches quad's on the
    transformed infinite range."""
    w = WeightFn.power_log(p, b / mu)
    for t in (1e-30, 0.5, 3.0, 1e30):
        want = quad_weight_integral(w, mu, 0.0, t)
        assert weight_integral(w, mu, 0.0, t) == pytest.approx(want, rel=1e-13)
    assert weight_integrals(w, mu, (0.5, 3.0)) == [
        weight_integral(w, mu, 0.0, 0.5), weight_integral(w, mu, 0.5, 3.0)
    ]


@pytest.mark.parametrize(
    "w, mu",
    [
        (WeightFn.power_log(2.0, 0.5), 0.01),  # the smallest mu
        (WeightFn.power_log(100.0, -3.0), 0.01),
        (WeightFn.power_log(2.0, 0.5).times_power(16.0), 2.0),  # lorentz_xi = 16
        (WeightFn.power_log(2.0, -3.0).times_power(16.0), 8.0),
        (WeightFn.power_log(0.5, 3.0), 1.0),
    ],
)
def test_steps_at_the_config_limits(monkeypatch, w, mu):
    """mu = 0.01 and lorentz_xi = 16, on steps from t = 0 and between
    masses from 2^-1000 to 2^1000 (alpha = 16 puts masses that far out).
    Each step gives quad's value within 1e-13, or both raise
    ScaleRangeError, within the round cap."""
    ends = [0.0, 2.0**-1000, 1e-30, 1e-3, 0.9, 1.1, 1e3, 1e30, 2.0**1000]
    for a, b in [(0.0, e) for e in ends[1:]] + list(zip(ends[1:], ends[2:])):
        rounds = _counting_rules(monkeypatch)
        try:
            want = quad_weight_integral(w, mu, a, b)
        except ScaleRangeError:
            with pytest.raises(ScaleRangeError):
                weight_integral(w, mu, a, b)
            continue
        assert weight_integral(w, mu, a, b) == pytest.approx(want, rel=1e-13), (a, b)
        assert len(rounds) <= weights._GK_ROUNDS


def _log_gamma_tail(r: float, bm: float, x: float) -> float:
    """log of the integral over [x, oo) of e^(-r y) (1 + y)^bm dy =
    e^r r^-(bm+1) Gamma(bm + 1, r (1 + x))."""
    upper = special.gammaincc(bm + 1.0, r * (1.0 + x))
    return r - (bm + 1.0) * math.log(r) + special.gammaln(bm + 1.0) + math.log(upper)


@pytest.mark.parametrize(
    "r, bm, lo",
    [(1.0, 300.0, 230.0), (4.0, 1000.0, 207.0), (0.01, 3.0, 0.69), (0.5, 50.0, 99.0),
     (2.0, 3.0, 0.5), (0.1, 30.0, 290.0), (1.0, 1000.0, 999.0), (0.02, -0.5, 0.4),
     (3.0, 0.0, 0.0)],
)
def test_the_tail_past_the_cut_is_below_its_share(r, bm, lo):
    """The exact tail past the cut (an upper incomplete gamma function) is
    at most ``_TAIL_SHARE`` times the lower bound min(f(lo), f(lo + 1/r)) /
    r of the integral.  In the first two cases, just past f's peak, a tail
    bound without its bm+/(1 + X) term would pass a doubling point where the
    exact tail is 2.5 and 3.2 times that."""
    cut = weights._tail_cut(np.array([r]), bm, np.array([lo]))[0]
    log_f = [bm * math.log1p(x) - r * x for x in (lo, lo + 1.0 / r)]
    floor = math.log(weights._TAIL_SHARE) + min(log_f) - math.log(r)
    assert cut > lo and r * (1.0 + cut) > max(bm, 0.0)
    assert _log_gamma_tail(r, bm, cut) <= floor


@pytest.mark.parametrize("a", [0.0, 0.5, 2.0])
def test_a_step_to_an_infinite_mass_is_past_the_float_range(a):
    """t^(c mu) grows without bound on [1, oo): no cut ends that x-range."""
    w = WeightFn.power_log(2.0, 0.5)
    with pytest.raises(ScaleRangeError, match="weight integral exceeds"):
        weight_integral(w, 2.0, a, math.inf)
    with pytest.raises(ScaleRangeError, match="weight integral exceeds"):
        weight_integrals(w, 2.0, [1.0, a + 1.0, math.inf])


def test_the_round_cap_raises_quadrature_error(monkeypatch):
    """[1e-6, 1e3] needs several rounds; with the cap at 3 the kernel raises
    instead of returning a partial sum, and so does the column path."""
    w = WeightFn.power_log(1.5, -0.4)
    monkeypatch.setattr(weights, "_GK_ROUNDS", 3)
    with pytest.raises(QuadratureError, match="did not converge") as scalar:
        weight_integral(w, 2.5, 1e-6, 1e3)
    assert scalar.value.achieved > weights._EPSREL
    with pytest.raises(QuadratureError) as column:
        weight_integrals(w, 2.5, (1e-6, 1e3))
    assert column.value.achieved > weights._EPSREL


def test_the_interval_cap_raises_quadrature_error(monkeypatch):
    """With at most two live pieces per interval, the second bisection of
    [1e-6, 1e3] passes the cap."""
    w = WeightFn.power_log(1.5, -0.4)
    monkeypatch.setattr(weights, "_GK_PIECES", 2)
    rounds = _counting_rules(monkeypatch)
    with pytest.raises(QuadratureError, match="did not converge"):
        weight_integral(w, 2.5, 1e-6, 1e3)
    assert rounds == [2, 2]


def test_many_narrow_steps_converge_as_each_does_alone(monkeypatch):
    """70 000 steps 2^-40 apart past t = 1, each about 9e-13 wide in x:
    dqk21's abserr equals its resasc on every one, so all of them bisect
    once.  The interval cap counts each interval's own pieces, so they end
    in the two rounds one of them takes alone, the step from t = 0 takes
    its rounds as it does alone, and every step gets its scalar result (a
    cap over the whole call's intervals raised QuadratureError here)."""
    w = WeightFn.power_log(2.0, 0.5)
    masses = [1.0 + k * 2.0**-40 for k in range(70000)]
    rounds = _counting_rules(monkeypatch)
    first = weight_integral(w, 2.0, 0.0, 1.0)
    alone = rounds.copy()
    rounds.clear()
    got = weight_integrals(w, 2.0, masses)
    assert rounds[:2] == [70000, 140000] and rounds[2:] == alone[2:]
    assert got[0] == first
    for k in range(1, 70000, 1399):
        assert got[k] == weight_integral(w, 2.0, masses[k - 1], masses[k])


def test_smoothed_weights_take_one_kernel_call(monkeypatch):
    """Criterion 9's grid of 31 t-values per weight: one kernel call, whose
    first round holds every t's x-intervals, gives each t's
    ``smoothed_weight`` bit for bit."""
    ts = [pow2(k) for k in range(-30, 31, 2)]
    rounds = _counting_rules(monkeypatch)
    for w in (WeightFn.power_log(1.3, 0.4), WeightFn.power_log(2.0, -0.5)):
        want = [smoothed_weight(w, t) for t in ts]
        rounds.clear()
        assert weights._smoothed_weights(w, ts) == want
        assert rounds[0] == 31 + 15  # every t's sides in the first round


@pytest.mark.parametrize("w", [WeightFn.power(1e308), WeightFn.power_log(1e308, 0.5)])
def test_an_underflowing_exponent_raises_divergence_error(w):
    """A valid weight has c = 1/p > 0 and a valid mu is > 0, so c * mu <= 0,
    the divergence at t = 0, happens only when the product underflows to 0,
    as 1e-308 * 1e-20 does.  Both paths raise it."""
    assert w.power_exponent * 1e-20 == 0.0
    with pytest.raises(DivergenceError, match="not integrable at 0"):
        weight_integral(w, 1e-20, 1.0, 2.0)
    with pytest.raises(DivergenceError, match="not integrable at 0"):
        weight_integrals(w, 1e-20, (1.0, 2.0))


def _counting_power_passes(monkeypatch) -> list[int]:
    calls = [0]
    power_integrals = weights._power_integrals

    def counted(*args):
        calls[0] += 1
        return power_integrals(*args)

    monkeypatch.setattr(weights, "_power_integrals", counted)
    return calls


@pytest.mark.parametrize("w", [WeightFn.power(0.5), WeightFn.power_log(2.0, 0.5)])
def test_an_empty_step_integrates_to_zero(w):
    assert weight_integral(w, 2.0, 1.5, 1.5) == 0.0
    assert weight_integrals(w, 2.0, (1.0, 1.0))[1] == 0.0


def test_power_integrals_past_the_float_range(monkeypatch):
    """On the narrow step [1e154, 1.9e154] at e = 2, a^e * expm1(...)
    overflows to inf.  At e = 1e-320 every power is 1, and the first step's
    1 / e is inf: the pass over 69 steps raises that without a per-step
    call."""
    with pytest.raises(ScaleRangeError, match="weight integral exceeds"):
        weight_integral(WeightFn.power(0.5), 1.0, 1e154, 1.9e154)
    w = WeightFn.power(1e300)
    assert w.power_exponent * 1e-20 == 1e-320
    calls = _counting_power_passes(monkeypatch)
    with pytest.raises(ScaleRangeError, match="weight integral exceeds"):
        weight_integrals(w, 1e-20, [float(k) for k in range(1, 70)])
    assert calls == [1]


@pytest.mark.parametrize(
    "w, n",
    [
        (WeightFn.power(0.5), 63),
        (WeightFn.power(0.5), 64),
        (WeightFn.power_log(2.0, 0.5), 2),
        (WeightFn.power_log(2.0, 0.5), 64),
    ],
)
def test_steps_out_of_order_are_a_contract_violation(w, n):
    """Short and long lists of both families meet the same order check."""
    falling = [float(k) for k in range(n, 0, -1)]
    negative = [-1.0] + [float(k) for k in range(1, n)]
    for masses in (falling, negative):
        with pytest.raises(ContractViolationError, match="need 0 <= a <= b"):
            weight_integrals(w, 2.0, masses)
        with pytest.raises(ContractViolationError, match="need 0 <= a <= b"):
            weight_sups(w, masses)


@pytest.mark.parametrize("n", [2, 64])
def test_sups_check_the_order_before_any_value(n):
    """eta(1e300) = 1e300^(1/0.3) overflows, but the order check comes
    first, at every length."""
    masses = [1e300, 1.0] + [float(k) for k in range(2, n)]
    with pytest.raises(ContractViolationError, match="need 0 <= a <= b"):
        weight_sups(WeightFn.power(0.3), masses)


@pytest.mark.parametrize("n", [2, 64])
def test_an_infinite_mass_has_a_nan_sup_at_negative_b(n):
    """eta(oo) = oo * (1 + oo)^b is nan for b < 0, and it is the sup of the
    step to an infinite mass at every length, as it is of the one step
    [1, oo]; the power family's eta(oo) is oo."""
    masses = [float(k) for k in range(1, n)] + [math.inf]
    w = WeightFn.power_log(2.0, -0.5)
    sups = weight_sups(w, masses)
    assert math.isnan(sups[-1]) and not any(map(math.isnan, sups[:-1]))
    assert math.isnan(weight_sup_on_interval(w, 1.0, math.inf))
    assert weight_sups(WeightFn.power(2.0), masses)[-1] == math.inf
