"""Weight families: values, dilations, tail bounds, smoothing, Boyd index."""

from __future__ import annotations

import decimal
import math
from decimal import Decimal
from fractions import Fraction

import pytest
import scipy.integrate
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

from oracles import power_integral, scanned_dilation


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
        assert value == pytest.approx(weight_integral(w, mu, start, end), rel=1e-14)
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


def _counting_quad(monkeypatch) -> list[int]:
    """Counts every ``quad`` call: ``weights`` imports it from
    ``scipy.integrate`` at each call, so patching it there reaches them all."""
    calls = [0]
    quad = scipy.integrate.quad

    def counted(*args, **kwargs):
        calls[0] += 1
        return quad(*args, **kwargs)

    monkeypatch.setattr(scipy.integrate, "quad", counted)
    return calls


@pytest.mark.parametrize(
    "a, b",
    [
        (1e-6, 1e3),  # one 21-point rule cannot span 20 e-folds on both sides
        (3.0, 3.0 + 64 * math.ulp(3.0)),  # |resk - resg| is rounding noise
    ],
)
def test_rejected_steps_are_the_scalar_results(monkeypatch, a, b):
    w = WeightFn.power_log(1.5, -0.4)
    calls = _counting_quad(monkeypatch)
    got = weight_integrals(w, 2.5, (a, b))
    first_step = 1 if a < 1.0 else 2
    assert calls[0] > first_step  # quad ran on the second step
    assert got[1] == weight_integral(w, 2.5, a, b)
    assert got[0] == weight_integral(w, 2.5, 0.0, a)


def test_powerlog_norm_quad_calls_do_not_grow_with_steps(monkeypatch):
    """One quad call per step would make 1 001 and 8 001 calls here; the
    batched pass leaves only the first step's."""
    w = WeightFn.power_log(2.0, 0.5)
    params = LorentzParams(w, 2.0)
    counts = []
    for n in (1000, 8000):
        # scale-9 and scale-13 cubes: the steps' total mass crosses t = 1
        seq = _steps([9 if i % 2 else 13 for i in range(n)])
        calls = _counting_quad(monkeypatch)
        lorentz_norm(seq, MeasureSpec(1.0), params)
        counts.append(calls[0])
    assert counts[0] == counts[1] <= 2


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
    pieces = weights._log_pieces(a, b)
    assert [sign for sign, *_ in pieces] == [-1.0] * (a < 1.0) + [1.0] * (b > 1.0)
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


def test_an_integral_quad_cannot_finish_raises_quadrature_error():
    """On [1, 1e300] the integrand e^(x/2) (1 + x)^-300 in x = log t falls
    from 1 at x = 0 to about e^-1620 at x = 599, and quad's error estimate
    stays above a fifth of its result.  The column path rejects that step
    and raises the scalar path's error."""
    w = WeightFn.power_log(2.0, -300.0)
    with pytest.raises(QuadratureError, match="did not converge") as scalar:
        weight_integral(w, 1.0, 1.0, 1e300)
    assert scalar.value.achieved > 1e-8
    with pytest.raises(QuadratureError) as column:
        weight_integrals(w, 1.0, (1.0, 1e300))
    assert str(column.value) == str(scalar.value)


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


def _counting_segments(monkeypatch) -> list[int]:
    calls = [0]
    segment = weights._segment_integral

    def counted(*args):
        calls[0] += 1
        return segment(*args)

    monkeypatch.setattr(weights, "_segment_integral", counted)
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
    calls = _counting_segments(monkeypatch)
    with pytest.raises(ScaleRangeError, match="weight integral exceeds"):
        weight_integrals(w, 1e-20, [float(k) for k in range(1, 70)])
    assert calls == [0]


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
