"""Coefficient sequences, rearrangements, and the weighted quasi-norm."""

from __future__ import annotations

import copy
import itertools
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from restapprox import (
    CoeffSeq,
    ContractViolationError,
    Cube,
    LorentzParams,
    MeasureSpec,
    ScaleRangeError,
    StepRearrangement,
    WeightFn,
    lorentz_norm,
    rearrange,
    weight_integrals,
    weight_sup_on_interval,
    weight_sups,
)
from restapprox import lorentz, weights
from restapprox.errors import finite

from conftest import cube_strategy, seq_strategy
from oracles import (
    distribution,
    log_pieces,
    lorentz_norm_via_distribution,
    power_integral,
    sup_on_interval,
    total_mass,
    value_at,
)

Q0 = Cube(0, (0,))
Q1 = Cube(1, (0,))
Q2 = Cube(1, (1,))
Q3 = Cube(2, (0,))


def test_coeffseq_drops_zeros_and_indexes():
    s = CoeffSeq({Q0: 1.0, Q1: 0.0, Q2: -2.0})
    assert len(s) == 2
    assert s[Q1] == 0.0
    assert s[Q2] == -2.0
    assert s.support == (Q0, Q2)
    assert s.d == 1


def test_coeffseq_is_a_dict_of_its_entries():
    """Structural: lookup, length, equality and items are dict's own, in C;
    a sequence holds no attribute dict and no ``entries`` field."""
    for name in ("__getitem__", "__len__", "__eq__", "items"):
        assert getattr(CoeffSeq, name) is getattr(dict, name), name
    assert CoeffSeq.__slots__ == ()
    assert not hasattr(CoeffSeq({Q0: 1.0}), "__dict__")
    assert not hasattr(CoeffSeq, "entries")
    assert CoeffSeq({Q0: 1.0})[Q1] == 0.0
    assert CoeffSeq({Q0: 1.0}) == {Q0: 1.0}


def test_coeffseq_copies_and_pickles_as_itself():
    s = CoeffSeq({Q0: 1.0, Q2: -2.0})
    for twin in (copy.copy(s), copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
        assert type(twin) is CoeffSeq and twin == s and twin[Q1] == 0.0
    with pytest.raises(TypeError):
        hash(s)


def test_coeffseq_rejects_bad_values():
    with pytest.raises(ContractViolationError):
        CoeffSeq({Q0: math.inf})
    with pytest.raises(ContractViolationError):
        CoeffSeq({Q0: 1.0, Cube(0, (0, 0)): 1.0})


def test_coeffseq_algebra():
    s = CoeffSeq({Q0: 2.0, Q1: -1.0})
    t = CoeffSeq({Q1: 1.0, Q2: 3.0})
    assert s.plus(t) == {Q0: 2.0, Q2: 3.0}  # Q1 cancels exactly
    assert s.plus(t.scaled(-1.0)) == {Q0: 2.0, Q1: -2.0, Q2: -3.0}
    assert s.scaled(-2.0) == {Q0: -4.0, Q1: 2.0}
    assert s.without([Q0]) == {Q1: -1.0}
    kept = CoeffSeq({q: v for q, v in s.items() if q == Q0})
    assert kept.plus(s.without([Q0])) == s


def test_indicator_uses_reciprocal_weights():
    u = {Q0: 2.0, Q2: 0.5}
    ind = CoeffSeq.indicator([Q0, Q2], u)
    assert ind == {Q0: 0.5, Q2: 2.0}


def test_step_rearrangement_validation():
    with pytest.raises(ContractViolationError):
        StepRearrangement((1.0, 0.5), (2.0, 1.0))  # masses must increase
    with pytest.raises(ContractViolationError):
        StepRearrangement((0.5, 1.0), (1.0, 2.0))  # values must decrease
    r = StepRearrangement((0.5, 1.5), (2.0, 1.0))
    assert total_mass(r) == 1.5
    assert value_at(r, 0.0) == 2.0
    assert value_at(r, 0.49) == 2.0
    assert value_at(r, 0.5) == 1.0
    assert value_at(r, 1.5) == 0.0
    assert list(r.pieces()) == [(0.0, 0.5, 2.0), (0.5, 1.5, 1.0)]


@pytest.mark.parametrize("masses, values, message", [
    ((math.nan,), (1.0,), "cumulative masses must increase"),
    ((0.5, math.nan), (2.0, 1.0), "cumulative masses must increase"),
    ((0.5, 1.0), (2.0, math.nan), "step values must strictly decrease"),
    ((0.5,), (math.nan,), "step values must be positive"),
    ((0.5, 0.5), (2.0, 1.0), "cumulative masses must increase"),
    ((0.5, 1.0), (2.0, 0.0), "step values must be positive"),
    ((0.5, 1.0), (2.0,), "masses and values must align"),
    ((-0.5, 1.0), (1.0, 2.0), "cumulative masses must increase"),  # both wrong
])
def test_step_rearrangement_rejects(masses, values, message):
    with pytest.raises(ContractViolationError) as err:
        StepRearrangement(masses, values)
    assert str(err.value) == message


def test_rearrange_hand_case_with_ties():
    # |values| 3, 2, 2, 1 with measure alpha=1: masses 1, 0.5, 0.25, 0.5.
    s = CoeffSeq({Q0: 3.0, Q1: -2.0, Q3: 2.0, Q2: 1.0})
    r = rearrange(s, MeasureSpec(1.0))
    assert r.values == (3.0, 2.0, 1.0)  # the tied magnitude 2 merges
    assert r.masses == (1.0, 1.75, 2.25)


def test_rearrange_with_u_weights():
    u = {Q0: 0.5, Q1: 4.0}
    s = CoeffSeq({Q0: 4.0, Q1: 1.0})  # u|s|: 2.0 and 4.0 — order flips
    r = rearrange(s, MeasureSpec(1.0), u)
    assert r.values == (4.0, 2.0)
    assert r.masses == (0.5, 1.5)


def _refsummed_masses(s: CoeffSeq, measure: MeasureSpec) -> list[float]:
    """Independent oracle: the cumulative masses by one math.fsum over the
    whole prefix at every step."""
    by_magnitude: dict[float, list[float]] = {}
    for cube, value in s.items():
        by_magnitude.setdefault(abs(value), []).append(measure(cube))
    prefix: list[float] = []
    cumulative = []
    for magnitude in sorted(by_magnitude, reverse=True):
        prefix.extend(by_magnitude[magnitude])
        cumulative.append(math.fsum(prefix))
    return cumulative


@given(
    st.dictionaries(
        cube_strategy(d=1, j_lo=-40, j_hi=40, k_span=50),
        st.sampled_from([3.0, -3.0, 2.0, 1.0, -0.5, 0.25]) | st.floats(1e-3, 1e3),
        min_size=1,
        max_size=40,
    ).map(CoeffSeq),
    st.floats(-1.5, 1.5),
)
def test_rearrange_masses_equal_per_step_fsum(s, alpha):
    measure = MeasureSpec(alpha)
    want = _refsummed_masses(s, measure)
    # A step whose mass leaves the rounded total unchanged is folded.
    folded = [b for a, b in zip([0.0, *want], want) if b > a]
    assert list(rearrange(s, measure).masses) == folded


def test_rearrange_sums_masses_per_volume(monkeypatch):
    """Counted: on 2 000 cubes, rearrange makes no per-cube ``ExactSum.add``
    or ``MeasureSpec`` call, and its masses stay per-step fsums."""
    from restapprox.dyadic import ExactSum

    s = CoeffSeq({Cube(i % 11, (i,)): 1.0 + (i % 500) / 7 for i in range(2000)})
    measure = MeasureSpec(0.5)
    want = _refsummed_masses(s, measure)
    calls = []
    add, call = ExactSum.add, MeasureSpec.__call__
    monkeypatch.setattr(ExactSum, "add", lambda self, x: calls.append(x) or add(self, x))
    monkeypatch.setattr(
        MeasureSpec, "__call__", lambda self, q: calls.append(q) or call(self, q)
    )
    steps = rearrange(s, measure)
    assert list(steps.masses) == want and len(want) == 500
    assert calls == []


def test_distribution_counts_strict_super_level():
    s = CoeffSeq({Q0: 3.0, Q1: -2.0, Q2: 1.0})
    m = MeasureSpec(1.0)
    assert distribution(s, m, 0.0) == 2.0  # all of mass 1 + .5 + .5
    assert distribution(s, m, 1.0) == 1.5  # strictly above 1
    assert distribution(s, m, 2.5) == 1.0
    assert distribution(s, m, 3.0) == 0.0


@given(seq_strategy(max_size=8), st.floats(-1.5, 1.5), st.floats(0.0, 100.0))
def test_distribution_matches_rearrangement(s, alpha, lam):
    m = MeasureSpec(alpha)
    r = rearrange(s, m)
    got = distribution(s, m, lam)
    # d(lam) = sup {T : value_at(T) > lam}, which for a step function is the
    # cumulative mass of the steps with value > lam.
    want = 0.0
    for start, end, value in r.pieces():
        if value > lam:
            want = end
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def test_lorentz_params_validation():
    with pytest.raises(ContractViolationError):
        LorentzParams(WeightFn.power(2.0), mu=0.0)
    with pytest.raises(ContractViolationError):
        LorentzParams(WeightFn.power(2.0), mu=1.0, xi=-0.5)


def test_lorentz_norm_hand_case():
    # Steps: value 3 on mass [0,1), 2 on [1,1.5), 1 on [1.5,2).
    s = CoeffSeq({Q0: 3.0, Q1: -1.0, Q2: 2.0})
    params = LorentzParams(WeightFn.power(2.0), mu=2.0, xi=0.5)
    # combined weight t^(1/2+1/2) = t; norm^2 = sum v^2 (T_k^2 - T_{k-1}^2)/2.
    want = math.sqrt(
        9.0 * (1.0 - 0.0) / 2.0 + 4.0 * (2.25 - 1.0) / 2.0 + 1.0 * (4.0 - 2.25) / 2.0
    )
    got = lorentz_norm(s, MeasureSpec(1.0), params)
    assert got == pytest.approx(want, rel=1e-14)


def test_lorentz_norm_sup_form_hand_case():
    s = CoeffSeq({Q0: 3.0, Q1: -1.0, Q2: 2.0})
    params = LorentzParams(WeightFn.power(2.0), mu=math.inf, xi=0.5)
    # sup over pieces of value * sup_{[T_{k-1},T_k]} t: right endpoints.
    want = max(3.0 * 1.0, 2.0 * 1.5, 1.0 * 2.0)
    assert lorentz_norm(s, MeasureSpec(1.0), params) == pytest.approx(want, rel=1e-14)


@given(
    seq_strategy(max_size=10),
    st.floats(-1.0, 1.0),
    st.floats(0.4, 4.0),
    st.floats(0.0, 1.5),
    st.floats(0.4, 4.0),
)
def test_two_norm_routes_exact_power_ratio(s, alpha, p_eta, xi, mu):
    """For a pure power weight t^c the two forms differ by exactly c^(-1/mu):

    the rearrangement form integrates t^(c*mu) dt/t (antiderivative divided by
    c*mu) while the distribution form uses eta(T)^mu / mu.
    """
    params = LorentzParams(WeightFn.power(p_eta), mu=mu, xi=xi)
    m = MeasureSpec(alpha)
    a = lorentz_norm(s, m, params)
    b = lorentz_norm_via_distribution(s, m, params)
    c = xi + 1.0 / p_eta
    assert a == pytest.approx(b * c ** (-1.0 / mu), rel=1e-12)


@given(
    seq_strategy(max_size=10),
    st.floats(-1.0, 1.0),
    st.floats(0.4, 4.0),
    st.floats(0.0, 1.5),
)
def test_two_norm_routes_equal_sup_form(s, alpha, p_eta, xi):
    """With mu = inf both forms take the same sup over right endpoints."""
    params = LorentzParams(WeightFn.power(p_eta), mu=math.inf, xi=xi)
    m = MeasureSpec(alpha)
    assert lorentz_norm(s, m, params) == lorentz_norm_via_distribution(s, m, params)


@given(seq_strategy(max_size=8), st.floats(1e-3, 1e3), st.booleans())
def test_lorentz_norm_homogeneous(s, mag, neg):
    c = -mag if neg else mag
    params = LorentzParams(WeightFn.power(1.7), mu=1.3, xi=0.4)
    m = MeasureSpec(0.7)
    assert lorentz_norm(s.scaled(c), m, params) == pytest.approx(
        abs(c) * lorentz_norm(s, m, params), rel=1e-12
    )


def test_lorentz_norm_empty_is_zero():
    params = LorentzParams(WeightFn.power(2.0), mu=2.0)
    assert lorentz_norm(CoeffSeq({}), MeasureSpec(1.0), params) == 0.0
    assert lorentz_norm_via_distribution(CoeffSeq({}), MeasureSpec(1.0), params) == 0.0


def test_powerlog_routes_within_equivalence_constants():
    """The two forms agree up to constants depending only on the weight.

    For a nondecreasing weight, bracketing each dyadic slice of the integral
    gives, at the norm level,

        (mu ln2 / C_dbl^mu)^(1/mu) <= rearranged/distribution
                                   <= (mu ln2 sum_j M(2^-j)^mu)^(1/mu)

    with M the dilation function and C_dbl the doubling constant.
    """
    s = CoeffSeq({Q0: 2.0, Q1: -0.7, Q3: 1.1})
    mu = 1.5
    params = LorentzParams(WeightFn.power_log(2.0, 0.5), mu=mu, xi=0.3)
    m = MeasureSpec(0.5)
    a = lorentz_norm(s, m, params)
    b = lorentz_norm_via_distribution(s, m, params)
    w = params.combined_weight
    dilation_tail = math.fsum(
        w.dilation_closed_form(2.0**-j) ** mu for j in range(1, 81)
    )
    hi = (mu * math.log(2.0) * (1.0 + dilation_tail)) ** (1.0 / mu)
    lo = (mu * math.log(2.0)) ** (1.0 / mu) / w.doubling_constant
    assert lo * (1 - 1e-9) <= a / b <= hi * (1 + 1e-9)


# Three cubes 900 scales apart: at alpha = 1 the masses 2^-900 vanish next to
# the total 1, so two steps have float length zero.
GAP = CoeffSeq({Q0: 1.0, Cube(900, (0,)): 0.5, Cube(900, (1,)): 0.25})


def test_rearrange_folds_steps_of_zero_float_length():
    r = rearrange(GAP, MeasureSpec(1.0))
    assert r.masses == (1.0,)
    assert r.values == (1.0,)
    # At alpha = -1 the fine cubes carry the mass and the coarse one vanishes.
    r = rearrange(GAP, MeasureSpec(-1.0))
    assert r.masses == (1.0, 2.0**900, 2.0**901)
    assert r.values == (1.0, 0.5, 0.25)


def _exact_lorentz(s: CoeffSeq, alpha: int, p_eta: float, mu: float) -> float:
    """Oracle for power weights t^(1/p_eta) with mu/p_eta a whole number e,
    or mu = inf: every mass 2^(-j d alpha) is a dyadic rational, so the steps,
    their ends and the integral sum_k v_k^mu (T_k^e - T_(k-1)^e) / e are exact
    in Fractions, zero-length steps and all; only the last root is a float."""
    by_value: dict[float, Fraction] = {}
    for cube, value in s.items():
        mass = Fraction(2) ** (-cube.j * cube.d * alpha)
        by_value[abs(value)] = by_value.get(abs(value), Fraction(0)) + mass
    ends, total = [], Fraction(0)
    for value in sorted(by_value, reverse=True):
        total += by_value[value]
        ends.append((value, total))
    if math.isinf(mu):
        return max(value * float(end) ** (1.0 / p_eta) for value, end in ends)
    e = round(mu / p_eta)
    integral = Fraction(0)
    start = Fraction(0)
    for value, end in ends:
        integral += Fraction(value) ** round(mu) * (end**e - start**e) / e
        start = end
    return float(integral) ** (1.0 / mu)


_gap_seqs = st.dictionaries(
    st.builds(
        lambda j, k: Cube(j, (k,)),
        st.sampled_from([-3, 0, 1, 2, 60, 61, 300, 301, 900]),
        st.integers(0, 3),
    ),
    st.sampled_from([4.0, -2.0, 1.0, 0.5, -0.25, 0.125]) | st.floats(1e-2, 1e2),
    min_size=1,
    max_size=12,
).map(CoeffSeq)


@given(
    _gap_seqs,
    st.sampled_from([1, -1]),
    st.sampled_from([(2.0, 2.0), (1.0, 2.0), (1.0, 1.0), (2.0, math.inf)]),
)
def test_lorentz_norm_across_scale_gaps_matches_exact_oracle(s, alpha, eta_mu):
    p_eta, mu = eta_mu
    measure = MeasureSpec(alpha)
    params = LorentzParams(WeightFn.power(p_eta), mu=mu)
    got = lorentz_norm(s, measure, params)
    assert got == pytest.approx(_exact_lorentz(s, alpha, p_eta, mu), rel=1e-13)
    # The distribution form, on the same folded steps, keeps its exact ratio.
    other = lorentz_norm_via_distribution(s, measure, params)
    if math.isinf(mu):
        assert got == other
    else:
        assert got == pytest.approx(other * (1.0 / p_eta) ** (-1.0 / mu), rel=1e-12)


@pytest.mark.parametrize("norm", [lorentz_norm, lorentz_norm_via_distribution])
@pytest.mark.parametrize(
    "entries, eta, mu",
    [
        ({Cube(-1000, (0,)): 1.0}, "power:p=0.5", math.inf),  # pow raises
        ({Cube(-500, (0,)): 1.0}, "powerlog:p=0.5,b=3", math.inf),  # sup is inf
        ({Q0: 1e200}, "power:p=2", 2.0),  # value**mu raises
        ({Q0: 1.3e154, Q1: 1.29e154}, "power:p=1", 2.0),  # the sum overflows
    ],
)
def test_lorentz_norms_past_the_float_range(norm, entries, eta, mu):
    params = LorentzParams(WeightFn.parse(eta), mu=mu)
    with pytest.raises(ScaleRangeError, match="Lorentz norm exceeds the float range"):
        norm(CoeffSeq(entries), MeasureSpec(1.0), params)


def _outcome(compute):
    """``compute()`` as ``("value", result)``, or its error's type and text."""
    try:
        return "value", compute()
    except (ArithmeticError, ValueError) as exc:
        return type(exc).__name__, str(exc)


def _per_step_integrals(w: WeightFn, mu: float, masses) -> list[float]:
    """The per-step set-up of the batched pass, one ``log_pieces`` call per
    step, as the reference of the column set-up: the same intervals in the
    same order through one call of the same kernel, summed per step; the
    per-step closed form for power weights."""
    starts = [0.0, *masses[:-1]]
    if w.family == "power":
        return [power_integral(w, mu, a, b) for a, b in zip(starts, masses)]
    owners, rates, los, his, widths = [], [], [], [], []
    for k, (a, b) in enumerate(zip(starts, masses)):
        for sign, x_lo, x_hi, width in log_pieces(a, b) if b > 0.0 else ():
            owners.append(k)
            rates.append(sign * w.power_exponent * mu)
            los.append(x_lo)
            his.append(x_hi)
            widths.append(width)
    values = weights._gauss_kronrod_21(
        np.array(rates), w.b * mu, np.array(los), np.array(his), np.array(widths)
    )
    totals = [0.0] * len(masses)
    for k, value in zip(owners, values.tolist()):
        totals[k] += value
    return totals


def _per_step_norm(steps, w: WeightFn, mu: float) -> float:
    """The norm from per-step integrals or sups."""
    if math.isinf(mu):
        return max(
            value * sup_on_interval(w, start, end)
            for start, end, value in steps.pieces()
        )
    integrals = _per_step_integrals(w, mu, steps.masses)
    return math.fsum(
        value**mu * integral for value, integral in zip(steps.values, integrals)
    ) ** (1.0 / mu)


def _families(d: int):
    """1-160 cubes of dimension d in scales 0..12, so on both sides of the
    column threshold, with magnitudes often tied, and up to two cubes at
    scales out to +-1000 (wide totals, folded steps and masses past the
    float range), or at scale 2^63, past int64."""

    def cubes(scales):
        return st.builds(
            lambda j, k: Cube(j, tuple(k)),
            scales,
            st.lists(st.integers(0, 1 << 20), min_size=d, max_size=d),
        )

    value = st.sampled_from([3.0, -3.0, 1.0, 0.5, -0.5]) | st.floats(1e-3, 1e3)
    near = st.integers(1, 160).flatmap(
        lambda n: st.dictionaries(
            cubes(st.integers(0, 12)), value, min_size=n, max_size=n
        )
    )
    far = st.dictionaries(
        cubes(st.sampled_from([-1000, -400, -60, 60, 400, 1000, 1 << 63])),
        value,
        max_size=2,
    )
    return st.builds(lambda a, b: CoeffSeq({**a, **b}), near, far)


@given(
    st.integers(1, 3).flatmap(_families),
    st.sampled_from([0.0, 0.5, 1.0, -1.0, 1 / 3, -0.7]),
    st.sampled_from(["power:p=2", "power:p=0.5", "powerlog:p=2,b=0.5",
                     "powerlog:p=1.5,b=-0.4", "powerlog:p=0.5,b=3"]),
    st.sampled_from([2.0, 1.3, 0.7, math.inf]),
)
def test_column_paths_equal_the_per_step_references(s, alpha, eta, mu):
    """Bit for bit: the rearrangement against the per-cube loop (a ``u`` of
    ones takes it at every size), the step integrals and sups against the
    per-step references, and the norm against both; errors alike."""
    measure = MeasureSpec(alpha)
    steps = _outcome(lambda: rearrange(s, measure))
    assert steps == _outcome(lambda: rearrange(s, measure, dict.fromkeys(s, 1.0)))
    if steps[0] != "value":
        return
    steps = steps[1]
    w = WeightFn.parse(eta)
    if math.isinf(mu):
        got = _outcome(lambda: [x.hex() for x in weight_sups(w, steps.masses)])
        want = _outcome(lambda: [
            sup_on_interval(w, a, b).hex() for a, b, _ in steps.pieces()
        ])
    else:
        got = _outcome(lambda: [x.hex() for x in weight_integrals(w, mu, steps.masses)])
        want = _outcome(lambda: [
            x.hex() for x in _per_step_integrals(w, mu, steps.masses)
        ])
    assert got == want
    params = LorentzParams(w, mu)
    got = _outcome(lambda: lorentz_norm(s, measure, params).hex())
    want = _outcome(
        lambda: finite(lambda: _per_step_norm(steps, w, mu), lorentz._NORM_RANGE).hex()
    )
    assert got == want


def _hex_steps(steps) -> tuple[list[str], list[str]]:
    return [x.hex() for x in steps.masses], [x.hex() for x in steps.values]


def test_a_scale_past_int64_takes_the_columns(monkeypatch):
    """Counted: 63 cubes and one at scale 2^63 make no per-cube weight call,
    and rearrange gives the loop's steps at alpha = 0 and its
    ScaleRangeError at 0.5."""
    s = CoeffSeq({
        **{Cube(i % 7, (i,)): 1.0 + i % 5 for i in range(63)},
        Cube(1 << 63, (0,)): 2.5,
    })
    ones = dict.fromkeys(s, 1.0)
    assert len(s) == lorentz._COLUMN_MIN_CUBES
    want = rearrange(s, MeasureSpec(0.0), ones)
    with pytest.raises(ScaleRangeError) as loop:
        rearrange(s, MeasureSpec(0.5), ones)
    calls = []
    u_function, one = lorentz.u_function, lorentz._one
    monkeypatch.setattr(lorentz, "u_function", lambda u: calls.append(u) or u_function(u))
    monkeypatch.setattr(lorentz, "_one", lambda q: calls.append(q) or one(q))
    steps = rearrange(s, MeasureSpec(0.0))
    assert _hex_steps(steps) == _hex_steps(want)
    assert steps.masses[-1] == 64.0
    with pytest.raises(ScaleRangeError) as got:
        rearrange(s, MeasureSpec(0.5))
    assert str(got.value) == str(loop.value)
    assert calls == []


# 2 000 cubes over scales 0..10, and 80 cubes of which half sit 900 scales
# finer than the rest, their magnitudes interleaved with the coarse ones.
LARGE = CoeffSeq({Cube(i % 11, (i,)): 1.0 + (i % 500) / 7 for i in range(2000)})
WIDE_GAP = CoeffSeq({Cube(i % 5 + 900 * (i % 2), (i,)): 1.0 + i for i in range(80)})
# 64 cubes: at alpha = 1 the one at scale 1000 puts the common denominator
# at 2^1000, so the mass of the one at scale -60 is the int 2^1060, past the
# float range, and only the int true division rounds the totals.
WIDE_TOTALS = CoeffSeq({
    **{Cube(i % 7, (i,)): 1.0 + i % 5 for i in range(62)},
    Cube(1000, (0,)): 0.25,
    Cube(-60, (0,)): 9.0,
})


@pytest.mark.parametrize(
    "s, alpha",
    [(LARGE, 0.5), (LARGE, 1 / 3), (LARGE, -0.7), (WIDE_GAP, 1.0), (WIDE_TOTALS, 1.0)],
)
def test_rearrange_takes_the_columns_at_every_alpha(monkeypatch, s, alpha):
    """Counted: a family of 64 cubes or more without u makes no per-cube
    weight call, whatever its measure exponent or scale gap, and its steps
    are the loop's bit for bit, folded steps included."""
    measure = MeasureSpec(alpha)
    want = rearrange(s, measure, dict.fromkeys(s, 1.0))
    calls = []
    u_function, one = lorentz.u_function, lorentz._one
    monkeypatch.setattr(lorentz, "u_function", lambda u: calls.append(u) or u_function(u))
    monkeypatch.setattr(lorentz, "_one", lambda q: calls.append(q) or one(q))
    got = rearrange(s, measure)
    assert calls == []
    assert _hex_steps(got) == _hex_steps(want)
    if s is WIDE_GAP:
        assert len(got.masses) < len(set(map(abs, s.values())))


def test_large_norms_make_no_per_step_or_per_cube_call(monkeypatch):
    """Counted, on 20 and 2 000 cubes: the sups make no
    ``weight_sup_on_interval`` call, and the integrals make one call of the
    adaptive kernel for power-log weights at finite mu, and none otherwise.
    On 2 000 cubes ``rearrange`` also calls no per-cube weight function."""
    calls = {"weight": 0, "sup": 0, "kernel": 0}

    def counted(module, name, key, original=None):
        original = original or getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper, raising=False)

    counted(lorentz, "u_function", "weight")
    counted(lorentz, "_one", "weight")
    for module in (weights, lorentz):  # lorentz imports no scalar sup today
        counted(module, "weight_sup_on_interval", "sup", weight_sup_on_interval)
    counted(weights, "_gauss_kronrod_21", "kernel")
    for n, eta, mu in itertools.product(
        (20, 2000),
        ("power:p=2", "power:p=0.5", "powerlog:p=2,b=0.5", "powerlog:p=0.5,b=3"),
        (2.0, 1.3, math.inf),
    ):
        s = CoeffSeq({Cube(i % 11, (i,)): 1.0 + (i % 500) / 7 for i in range(n)})
        for key in calls:
            calls[key] = 0
        lorentz_norm(s, MeasureSpec(1.0), LorentzParams(WeightFn.parse(eta), mu))
        kernel = 1 if eta.startswith("powerlog") and math.isfinite(mu) else 0
        assert calls["sup"] == 0, (n, eta)
        assert n < lorentz._COLUMN_MIN_CUBES or calls["weight"] == 0, (n, eta)
        assert calls["kernel"] == kernel, (n, eta)
