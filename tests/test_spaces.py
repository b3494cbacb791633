"""Aggregated and per-scale sequence-space norms."""

from __future__ import annotations

import math
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from restapprox import (
    AtomWeights,
    CoeffSeq,
    ContractViolationError,
    Cube,
    LorentzParams,
    MeasureSpec,
    ScaleRangeError,
    SpaceParams,
    WeightFn,
    besov_norm,
    lorentz_equals_besov_check,
    lorentz_norm,
    rearrange,
    space_norm,
    suffix_norms,
    tl_norm,
)
from restapprox import approx
from restapprox.dyadic import VolumePowers

from conftest import cube_strategy, seq_strategy, signed_values

Q0 = Cube(0, (0,))
Q1 = Cube(1, (0,))
Q2 = Cube(1, (1,))


def test_space_params_validation():
    with pytest.raises(ContractViolationError):
        SpaceParams(0.0, math.inf, 2.0, 1, "tl")  # aggregated norm needs p < inf
    with pytest.raises(ContractViolationError):
        SpaceParams(0.0, 0.0, 2.0, 1, "tl")
    with pytest.raises(ContractViolationError):
        SpaceParams(0.0, 2.0, 2.0, 1, "banach")
    with pytest.raises(ContractViolationError):
        SpaceParams(0.0, 2.0, 2.0, 0, "tl")
    assert SpaceParams(0.0, math.inf, math.inf, 2, "besov").rho == 1.0


def test_tl_norm_fails_fast_across_a_huge_scale_gap():
    # At s = -d/2 every scale factor is 2^0, so only the volume 2^-10^7 of
    # the fine cube is out of range, and the forest is built before that.
    s = CoeffSeq({Cube(0, (0,)): 1.0, Cube(10_000_000, (0,)): 1.0})
    with pytest.raises(ScaleRangeError):
        tl_norm(s, SpaceParams(-0.5, 2.0, 2.0, 1, "tl"))


def test_tl_norm_raises_for_a_scale_factor_past_the_float_range():
    # At s = 0 the scale factor of a scale-2100 cube is |Q|^(-1/2) = 2^1050,
    # and _tl_chain_inputs raises pow2's error for it.
    params = SpaceParams(0.0, 2.0, 2.0, 1)
    with pytest.raises(ScaleRangeError, match=r"^2\^1050 is outside"):
        tl_norm(CoeffSeq({Cube(2100, (0,)): 1.0}), params)
    # Of two such cubes, the error names the first in preorder, the coarser,
    # though the sequence lists the finer (2^1100) first.
    s = CoeffSeq({Cube(2200, (0,)): 1.0, Cube(2100, (0,)): 1.0})
    with pytest.raises(ScaleRangeError, match=r"^2\^1050 is outside"):
        tl_norm(s, params)


def test_exponents():
    f = SpaceParams(1.0, 2.0, 3.0, 2, "tl")
    assert f.atom_exponent == -0.5 + 0.5 - 0.5
    assert f.coeff_exponent == -0.5 - 0.5
    assert f.rho == 1.0
    assert SpaceParams(0.0, 0.7, 0.9, 1, "tl").rho == 0.7
    b = SpaceParams(0.0, math.inf, 2.0, 1, "besov")
    assert b.atom_exponent == -0.5  # 1/p = 0 at p = inf


def test_atom_weights_closed_form():
    f = SpaceParams(1.0, 2.0, 2.0, 1, "tl")  # atom exponent -1
    u = AtomWeights(f)
    assert u(Cube(3, (5,))) == 8.0  # |Q|^-1
    with pytest.raises(ContractViolationError):
        u(Cube(0, (0, 0)))  # wrong dimension


def test_ell_p_case_by_hand():
    # s = 0, p = q = 2: coefficient weight |Q|^(-1/2), regions recombine to
    # the plain euclidean norm of the values.
    s = CoeffSeq({Q0: 3.0, Q1: -1.0, Q2: 2.0})
    f = SpaceParams(0.0, 2.0, 2.0, 1, "tl")
    assert tl_norm(s, f) == pytest.approx(math.sqrt(14.0), rel=1e-13)


def test_nested_cubes_interact_in_aggregated_norm():
    # Two nested cubes: on the overlap the inner q-sum adds both terms.
    s = CoeffSeq({Q0: 1.0, Q1: 1.0})
    f = SpaceParams(0.0, 1.0, 1.0, 1, "tl")
    # b-values: |Q0|^(-1/2)*1 = 1, |Q1|^(-1/2)*1 = sqrt(2).
    # integrand: (1 + sqrt2) on [0, 1/2), 1 on [1/2, 1).
    want = (1.0 + math.sqrt(2.0)) * 0.5 + 1.0 * 0.5
    assert tl_norm(s, f) == pytest.approx(want, rel=1e-14)


def test_aggregated_norm_sup_inner_exponent():
    # q = inf takes the chain max of b-values before the outer integral.
    s = CoeffSeq({Q0: 1.0, Q1: 1.0})
    f = SpaceParams(0.0, 1.0, math.inf, 1, "tl")
    want = math.sqrt(2.0) * 0.5 + 1.0 * 0.5
    assert tl_norm(s, f) == pytest.approx(want, rel=1e-14)


def test_tl_norm_power_of_cube_sum_hand_case():
    # At s = -d/2 and q = 1, b_Q = |s_Q|, so tl_norm^p integrates
    # (sum_Q |s_Q| chi_Q)^p: (3 + 1)^2 on [0, 1/2) and 3^2 on [1/2, 1).
    s = CoeffSeq({Q0: 3.0, Q1: 1.0})
    got = tl_norm(s, SpaceParams(-0.5, 2.0, 1.0, 1))
    assert got == pytest.approx(math.sqrt(16.0 * 0.5 + 9.0 * 0.5), rel=1e-15)


def _brute_integral(s: CoeffSeq, params: SpaceParams) -> float:
    """Independent oracle of ``tl_norm(s, params) ** p``: the integrand,
    (sum of b_Q^q)^(p/q), or (max b_Q)^p for q = inf, over the cubes holding
    a point, sampled at every cell of the finest grid that a cube covers.
    A cell c at the finest scale lies in the cube (j, k) exactly when each
    c_i >> (finest - j) == k_i."""
    finest = max(q.j for q in s)
    b = {q: 2.0 ** (q.j * (params.s + q.d / 2)) * abs(v) for q, v in s.items()}
    cells = set()
    for q in s:
        shift = finest - q.j
        cells.update(product(*(range(k << shift, (k + 1) << shift) for k in q.k)))
    width = 2.0 ** (-finest * s.d)
    total = []
    for cell in cells:
        held = [
            b[q]
            for q in s
            if all(c >> (finest - q.j) == k for c, k in zip(cell, q.k))
        ]
        if math.isinf(params.q):
            value = max(held) ** params.p
        else:
            value = math.fsum(x**params.q for x in held) ** (params.p / params.q)
        total.append(value * width)
    return math.fsum(total)


@given(
    st.sampled_from([(1, -3, 3, 8), (2, -1, 2, 3)]).flatmap(
        lambda grid: st.dictionaries(
            cube_strategy(*grid), signed_values, min_size=1, max_size=8
        )
    ),
    st.one_of(st.just(-0.5), st.floats(-2.0, 2.0)),  # d = 1, s = -1/2: b_Q = |s_Q|
    st.floats(0.3, 3.0),
    st.one_of(st.just(1.0), st.just(math.inf), st.floats(0.3, 4.0)),
)
def test_tl_norm_matches_grid_oracle(terms, smooth, p, q):
    s = CoeffSeq(terms)
    params = SpaceParams(smooth, p, q, s.d)
    want = _brute_integral(s, params)
    assert tl_norm(s, params) ** p == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize(
    "entries, smooth, p, q",
    [
        ({Q0: 1e200, Q1: 1.0}, 0.0, 2.0, 2.0),  # a power overflows
        ({Q0: 1e200}, 0.0, 2.0, math.inf),  # the region constant overflows
        ({Cube(-300, (0,)): 1e300, Q0: 1.0}, -3.0, 2.0, 2.0),  # a scaled term
        ({Q0: 1.7e308, Q1: 1.7e308}, -0.5, 1.0, 1.0),  # a chain or scale sum
        ({Cube(-300, (0,)): 1e300}, -0.5, 0.5, math.inf),  # the norm itself
    ],
)
def test_norms_past_the_float_range_raise_scale_range_error(entries, smooth, p, q):
    s = CoeffSeq(entries)
    with pytest.raises(ScaleRangeError):
        tl_norm(s, SpaceParams(smooth, p, q, 1, "tl"))
    with pytest.raises(ScaleRangeError):
        besov_norm(s, SpaceParams(smooth, p, q, 1, "besov"))


def test_per_scale_norm_by_hand():
    s = CoeffSeq({Q0: 3.0, Q1: -1.0, Q2: 2.0})
    f = SpaceParams(0.0, 2.0, 1.0, 1, "besov")
    # scale 0: coef |Q|^0 * 3 = 3; scale 1: sqrt(1+4) * (1/2)^(-1/2+1/2-...)
    # atom-exponent convention: w = |Q|^(-s/d+1/p-1/2) = |Q|^0 -> inner sums
    # are plain euclidean per scale: 3 and sqrt(5); outer q = 1 adds them.
    assert besov_norm(s, f) == pytest.approx(3.0 + math.sqrt(5.0), rel=1e-14)


def test_per_scale_norm_sup_exponents():
    s = CoeffSeq({Q0: 3.0, Q1: -1.0, Q2: 2.0})
    f_pinf = SpaceParams(0.0, math.inf, 1.0, 1, "besov")
    # p = inf: per-scale sup of |Q|^(-1/2)|v|: scale 0: 3; scale 1: sqrt2*2.
    assert besov_norm(s, f_pinf) == pytest.approx(3.0 + 2.0 * math.sqrt(2.0), rel=1e-14)
    f_qinf = SpaceParams(0.0, 2.0, math.inf, 1, "besov")
    # q = inf: max over the per-scale sums 3 and sqrt(5).
    assert besov_norm(s, f_qinf) == pytest.approx(3.0, rel=1e-14)


@given(seq_strategy(max_size=10), st.floats(-1.5, 1.5), st.floats(0.4, 4.0))
def test_aggregated_equals_per_scale_at_matching_exponents(s, smooth, p):
    """The two space kinds coincide when inner and outer exponents match."""
    f_t = SpaceParams(smooth, p, p, 1, "tl")
    f_b = SpaceParams(smooth, p, p, 1, "besov")
    assert tl_norm(s, f_t) == pytest.approx(besov_norm(s, f_b), rel=1e-11)


@given(seq_strategy(max_size=10))
def test_space_norm_dispatches(s):
    f_t = SpaceParams(0.3, 1.5, 2.0, 1, "tl")
    f_b = SpaceParams(0.3, 1.5, 2.0, 1, "besov")
    assert space_norm(s, f_t) == tl_norm(s, f_t)
    assert space_norm(s, f_b) == besov_norm(s, f_b)


def test_space_norm_checks_dimension():
    s = CoeffSeq({Cube(0, (0, 0)): 1.0})
    with pytest.raises(ContractViolationError):
        space_norm(s, SpaceParams(0.0, 2.0, 2.0, 1, "tl"))


def test_empty_sequence_norms_are_zero():
    empty = CoeffSeq({})
    assert tl_norm(empty, SpaceParams(0.0, 2.0, 2.0, 1, "tl")) == 0.0
    assert besov_norm(empty, SpaceParams(0.0, 2.0, 2.0, 1, "besov")) == 0.0


def test_atom_norm_closed_form_unit_atoms():
    f = SpaceParams(0.75, 1.3, 2.6, 2, "tl")
    cube = Cube(4, (7, -2))
    got = tl_norm(CoeffSeq.unit(cube, -2.5), f)
    assert got == pytest.approx(2.5 * cube.volume_power(f.atom_exponent), rel=1e-13)


def test_identity_check_explicit_case():
    s = CoeffSeq({Q0: 1.0, Q1: 0.5, Q2: -0.25})
    f2 = SpaceParams(0.6, 2.0, 2.0, 1, "tl")
    lhs, rhs, ok = lorentz_equals_besov_check(s, 0.2, 1.5, f2, 1.7)
    assert ok
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_identity_check_reduces_to_weighted_sum():
    """With matched exponents both routes equal a weighted tau-sum directly."""
    s = CoeffSeq({Q0: 1.0, Q1: 0.5})
    s1, p1, tau = 0.2, 1.5, 1.7
    f2 = SpaceParams(0.6, 2.0, 2.0, 1, "tl")
    d = 1
    alpha = p1 * ((f2.s - s1) / d - 1.0 / f2.p) + 1.0
    gamma = s1 + d * (1.0 / tau - 1.0 / p1) * (1.0 - alpha)
    u = AtomWeights(f2)
    direct = math.fsum(
        (u(q) * abs(v)) ** tau * q.volume_power(alpha) for q, v in s.items()
    ) ** (1.0 / tau)
    besov_side = besov_norm(s, SpaceParams(gamma, tau, tau, d, "besov"))
    assert besov_side == pytest.approx(direct, rel=1e-12)
    lorentz_side = lorentz_norm(
        s,
        MeasureSpec(alpha),
        LorentzParams(
            WeightFn.power(tau), mu=tau, xi=0.0, u=u
        ),
    )
    assert lorentz_side == pytest.approx(direct, rel=1e-12)


def test_norms_reuse_the_parameter_and_volume_tables(monkeypatch):
    """Counted: ``SpaceParams`` holds its per-volume powers and the unit
    volumes are one shared table, so a second norm over the same volumes
    makes no ``pow2`` call, and gives the same value.  On 2 000 cubes the
    per-scale norm, its suffix pass and the knapsack weights make no
    per-cube ``VolumePowers`` call and one ``pow2`` per scale at most."""
    from restapprox import dyadic

    calls = []
    pow2 = dyadic.pow2
    monkeypatch.setattr(dyadic, "pow2", lambda e: calls.append(e) or pow2(e))
    s = CoeffSeq({Cube(j, (k,)): 1.0 + j - 0.3 * k for j in range(-2, 4) for k in (0, 1)})
    tl = SpaceParams(0.3, 1.5, 2.0, 1, "tl")
    besov = SpaceParams(0.3, 1.5, 2.0, 1, "besov")
    first = (tl_norm(s, tl), besov_norm(s, besov))
    assert calls
    calls.clear()
    assert (tl_norm(s, tl), besov_norm(s, besov)) == first
    assert calls == []
    # 2 000 cubes over the 11 scales 0-10: each per-scale pass takes one atom
    # power per scale, not one per cube.
    big = CoeffSeq({Cube(i % 11, (i,)): 1.0 + i / 7 for i in range(2000)})
    cubes, values = list(big), list(big.values())
    per_cube = _counted_calls(monkeypatch, (VolumePowers, "__call__"))
    for run in (
        lambda params: besov_norm(big, params),
        lambda params: suffix_norms(big, params, cubes[::-1]),
        lambda params: approx._additive_weights(cubes, values, params),
    ):
        calls.clear()
        run(SpaceParams(0.3, 1.5, 1.5, 1, "besov"))
        assert per_cube == {"VolumePowers.__call__": 0}
        assert 0 < len(calls) <= 11


@pytest.mark.parametrize("between", [0, 200])
def test_the_first_scale_of_s_past_the_float_range_raises(between):
    """Cube(2500) comes first in s and Cube(-2600) last; at s = 0 and p = 1
    their atom powers 2^-1250 and 2^1300 both leave ``pow2``'s range.  The
    per-scale norm, its suffix pass and the knapsack weights raise for the
    first of them in the order of s, not in scale order, with or without
    200 cubes at scale 3 between them; so does the rearrangement at alpha =
    0.5, whose masses are the same powers, on its loop and on its columns."""
    s = CoeffSeq({
        Cube(2500, (0,)): 1.0,
        **{Cube(3, (k,)): 1.0 + k for k in range(between)},
        Cube(-2600, (0,)): 2.0,
    })
    cubes = list(s)
    for run in (
        lambda params: besov_norm(s, params),
        lambda params: suffix_norms(s, params, cubes[::-1]),
        lambda params: approx._additive_weights(cubes, list(s.values()), params),
        lambda params: rearrange(s, MeasureSpec(0.5)),
    ):
        with pytest.raises(ScaleRangeError, match=r"^2\^-1250 is outside"):
            run(SpaceParams(0.0, 1.0, 1.0, 1, "besov"))


def _counted_calls(monkeypatch, *methods) -> dict[str, int]:
    """Count calls of each ``(class, name)`` method."""
    calls = {}
    for cls, name in methods:
        key = f"{cls.__name__}.{name}"
        calls[key] = 0
        method = getattr(cls, name)

        def counted(*args, _method=method, _key=key):
            calls[_key] += 1
            return _method(*args)

        monkeypatch.setattr(cls, name, counted)
    return calls


@pytest.mark.parametrize("q", [2.0, math.inf])
def test_tl_norm_reads_values_and_powers_by_preorder_index(monkeypatch, q):
    """Counted: on 2 000 cubes, tl_norm looks up no cube's coefficient or
    volume power one at a time."""
    s = CoeffSeq({Cube(i % 11, (i,)): 1.0 + i / 7 for i in range(2000)})
    params = SpaceParams(0.3, 1.5, q, 1)
    want = tl_norm(s, params)
    calls = _counted_calls(
        monkeypatch, (VolumePowers, "__call__"), (CoeffSeq, "__getitem__")
    )
    assert tl_norm(s, params) == want
    assert calls == {"VolumePowers.__call__": 0, "CoeffSeq.__getitem__": 0}


class _CountingLevels(list):
    """A list of depth levels that records the size of each level taken."""

    def __init__(self, levels):
        super().__init__(levels)
        self.taken: list[int] = []

    def __iter__(self):
        for level in super().__iter__():
            self.taken.append(len(level))
            yield level


@pytest.mark.parametrize("q", [2.0, math.inf])
def test_large_tl_norm_takes_one_numpy_step_per_depth_level(monkeypatch, q):
    """Counted, on the 2 047 cubes of scales 0-10 in [0, 1): the forest on
    int64 keys makes no stack pass, and ``tl_norm`` never reads the parent
    list; its chain pass takes max depth + 1 = 11 numpy steps, one per depth
    level, not one per cube.  A 10-cube family still takes the stack pass."""
    from restapprox import dyadic, spaces

    s = CoeffSeq(
        {Cube(j, (k,)): 1.0 + (7 * k + j) % 11 / 8 for j in range(11) for k in range(1 << j)}
    )
    params = SpaceParams(0.3, 1.5, q, 1)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dyadic, "_INT64_MIN_CUBES", 10**9)
        want = tl_norm(s, params)
    stack_passes = []
    stack_parents = dyadic._stack_parents
    monkeypatch.setattr(
        dyadic, "_stack_parents", lambda *args: stack_passes.append(1) or stack_parents(*args)
    )
    forests = []

    class CountingForest(spaces.ContainmentForest):
        def __init__(self, cubes):
            super().__init__(cubes)
            del self.parent  # the per-cube pass's list: reading it fails
            self.arrays = self.arrays._replace(levels=_CountingLevels(self.arrays.levels))
            forests.append(self)

    monkeypatch.setattr(spaces, "ContainmentForest", CountingForest)
    assert tl_norm(s, params).hex() == want.hex()
    assert stack_passes == []
    [forest] = forests
    assert forest.arrays.levels.taken == [1 << j for j in range(11)]
    dyadic.ContainmentForest(list(s)[:10])
    assert stack_passes == [1]
