"""Cube geometry, measures, and exact piecewise-constant integration."""

from __future__ import annotations

import copy
import math
import pickle
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from restapprox import (
    CoeffSeq,
    ContainmentForest,
    ContractViolationError,
    Cube,
    MeasureSpec,
    ScaleRangeError,
    SpaceParams,
    nu_measure,
    pow2,
    tl_norm,
)
from restapprox import dyadic, spaces
from restapprox.democracy import random_cube_set
from restapprox.dyadic import ExactSum, VolumePowers, log2_floor_ceil
from restapprox.spaces import _tl_batch, _tl_forest_norm

from conftest import cube_strategy
from oracles import contains


def test_pow2_integral_exponents_are_exact():
    assert pow2(0) == 1.0
    assert pow2(10) == 1024.0
    assert pow2(-3) == 0.125
    assert pow2(-1074.0 + 2048) == 2.0**974  # integral but large float input


def test_pow2_fractional():
    assert pow2(0.5) == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert pow2(-0.5) == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-15)


def test_pow2_out_of_range():
    with pytest.raises(ScaleRangeError):
        pow2(1001)
    with pytest.raises(ScaleRangeError):
        pow2(-1200.5)
    with pytest.raises(ScaleRangeError, match="2\\^nan"):  # not a bare ValueError
        pow2(math.nan)


def _exact_log2_floor_ceil(x: float) -> tuple[int, int]:
    f = Fraction(x)
    k = f.numerator.bit_length() - f.denominator.bit_length()
    if Fraction(2) ** k > f:
        k -= 1
    return k, k if f == Fraction(2) ** k else k + 1


def _near_power_of_two(e: int, step: int) -> float:
    """2^e, or its float neighbour below (step -1) or above (step 1)."""
    x = math.ldexp(1.0, e)
    return math.nextafter(x, step * math.inf) if step else x


_powers_of_two_and_neighbours = st.builds(
    _near_power_of_two, st.integers(-1074, 1023), st.sampled_from([-1, 0, 1])
).filter(lambda x: x > 0)


@settings(max_examples=300)
@given(
    st.one_of(
        st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
        st.floats(min_value=5e-324, max_value=2.0**-1022),  # subnormals
        _powers_of_two_and_neighbours,
    )
)
def test_log2_floor_ceil_is_exact(x):
    assert log2_floor_ceil(x) == _exact_log2_floor_ceil(x)


def test_cube_basics():
    q = Cube(2, (3,))
    assert q.d == 1
    assert dyadic.VOLUMES(q) == 0.25
    assert q.volume_power(2.0) == 0.0625
    q2 = Cube(1, (0, -1))
    assert q2.d == 2
    assert dyadic.VOLUMES(q2) == 0.25


def test_cube_hashes_compares_and_orders_as_a_tuple_in_c():
    """A cube is the tuple (j, k, d): no Python-level hash or comparison,
    and no instance dict."""
    for name in ("__hash__", "__eq__", "__lt__"):
        assert getattr(Cube, name) is getattr(tuple, name), name
    assert Cube.__slots__ == ()
    assert not hasattr(Cube(0, (0,)), "__dict__")


def test_cube_takes_integers_only():
    assert Cube(np.int64(3), [np.int32(-1), True]) == Cube(3, (-1, 1))
    assert type(Cube(np.int64(3), (0,)).j) is int
    for j, k in [(1.5, (0,)), (0, (1.5,)), ("3", (0,)), (0, 5), (0, "12")]:
        with pytest.raises(ContractViolationError, match="integers"):
            Cube(j, k)
    with pytest.raises(ContractViolationError, match="non-empty"):
        Cube(0, ())


def test_cube_survives_copy_and_pickle():
    q = Cube(-3, (5, -2))
    for other in (copy.copy(q), copy.deepcopy(q), pickle.loads(pickle.dumps(q))):
        assert type(other) is Cube
        assert (other, hash(other)) == (q, hash(q))
        assert repr(other) == "Cube(j=-3, k=(5, -2))"


def test_cube_containment_one_dimension():
    big = Cube(0, (0,))  # [0, 1)
    small = Cube(2, (3,))  # [0.75, 1)
    assert contains(big, small)
    assert not contains(small, big)
    assert contains(big, big)
    assert not contains(big, Cube(2, (4,)))  # [1, 1.25)


def test_cube_containment_negative_indices():
    big = Cube(-1, (-1,))  # [-2, 0)
    assert contains(big, Cube(0, (-1,)))  # [-1, 0)
    assert contains(big, Cube(3, (-16,)))  # [-2, -1.875)
    assert not contains(big, Cube(0, (0,)))


def test_dimension_mismatch_raises():
    with pytest.raises(ContractViolationError):
        contains(Cube(0, (0,)), Cube(0, (0, 0)))


@given(
    cube=st.one_of(*(cube_strategy(d=d, j_lo=-700, j_hi=700) for d in (1, 2, 3))),
    exponent=st.one_of(
        st.sampled_from([0, 1, 0.0, 1.0, -0.5]),
        st.floats(min_value=-3.0, max_value=3.0),
    ),
)
def test_volume_powers_match_volume_power(cube, exponent):
    """One power per volume gives what each cube computes on its own,
    bit for bit and error for error."""

    def outcome(fn):
        try:
            return repr(fn())
        except ScaleRangeError as exc:
            return str(exc)

    powers = VolumePowers(exponent)
    want = outcome(lambda: cube.volume_power(exponent))
    assert outcome(lambda: powers(cube)) == want
    assert outcome(lambda: powers(cube)) == want  # stored, or raising again
    assert outcome(lambda: MeasureSpec(exponent)(cube)) == want


def test_measure_spec():
    m = MeasureSpec(0.5)
    assert m(Cube(2, (0,))) == 0.5  # (1/4)^(1/2)
    assert MeasureSpec(-1.0)(Cube(1, (0,))) == 2.0
    assert MeasureSpec(0.0)(Cube(7, (3,))) == 1.0
    for alpha in (math.nan, math.inf, -math.inf):
        with pytest.raises(ContractViolationError, match="must be finite"):
            MeasureSpec(alpha)


def test_nu_measure_sums_exactly():
    cubes = [Cube(j, (0,)) for j in range(4)]
    assert nu_measure(cubes, MeasureSpec(1.0)) == 1.0 + 0.5 + 0.25 + 0.125


def _integral(forest: ContainmentForest, values: list[float], q: float = math.inf):
    """``spaces._tl_forest_norm`` at p = 1 and exponent 1: the integral of
    each region's chain sum (finite q) or chain maximum (q = inf) of
    ``values``.  Values that never fall root to leaf are their own chain
    maxima, so at q = inf they are the region constants."""
    return _tl_forest_norm(forest, values, 1.0, SpaceParams(0.0, 1.0, q, 1))


def test_forest_chain_values_and_maxima():
    a, b, c, e = Cube(0, (0,)), Cube(1, (0,)), Cube(2, (1,)), Cube(0, (5,))
    forest = ContainmentForest([a, b, c, e])
    assert forest.cubes == [a, b, c, e]
    assert forest.parent == [-1, 0, 1, -1]
    # The regions a - b, b - c, c and e measure 1/2, 1/4, 1/4 and 1.
    # Chain sums 1, 11, 111, 7:
    assert _integral(forest, [1.0, 10.0, 100.0, 7.0], 1.0) == 0.5 + 2.75 + 27.75 + 7.0
    # chain maxima 1, 10, 100, 7, and then 5, 5, 5, 7:
    assert _integral(forest, [1.0, 10.0, 100.0, 7.0]) == 0.5 + 2.5 + 25.0 + 7.0
    assert _integral(forest, [5.0, 1.0, 2.0, 7.0]) == 2.5 + 1.25 + 1.25 + 7.0


def test_empty_forest():
    forest = ContainmentForest([])
    assert len(forest) == 0
    assert forest.volume_powers(dyadic.VOLUMES) == []
    assert _integral(forest, [], 1.0) == 0.0
    assert _integral(forest, []) == 0.0
    assert forest.subtree_ends() == []


def test_region_integral_by_hand():
    a, b = Cube(0, (0,)), Cube(1, (0,))  # [0,1) with child [0,0.5)
    forest = ContainmentForest([b, a])
    assert forest.cubes == [a, b]
    # 2 on [0.5, 1), 5 on [0, 0.5): chain maxima of 2 and 5, or sums of 2, 3
    assert _integral(forest, [2.0, 5.0]) == 2.0 * 0.5 + 5.0 * 0.5
    assert _integral(forest, [2.0, 3.0], 1.0) == 2.0 * 0.5 + 5.0 * 0.5


@pytest.mark.parametrize(
    "cubes, constants",
    [
        ([Cube(-1000, (0,))], [1e100]),  # 1e100 * 2^1000 overflows
        ([Cube(-1000, (0,)), Cube(-999, (0,))], [1e100, 1e100]),  # inf - inf
        ([Cube(0, (0,)), Cube(0, (1,))], [1.7e308, 1.7e308]),  # the sum overflows
    ],
)
def test_region_integral_past_the_float_range_raises(cubes, constants):
    with pytest.raises(ScaleRangeError, match="region integral"):
        _integral(ContainmentForest(cubes), constants)


@st.composite
def nested_families(draw, d: int, max_shift: int) -> list[Cube]:
    """A few cubes anywhere (negative j and k included), plus descendants of
    them up to ``max_shift`` scales finer, some just outside their base."""
    family = draw(
        st.lists(cube_strategy(d=d, j_lo=-3, j_hi=3, k_span=4), min_size=1, max_size=6)
    )
    for _ in range(draw(st.integers(0, 12))):
        base = draw(st.sampled_from(family))
        shift = draw(st.integers(1, max_shift))
        offsets = draw(st.lists(st.integers(-1, 3), min_size=d, max_size=d))
        k = tuple((c << shift) + min(o, (1 << shift) - 1) for c, o in zip(base.k, offsets))
        family.append(Cube(base.j + shift, k))
    return family


def single_scale_grids(d: int) -> st.SearchStrategy[list[Cube]]:
    return st.integers(-6, 6).flatmap(
        lambda j: st.lists(cube_strategy(d=d, j_lo=j, j_hi=j, k_span=5), min_size=1)
    )


def _tightest_container(cube: Cube, family: set[Cube]) -> Cube | None:
    """Independent oracle: the finest other cube of the family containing ``cube``."""
    containers = [q for q in family if q != cube and contains(q, cube)]
    return max(containers, key=lambda q: q.j, default=None)


def _assert_regions_nonnegative(forest: ContainmentForest) -> None:
    """Each region (cube minus its children) has exact non-negative measure,
    in integer units of the finest cube volume on the true grid."""
    finest = max(q.j for q in forest.cubes)
    units = [1 << ((finest - q.j) * q.d) for q in forest.cubes]
    regions = units.copy()
    for unit, p in zip(units, forest.parent):
        if p >= 0:
            regions[p] -= unit
    assert min(regions) >= 0


def _assert_forest_matches_oracle(cubes: list[Cube]) -> None:
    family = set(cubes)
    forest = ContainmentForest(cubes)
    _assert_regions_nonnegative(forest)
    assert sorted(forest.cubes) == sorted(family)
    assert len(forest.parent) == len(forest.cubes)
    for i, (cube, p) in enumerate(zip(forest.cubes, forest.parent)):
        parent = None if p == -1 else forest.cubes[p]
        assert parent == _tightest_container(cube, family), cube
        assert -1 <= p < i  # parents come first
    # Each subtree is one run of the preorder: the cube and all it contains.
    for start, end in enumerate(forest.subtree_ends()):
        cube = forest.cubes[start]
        assert set(forest.cubes[start:end]) == {q for q in family if contains(cube, q)}


@pytest.mark.parametrize("d", [1, 2, 3])
@given(data=st.data())
def test_forest_parents_match_brute_oracle(d, data):
    cubes = data.draw(
        st.one_of(nested_families(d, max_shift=5), single_scale_grids(d))
    )
    _assert_forest_matches_oracle(cubes)


@pytest.mark.parametrize("d", [1, 2])
@given(data=st.data())
def test_forest_parents_match_brute_oracle_across_wide_gaps(d, data):
    _assert_forest_matches_oracle(data.draw(nested_families(d, max_shift=10**6)))


def _spread_bits(x: int, d: int) -> int:
    """Bit i of x moved to bit i*d, by writing d - 1 zeros between the
    binary digits."""
    return int(("0" * (d - 1)).join(bin(x)[2:]), 2)


def _per_cube_keys(cubes: list[Cube], levels: dict[int, int]) -> list[int]:
    """The keys of ``_preorder_ranges``, each cube's corner spread on its own."""
    top = max(levels.values())
    roots = [[c >> levels[q.j] for c in q.k] for q in cubes]
    origin = [min(column) for column in zip(*roots)]
    keys = []
    for q in cubes:
        level = levels[q.j]
        code = 0
        for c, o in zip(q.k, origin):
            code = (code << 1) | _spread_bits((c - (o << level)) << (top - level), q.d)
        keys.append((code << top.bit_length()) | level)
    return keys


@pytest.mark.parametrize("d, max_shift", [(2, 5), (3, 5), (2, 10**6), (3, 10**6)])
@given(data=st.data())
def test_morton_keys_equal_the_per_cube_spread(d, max_shift, data):
    cubes = list(
        set(data.draw(st.one_of(nested_families(d, max_shift), single_scale_grids(d))))
    )
    levels = dyadic._capped_levels(cubes)
    keys, _ = dyadic._preorder_ranges(cubes, levels)
    assert keys == _per_cube_keys(cubes, levels)


def _ranges_both_ways(cubes: list[Cube]):
    """The Python keys and ends, and ``_int64_ranges``' keys and ends (None
    where it declines, or where ``_int64_columns`` does)."""
    keys, ends = dyadic._preorder_ranges(cubes, dyadic._capped_levels(cubes))
    columns = dyadic._int64_columns(cubes)
    ranges = None if columns is None else dyadic._int64_ranges(*columns)
    return keys, ends, ranges


def _assert_arrays_match_the_stack_pass(keys: list[int], ends: list[int]) -> None:
    """``_array_parents`` on the int64 form of ``keys`` and ``ends`` gives the
    preorder of ``sorted`` and the parents of ``_stack_parents``, and its
    depth levels list each depth's preorder indices, ascending."""
    arrays = dyadic._array_parents(np.array(keys, np.int64), np.array(ends, np.int64))
    order = sorted(range(len(keys)), key=keys.__getitem__)
    parent = dyadic._stack_parents(order, keys, ends)
    assert arrays.order.tolist() == order
    assert arrays.parent.tolist() == parent
    depth: list[int] = []
    levels: list[list[int]] = [[] for _ in parent]
    for i, p in enumerate(parent):
        depth.append(0 if p < 0 else depth[p] + 1)
        levels[depth[i]].append(i)
    assert [level.tolist() for level in arrays.levels] == levels[: max(depth) + 1]


@pytest.mark.parametrize("d, max_shift", [(1, 5), (2, 5), (3, 5), (1, 40), (2, 40), (3, 40)])
@given(data=st.data())
def test_int64_keys_equal_the_python_keys(d, max_shift, data):
    """``_int64_ranges`` gives ``_preorder_ranges``' keys and ends exactly
    when they all fit in 62 bits, and declines otherwise; there
    ``_array_parents`` gives the stack pass's forest, and the forest is the
    oracle's."""
    cubes = list(
        dict.fromkeys(
            data.draw(st.one_of(nested_families(d, max_shift), single_scale_grids(d)))
        )
    )
    keys, ends, ranges = _ranges_both_ways(cubes)
    assert (ranges is not None) == (max(map(abs, keys + ends)) < 2**62)
    if ranges is not None:
        got_keys, got_ends = ranges
        assert got_keys.tolist() == keys and got_ends.tolist() == ends
        _assert_arrays_match_the_stack_pass(keys, ends)
    _assert_forest_matches_oracle(cubes)


@pytest.mark.parametrize("cubes", [
    [Cube(0, (0,)), Cube(1, (0,))],  # a child right after its parent
    [Cube(1, (0,)), Cube(0, (0,)), Cube(2, (1,)), Cube(1, (1,)), Cube(0, (5,))],
    [Cube(0, (0, 0)), Cube(1, (1, 1)), Cube(2, (3, 3)), Cube(2, (0, 0))],
])
def test_array_parents_by_hand(cubes):
    """Hand families on the int64 forest: the parents and depth levels of
    the stack pass, on keys that ``_int64_ranges`` takes."""
    keys, ends, ranges = _ranges_both_ways(cubes)
    assert ranges is not None
    _assert_arrays_match_the_stack_pass(keys, ends)


_ORACLE_VALUES = st.sampled_from(
    [3.0, 3.0, 1.0, 0.5, -3.0, 5e-324, -1e-310, 1e300, -1.7e308]
) | st.floats(-1e3, 1e3)


@st.composite
def _norm_cases(draw):
    """A family, nearly always with keys that fit int64, at scales shifted
    by up to +-1 002 so that some volumes leave ``pow2``'s range; values
    tied, subnormal, near the float limit or plain; an ``s`` that may push
    the scale factors out of range too; p, and q finite or inf."""
    d = draw(st.integers(1, 3))
    base = draw(st.sampled_from([0, 0, 0, -1002, 998, -400]))
    cubes = draw(st.one_of(nested_families(d, max_shift=5), single_scale_grids(d)))
    cubes = [Cube(q.j + base, q.k) for q in dict.fromkeys(cubes)]
    values = draw(st.lists(_ORACLE_VALUES, min_size=len(cubes), max_size=len(cubes)))
    smooth = draw(st.sampled_from([0.0, -0.5 * d, 250.0, -250.0]) | st.floats(-2.0, 2.0))
    p = draw(st.sampled_from([0.5, 1.0, 1.5, 3.0]))
    q = draw(st.sampled_from([p, 2.0, math.inf]))
    return CoeffSeq(dict(zip(cubes, values))), d, smooth, p, q


def _hex_or_error(norm) -> str:
    try:
        return norm().hex()
    except Exception as error:  # the type and text are compared
        return f"{type(error).__name__}: {error}"


@settings(max_examples=200)
@given(_norm_cases())
def test_array_forest_and_norms_equal_the_list_kernels(case):
    """On every family whose keys fit int64, ``_array_parents`` gives the
    stack pass's forest; and ``tl_norm`` with ``_INT64_MIN_CUBES`` at 1,
    where every such family takes the batched kernel, gives the list
    kernel's norm by ``float.hex``, or the same error type and text."""
    s, d, smooth, p, q = case
    keys, ends, ranges = _ranges_both_ways(list(s)) if s else ([], [], None)
    if ranges is not None:
        _assert_arrays_match_the_stack_pass(keys, ends)

    def outcome(min_cubes: int) -> str:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(spaces, "_INT64_MIN_CUBES", min_cubes)
            return _hex_or_error(lambda: tl_norm(s, SpaceParams(smooth, p, q, d)))

    assert outcome(1) == outcome(10**9)


def _counted_key_builders(monkeypatch) -> dict[str, int]:
    """Calls of the two key builders: ``_int64_ranges`` as ``spaces`` calls
    it, and ``_preorder_ranges`` as ``ContainmentForest`` calls it."""
    calls = {"_preorder_ranges": 0, "_int64_ranges": 0}
    for name, module in zip(calls, (dyadic, spaces)):
        builder = getattr(module, name)

        def counted(*args, _builder=builder, _name=name):
            calls[_name] += 1
            return _builder(*args)

        monkeypatch.setattr(module, name, counted)
    return calls


def _far_family(corner: int) -> list[Cube]:
    """Cubes of scales 0..14 inside [corner, corner + 1), nested and not."""
    return [
        Cube(j, ((corner << j) + r,))
        for j in range(15)
        for r in {0, (1 << j) - 1, (5 * j) % (1 << j)}
    ]


@pytest.mark.parametrize("corner, bits, path", [
    (2**44 - 2, 62, "_int64_ranges"),  # the last range ends at (2^44 - 1) 2^18
    (2**44 - 1, 63, "_preorder_ranges"),  # ... and here at 2^62
])
def test_int64_keys_stop_at_62_bits(monkeypatch, corner, bits, path):
    """``_int64_ranges`` takes keys of 62 bits and declines at 63; either
    way the forest is the oracle's, and ``tl_norm`` tries the int64 keys
    once and takes the list kernel (its ``_preorder_ranges``) only where
    they decline."""
    cubes = list(dict.fromkeys(_far_family(corner)))
    keys, ends, ranges = _ranges_both_ways(cubes)
    assert max(map(abs, keys + ends)).bit_length() == bits
    assert (ranges is None) == (path == "_preorder_ranges")
    if ranges is not None:
        assert ranges[0].tolist() == keys and ranges[1].tolist() == ends
    _assert_forest_matches_oracle(cubes)
    monkeypatch.setattr(spaces, "_INT64_MIN_CUBES", 1)
    calls = _counted_key_builders(monkeypatch)
    tl_norm(CoeffSeq(dict.fromkeys(cubes, 1.0)), SpaceParams(0.0, 1.5, 2.0, 1))
    assert calls["_int64_ranges"] == 1  # tried, and taken or declined
    assert calls["_preorder_ranges"] == (path == "_preorder_ranges")


@pytest.mark.parametrize("cubes, tried", [
    # positions of 2^63, past int64, and of 2^62: _int64_columns declines
    ([Cube(0, (2**63,)), Cube(1, (0,))], 0),
    ([Cube(0, (2**62,)), Cube(1, (0,))], 0),
    # at d = 2, positions 2^40 apart need Morton codes of 80 bits
    ([Cube(0, (0, 0)), Cube(0, (2**40, 0))], 1),
    # at d = 2, codes of 2 * 31 bits and a tie bit pass 62 bits
    ([Cube(0, (0, 0)), Cube(1, (0, 0)), Cube(0, (2**29, 0))], 1),
    # ... and here the last key has 63 bits, and its end 64, past int64
    ([Cube(0, (0, 0)), Cube(1, (2**31 - 1, 2**31 - 1))], 1),
])
def test_int64_keys_decline_to_the_python_keys(monkeypatch, cubes, tried):
    """The int64 columns or keys decline, so ``tl_norm`` at
    ``_INT64_MIN_CUBES`` 1 takes the Python keys, and the forest there is
    the oracle's."""
    assert (dyadic._int64_columns(cubes) is None) == (tried == 0)
    assert _ranges_both_ways(cubes)[2] is None
    monkeypatch.setattr(spaces, "_INT64_MIN_CUBES", 1)
    calls = _counted_key_builders(monkeypatch)
    s = CoeffSeq(dict.fromkeys(cubes, 1.0))
    tl_norm(s, SpaceParams(0.0, 1.5, 2.0, cubes[0].d))
    assert calls == {"_preorder_ranges": 1, "_int64_ranges": tried}
    _assert_forest_matches_oracle(cubes)


def test_key_path_follows_family_size_and_key_width(monkeypatch):
    """Counted: ``tl_norm`` of a dense 4 000-cube d = 2 family takes the int64
    keys, and of a 10-cube family and a family spanning 900 scales the
    Python keys of a ``ContainmentForest``."""
    calls = _counted_key_builders(monkeypatch)

    def norm(cubes: list[Cube]) -> float:
        params = SpaceParams(0.0, 1.5, 2.0, cubes[0].d)
        return tl_norm(CoeffSeq(dict.fromkeys(cubes, 1.0)), params)

    dense = random_cube_set(np.random.default_rng(7), 4000, 2, 0, 7)
    norm(dense)
    assert calls == {"_preorder_ranges": 0, "_int64_ranges": 1}
    _assert_regions_nonnegative(ContainmentForest(dense))
    calls.update(dict.fromkeys(calls, 0))
    norm(random_cube_set(np.random.default_rng(7), 10, 1, 0, 5))
    coarse = [Cube(j, (k,)) for j in range(8) for k in range(0, 1 << j, 3)]
    fine = [Cube(900 - j, (k * 37 << (890 - j),)) for j in range(10) for k in range(20)]
    norm(coarse + fine)
    assert calls == {"_preorder_ranges": 2, "_int64_ranges": 0}


def test_region_integral_reads_a_volume_only_where_a_term_uses_it():
    """A cube past pow2's volume range raises only if one of its region
    terms is nonzero, as when each volume was looked up on use."""
    forest = ContainmentForest([Cube(-1001, (0,)), Cube(0, (0,))])
    assert _integral(forest, [0.0, 3.0]) == 3.0
    with pytest.raises(ScaleRangeError, match="2\\^1001"):
        _integral(forest, [1.0, 3.0])


def _batch_integral(cubes: list[Cube], values: list[float], q: float = math.inf):
    """``spaces._tl_batch`` of one family at p = 1 and exponent 1: the
    integral of ``_integral``, or None where the batch declines."""
    j, k = dyadic._int64_columns(cubes)
    sizes = np.array([dyadic.VOLUMES.at_scales([c.j], 1)[0] for c in cubes])
    bounds = np.array([0, len(cubes)])
    norms = _tl_batch(j, k, bounds, np.array(values), 1.0, sizes, math.isinf(q), [1.0])
    return None if norms is None else norms[0]


def test_region_integrals_by_hand_on_depth_levels():
    """The hand cases above on the batched kernel, which runs one depth
    level at a time on int64 arrays: chain sums and maxima; a volume past
    pow2's range where a term uses it, and an integral past the float range,
    make it decline, for the per-family loop to raise."""
    a, b, c, e = Cube(0, (0,)), Cube(1, (0,)), Cube(2, (1,)), Cube(0, (5,))
    assert _batch_integral([a, b, c, e], [1.0, 10.0, 100.0, 7.0], 1.0) == (
        0.5 + 2.75 + 27.75 + 7.0
    )
    assert _batch_integral([c, e, b, a], [100.0, 7.0, 10.0, 1.0]) == 0.5 + 2.5 + 25.0 + 7.0
    assert _batch_integral([a, b, c, e], [5.0, 1.0, 2.0, 7.0]) == 2.5 + 1.25 + 1.25 + 7.0
    # Volume 2^-1001 is past pow2's range; a zero root there has no term.
    far = [Cube(1001, (0,)), Cube(995, (1,))]
    assert _batch_integral(far, [0.0, 3.0]) == 3.0 * 2.0**-995
    assert _batch_integral(far, [1.0, 3.0]) is None
    assert _batch_integral([Cube(-1000, (0,)), Cube(-999, (0,))], [1e100, 1e100]) is None
    # A finite term past 2^960 (here 2^970) declines too: an fsum of such
    # terms could overflow in one order and not in another.
    huge = [Cube(-1000, (0,)), Cube(-999, (0,))]
    assert _batch_integral(huge, [2.0**-30, 1.0]) is None
    assert _batch_integral(huge, [2.0**-50, 2.0**-40]) == 2.0**950 + 2.0**959 - 2.0**949


def test_forest_build_compares_key_ranges_not_cubes(monkeypatch):
    """The build sorts and nests int keys: no cube is ordered through
    ``Cube.__lt__`` (and ``Cube`` has no containment test to call)."""
    cubes = random_cube_set(np.random.default_rng(5), 1000, 2, -2, 6)
    s = CoeffSeq({q: 1.0 + i for i, q in enumerate(cubes)})

    def refuse(q, other):
        raise AssertionError("cubes compared through Cube.__lt__")

    monkeypatch.setattr(Cube, "__lt__", refuse)
    forest = ContainmentForest(cubes)
    assert len(forest) == 1000
    for q in (2.0, math.inf):
        assert tl_norm(s, SpaceParams(0.5, 1.5, q, 2)) > 0


def test_forest_across_a_huge_gap_under_many_coarse_cubes():
    coarse = [Cube(0, (k,)) for k in range(-100, 100)]
    fine = [Cube(10**7, (0,)), Cube(10**7, (-1,)), Cube(10**7 + 5, (3,))]
    forest = ContainmentForest(coarse + fine)
    parents = {
        q: None if p == -1 else forest.cubes[p]
        for q, p in zip(forest.cubes, forest.parent)
    }
    assert parents[fine[0]] == Cube(0, (0,))
    assert parents[fine[1]] == Cube(0, (-1,))
    assert parents[fine[2]] == fine[0]
    assert forest.parent.count(-1) == len(coarse)


ADVERSARIAL_FLOATS = st.one_of(
    st.sampled_from(
        [1e300, -1e300, 1e-300, -1e-300, 2.0**-900, -(2.0**-900), 1.0, -1.0,
         1.0 + 2.0**-52, 2.0**53, 5e-324, 0.0, -0.0, 1.7e308, -1.7e308]
    ),
    st.floats(allow_nan=False, allow_infinity=False),
)


WITH_SPECIALS = st.one_of(
    ADVERSARIAL_FLOATS, st.sampled_from([math.inf, -math.inf, math.nan])
)


def _outcome(thunk):
    try:
        return repr(thunk())  # repr tells -0.0 from 0.0
    except (OverflowError, ValueError) as exc:
        return type(exc).__name__


def _exact_outcome(xs: list[float]) -> str:
    """ExactSum's contract on finite terms, from Fractions: the exact sum
    rounded once (int true division), or OverflowError past the float
    range."""
    return _outcome(lambda: float(sum(map(Fraction, xs), Fraction(0))))


def _assert_every_prefix_is_fsum(xs: list[float]) -> None:
    """Every add gives fsum of the finite terms so far, except where fsum
    raises its history-dependent "intermediate overflow": there the exact
    oracle.  An inf term raises OverflowError and a nan term ValueError, and
    neither enters the sum."""
    total = ExactSum()
    finite: list[float] = []
    for x in xs:
        if math.isfinite(x):
            finite.append(x)
            want = _outcome(lambda: math.fsum(finite))
            if want == "OverflowError":
                want = _exact_outcome(finite)
        else:
            want = "ValueError" if math.isnan(x) else "OverflowError"
        assert _outcome(lambda: total.add(x)) == want


@given(st.lists(ADVERSARIAL_FLOATS, max_size=60))
def test_exact_sum_rounds_every_prefix_as_fsum(xs):
    _assert_every_prefix_is_fsum(xs)


@given(st.lists(WITH_SPECIALS, max_size=60))
def test_exact_sum_rejects_inf_and_nan_terms(xs):
    _assert_every_prefix_is_fsum(xs)


def test_exact_sum_raises_on_inf_and_nan_and_comes_back_in_range():
    big = sys.float_info.max
    total = ExactSum()
    assert total.add(big) == big
    with pytest.raises(OverflowError):
        total.add(math.inf)
    with pytest.raises(ValueError):
        total.add(math.nan)
    with pytest.raises(OverflowError):
        total.add(big)  # the sum, 2 * big, is past the float range
    assert total.value == big
    assert total.add(-big) == big  # back in range: no sticky overflow


def test_exact_sum_rounds_where_fsum_overflows_in_its_partials():
    big = sys.float_info.max
    xs = [-(big - 2.0**971), 2.0**969, 2.0**968, 2.0**968, big]
    with pytest.raises(OverflowError):
        math.fsum(xs)
    assert _exact_outcome(xs) == repr(3 * 2.0**970)
    _assert_every_prefix_is_fsum(xs)


def test_exact_sum_memory_stays_flat():
    """10^5 adds over 61 binades retain a few bytes, not one slot per term."""
    total = ExactSum()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(100_000):
            total.add(math.ldexp(1.0 + i / 7, -(i % 61)))
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 4096


@pytest.mark.parametrize(
    "xs",
    [
        [1.0, math.inf, 2.0, -1.0],
        [math.inf, -math.inf, 1.0],
        [1.0, math.nan, 2.0],
        [1.7e308, 1.7e308, -1.7e308],
        [-0.0, -0.0],
        [2.0**-900, 1.0, -1.0],
        [1e16, 1.0, 1.0, -1e16],
        [math.inf, 1.7e308, 1.7e308],
        [1.7e308, math.inf, 1.7e308],
        [math.nan, 1.7e308, 1.7e308],
        [math.inf, -math.inf, 1.7e308, 1.7e308],
    ],
)
def test_exact_sum_keeps_fsum_special_cases(xs):
    """fsum's special cases: inf and nan terms, which ExactSum rejects, and
    sums that pass the float range and come back, which it does not latch."""
    _assert_every_prefix_is_fsum(xs)


def test_forest_rejects_mixed_dimensions():
    with pytest.raises(ContractViolationError):
        ContainmentForest([Cube(0, (0,)), Cube(0, (0, 0))])

