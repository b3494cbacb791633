"""Indicator-functional comparisons across structured cube families."""

from __future__ import annotations

import math
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from restapprox import democracy, spaces
from restapprox import (
    CapabilityError,
    CoeffSeq,
    ContainmentForest,
    ContractViolationError,
    Cube,
    DemocracyCase,
    GammaFamily,
    MeasureSpec,
    ScaleRangeError,
    SpaceParams,
    admissible_spread,
    democracy_ratio_sweep,
    democracy_value,
    divergence_exponent,
    nu_measure,
    predicted_admissible,
    random_cube_set,
)

from oracles import contains


def _case(s1=0.0, p1=1.7, q1=1.7, s2=0.3, p2=2.0, q2=2.0, d=1, alpha=None):
    f1 = SpaceParams(s1, p1, q1, d, "tl")
    f2 = SpaceParams(s2, p2, q2, d, "besov")
    case = DemocracyCase(f1, f2, 0.0 if alpha is None else alpha)
    if alpha is None:
        case = DemocracyCase(f1, f2, case.formula_alpha)
    return case


def test_case_exponents_by_hand():
    case = _case(s1=0.0, p1=1.7, s2=0.3, p2=2.0)
    assert case.coefficient_exponent == pytest.approx(0.3 - 0.5, rel=1e-15)
    assert case.formula_alpha == pytest.approx(1.7 * (-0.2) + 1.0, rel=1e-14)
    assert case.d == 1
    assert isinstance(case.measure, MeasureSpec)


def test_case_validation():
    f_b = SpaceParams(0.0, 2.0, 2.0, 1, "besov")
    f_t = SpaceParams(0.0, 2.0, 2.0, 1, "tl")
    with pytest.raises(ContractViolationError):
        DemocracyCase(f_b, f_b, 1.0)
    with pytest.raises(ContractViolationError):
        DemocracyCase(f_t, SpaceParams(0.0, 2.0, 2.0, 2, "besov"), 1.0)
    # A nan alpha would pass the formula test and read as admissible at p1 == q1.
    with pytest.raises(ContractViolationError, match="must be finite"):
        DemocracyCase(f_t, f_b, math.nan)


def test_predicted_admissible_truth_table():
    matched = _case()
    assert predicted_admissible(matched).ok
    off = DemocracyCase(matched.f1, matched.f2, matched.formula_alpha + 0.1)
    verdict = predicted_admissible(off)
    assert not verdict.ok
    assert "differs" in verdict.reason
    # e == 0 pushes the matching exponent to 1, where the aggregation
    # exponents must agree for nested towers to stay comparable.
    balanced = _case(s1=0.0, p1=1.7, q1=1.7, s2=0.5, p2=2.0)
    assert balanced.formula_alpha == pytest.approx(1.0, abs=1e-15)
    assert predicted_admissible(balanced).ok
    skew = _case(s1=0.0, p1=1.2, q1=2.8, s2=0.5, p2=2.0)
    verdict = predicted_admissible(skew)
    assert not verdict.ok
    assert "p1" in verdict.reason


def test_family_counts():
    assert GammaFamily("grid", 3, L=2, d=2).count == 9
    assert GammaFamily("tower", 4, d=1).count == 15  # 1 + 2 + 4 + 8
    assert GammaFamily("tower", 3, d=2).count == 21  # 1 + 4 + 16
    assert GammaFamily("row", 7, d=2).count == 7


def test_family_validation():
    with pytest.raises(ContractViolationError):
        GammaFamily("ladder", 3)
    with pytest.raises(ContractViolationError):
        GammaFamily("grid", 0)
    with pytest.raises(ContractViolationError):
        GammaFamily("grid", 3, L=3)
    with pytest.raises(ContractViolationError):
        GammaFamily("tower", 3, L=2)
    with pytest.raises(ContractViolationError):
        GammaFamily("row", 3, L=2)
    case = _case(s1=0.2, p1=1.6, q1=2.3, s2=0.7, p2=1.9, q2=3.1, d=2, alpha=0.8)
    with pytest.raises(ContractViolationError, match="dimensions differ"):
        GammaFamily("row", 3, d=1).closed_form_value(case)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize(
    "tag, N, L", [("grid", 3, 1), ("grid", 4, 8), ("tower", 4, 1), ("row", 5, 1)]
)
def test_generate_equals_validated_cubes(tag, N, L, d):
    """``generate`` builds its cubes with ``Cube.from_columns``: each equals
    the validated ``Cube(j, k)`` of the family's definition, in order, with
    the same type, fields and hash."""
    if tag == "grid":
        expected = [Cube(1 - L.bit_length(), k) for k in product(range(N), repeat=d)]
    elif tag == "tower":
        expected = [
            Cube(j, k) for j in range(N) for k in product(range(1 << j), repeat=d)
        ]
    else:
        expected = [Cube(0, (i,) + (0,) * (d - 1)) for i in range(N)]
    cubes = GammaFamily(tag, N, L=L, d=d).generate()
    assert isinstance(cubes, tuple) and list(cubes) == expected
    for cube, want in zip(cubes, expected):
        assert type(cube) is Cube and tuple(cube) == tuple(want)
        assert hash(cube) == hash(want) and type(cube.j) is int


def test_generate_shapes():
    grid = GammaFamily("grid", 2, L=2, d=2).generate()
    assert len(grid) == 4
    assert all(q.j == -1 and q.d == 2 for q in grid)
    tower = GammaFamily("tower", 3, d=1).generate()
    assert len(tower) == 7
    assert sorted({q.j for q in tower}) == [0, 1, 2]
    row = GammaFamily("row", 4, d=3).generate()
    assert [q.k[0] for q in row] == [0, 1, 2, 3]
    assert all(q.j == 0 for q in row)


@pytest.mark.parametrize(
    "fam",
    [
        GammaFamily("grid", 4, L=2, d=1),
        GammaFamily("grid", 3, L=1, d=2),
        GammaFamily("tower", 4, d=1),
        GammaFamily("tower", 3, d=2),
        GammaFamily("row", 6, d=1),
        GammaFamily("row", 4, d=2),
    ],
)
def test_closed_forms_match_direct_evaluation(fam):
    case = _case(s1=0.2, p1=1.6, q1=2.3, s2=0.7, p2=1.9, q2=3.1, d=fam.d, alpha=0.8)
    cubes = fam.generate()
    assert len(cubes) == fam.count
    assert democracy_value(cubes, case) == pytest.approx(
        fam.closed_form_value(case), rel=1e-12
    )
    for alpha in (0.8, 1.0, 1.3):
        assert nu_measure(cubes, MeasureSpec(alpha)) == pytest.approx(
            fam.closed_form_mass(alpha), rel=1e-12
        )


@pytest.mark.parametrize("s2", [1.2, -0.3])
def test_tower_sup_aggregation_closed_form(s2):
    # q1 = inf: the deepest chain dominates, in either direction of e.
    fam = GammaFamily("tower", 4, d=1)
    case = _case(s1=0.2, p1=1.6, q1=math.inf, s2=s2, p2=2.0, d=1, alpha=1.0)
    got = democracy_value(fam.generate(), case)
    assert got == pytest.approx(fam.closed_form_value(case), rel=1e-12)


def test_generate_cap():
    fam = GammaFamily("tower", 10, d=2)
    assert fam.count == (4**10 - 1) // 3
    with pytest.raises(CapabilityError):
        fam.generate()
    # closed forms keep working far beyond the materialization cap
    case = _case(d=2)
    assert fam.closed_form_value(case) > 0.0
    assert fam.closed_form_mass(1.0) > 0.0


def test_closed_forms_past_the_float_range_are_typed_errors():
    # At s1 = 64, s2 = -64 the tower's sum of 2^(-d e q1 j) passes the float
    # range at N = 4; at alpha = -200 so does its mass at N = 8.
    case = _case(s1=64.0, p1=1.5, q1=2.2, s2=-64.0, p2=2.5, q2=3.0)
    assert GammaFamily("tower", 2).closed_form_value(case) > 0.0
    with pytest.raises(ScaleRangeError, match="closed form"):
        GammaFamily("tower", 4).closed_form_value(case)
    with pytest.raises(ScaleRangeError, match="closed form"):
        GammaFamily("tower", 8).closed_form_mass(-200.0)


def test_sweep_switches_sources():
    case = _case()
    fam = GammaFamily("grid", 3, L=1, d=1)
    big = GammaFamily("row", democracy._SWEEP_DIRECT_MAX + 1)
    direct, closed = democracy_ratio_sweep(case, [fam, big])
    assert direct.source == "direct"
    assert closed.source == "closed-form"

    def closed_ratio(family: GammaFamily) -> float:
        mass = family.closed_form_mass(case.alpha)
        return family.closed_form_value(case) / mass ** (1.0 / case.f1.p)

    assert direct.ratio == pytest.approx(closed_ratio(fam), rel=1e-12)
    assert closed.ratio == closed_ratio(big)
    assert direct.count == 3


def test_divergence_slope_admissible_is_flat():
    case = _case(s1=0.0, p1=1.7, q1=1.7, s2=0.5, p2=2.0)  # e = 0, alpha = 1
    slope, rows = divergence_exponent(case, [4, 8, 16, 32])
    assert abs(slope) < 1e-9
    assert {r.family for r in rows} == {"tower", "row"}


def test_divergence_slope_matches_exponent_gap():
    case = _case(s1=0.0, p1=1.2, q1=2.8, s2=0.5, p2=2.0, alpha=1.0)
    slope, _ = divergence_exponent(case, [4, 8, 16, 32])
    assert slope == pytest.approx(abs(1.0 / 2.8 - 1.0 / 1.2), abs=1e-9)


def test_divergence_needs_two_sizes():
    with pytest.raises(ContractViolationError):
        divergence_exponent(_case(), [8])


def test_random_cube_set_properties():
    rng = np.random.default_rng(0)
    box = Cube(-2, (0, 0))
    cubes = random_cube_set(rng, 25, 2, -2, 3)
    assert len(cubes) == len(set(cubes)) == 25
    assert all(-2 <= q.j <= 3 for q in cubes)
    assert all(contains(box, q) for q in cubes)
    with pytest.raises(ContractViolationError):
        random_cube_set(rng, 3, 1, 2, 1)
    with pytest.raises(ContractViolationError):
        random_cube_set(rng, 10, 1, 0, 0)  # only one cube exists in the window
    with pytest.raises(ContractViolationError):
        random_cube_set(rng, 3, 0, 0, 2)  # cubes need a position vector
    state = rng.bit_generator.state
    with pytest.raises(ContractViolationError, match="count must be >= 0"):
        random_cube_set(rng, -1, 1, 0, 2)
    assert random_cube_set(rng, 0, 1, 0, 2) == []
    assert rng.bit_generator.state == state


def _random_cube_set_oracle(rng, count, d, j_min, j_max):
    """The per-attempt loop ``random_cube_set`` replays: two numpy calls per
    attempt, kept as the reference for its cubes and generator state."""
    if j_max < j_min:
        raise ContractViolationError("need j_min <= j_max")
    seen = set()
    attempts = 0
    while len(seen) < count:
        attempts += 1
        if attempts > 200 * count + 1000:
            raise ContractViolationError(
                "cube window too small for the requested count"
            )
        j = int(rng.integers(j_min, j_max + 1))
        span = 1 << (j - j_min)
        k = tuple(int(v) for v in rng.integers(0, span, size=d))
        seen.add(Cube(j, k))
    return sorted(seen)


def _plain(state):
    """A generator state with its arrays (MT19937's key) as lists."""
    if isinstance(state, dict):
        return {key: _plain(value) for key, value in state.items()}
    return state.tolist() if isinstance(state, np.ndarray) else state


def _outcome(draw, rng, *window):
    try:
        result = draw(rng, *window)
    except ContractViolationError as exc:
        result = str(exc)
    return result, _plain(rng.bit_generator.state)


_GENERATORS = {
    "pcg64": lambda seed: np.random.default_rng([seed, 3]),
    "mt19937": lambda seed: np.random.Generator(np.random.MT19937(seed)),
    "philox": lambda seed: np.random.Generator(np.random.Philox(seed)),
}

# (count, d, j_min, j_max): the windows of criterion 3 (d = 1 and 2),
# criterion 5 and the comparison suites, a d = 3 window, windows holding
# exactly ``count`` cubes (they need more words than the first block), a
# window with positions wider than 32 bits, families on either side of
# ``_REPLAY_MIN_CUBES`` at d = 1 to 3, a deep d = 3 window whose families
# replay but whose keys of 7 families pass 62 bits (``_DECLINED``), and the
# three error cases (the attempt cap once without draws and once after many).
_DECLINED = (30, 3, 0, 18)
_WINDOWS = [
    (30, 1, -2, 5),
    (60, 1, -2, 5),
    (30, 2, -2, 5),
    (60, 2, -2, 5),
    (14, 1, -2, 2),
    (16, 1, -4, 8),
    (64, 1, -4, 8),
    (40, 3, -1, 2),
    (7, 1, 0, 2),
    (63, 1, -3, 2),
    (12, 2, -3, 40),
    (15, 1, 0, 3),
    (1, 1, -3, 4),
    (7, 1, -3, 4),
    (8, 1, -3, 4),
    (7, 2, -3, 4),
    (8, 2, -3, 4),
    (7, 3, -2, 5),
    (8, 3, -2, 5),
    _DECLINED,
    (3, 1, 2, 1),
    (10, 1, 0, 0),
    (5, 1, 0, 1),
]


@pytest.mark.parametrize("generator", sorted(_GENERATORS))
def test_random_cube_set_replays_the_per_attempt_draws(generator):
    for seed in range(6):
        fast, slow = _GENERATORS[generator](seed), _GENERATORS[generator](seed)
        for window in _WINDOWS:
            # One generator runs through every window, so each window starts
            # from wherever the previous one left it, odd half words included.
            assert _outcome(random_cube_set, fast, *window) == _outcome(
                _random_cube_set_oracle, slow, *window
            ), (seed, window)


class _CountingGenerator:
    """A generator that counts its ``integers`` calls."""

    def __init__(self, rng):
        self._rng = rng
        self.bit_generator = rng.bit_generator
        self.calls = 0

    def integers(self, *args, **kwargs):
        self.calls += 1
        return self._rng.integers(*args, **kwargs)


def test_random_cube_set_makes_a_few_numpy_calls_per_family():
    rng = _CountingGenerator(np.random.default_rng([17, 3]))
    for _ in range(50):
        before = rng.calls
        random_cube_set(rng, 60, 2, -2, 5)
        assert rng.calls - before <= 3


class _WordsGenerator:
    """Stands in for a generator whose next 32-bit words are ``words``, then
    ``12345`` over and over (a word no range below 2^16 rejects)."""

    def __init__(self, words):
        self.words = list(words)
        self.bit_generator = self

    @property
    def state(self):
        return {"words": list(self.words)}

    @state.setter
    def state(self, saved):
        self.words = saved["words"]

    def integers(self, low, high, size, dtype):
        assert (low, high, dtype) == (0, 1 << 32, np.uint64)
        taken, self.words = self.words[:size], self.words[size:]
        return np.array(taken + [12345] * (size - len(taken)), dtype=np.uint64)


def test_random_cube_set_rejects_words_as_numpy_does(monkeypatch):
    """Lemire's rule for range r: with m = word * r, a word is rejected iff
    m mod 2^32 < (2^32 - r) mod r, else the draw is m >> 32.  Real streams hit
    a rejection about once in 2^32 / r words, so the words are given here,
    and one-cube families are replayed."""
    monkeypatch.setattr(democracy, "_REPLAY_MIN_CUBES", 1)
    # j in [0, 4]: r = 5 and (2^32 - 5) mod 5 == 1, so only a word w with
    # 5 * w = 0 mod 2^32 is rejected.  Word 0 is; word `high` gives j = 3.
    high = ((1 << 32) * 3) // 5 + 1
    k_word = (5 << 29) + 1  # its top 3 bits give k = 5 at j = 3
    rng = _WordsGenerator([0, high, k_word, 99])
    assert random_cube_set(rng, 1, 1, 0, 4) == [Cube(3, (5,))]
    assert rng.words == [99]  # exactly the three words used are consumed
    # j in [0, 7]: r = 8 and (2^32 - 8) mod 8 == 0, so word 0 is taken (j = 0,
    # which takes no word for k).
    rng = _WordsGenerator([0, 99])
    assert random_cube_set(rng, 1, 1, 0, 7) == [Cube(0, (0,))]
    assert rng.words == [99]


def test_admissible_spread_is_bounded():
    case = _case(s1=0.0, p1=2.0, q1=2.0, s2=0.5, p2=2.0)  # e = 0, alpha = 1
    mn, mx = admissible_spread(case, np.random.default_rng(7), 5, 30)
    assert 0.2 < mn <= mx < 5.0


def test_admissible_spread_needs_families_and_cubes():
    case = _case()
    rng = np.random.default_rng(7)
    state = rng.bit_generator.state
    with pytest.raises(ContractViolationError, match="n_sets must be >= 1"):
        admissible_spread(case, rng, 0, 30)
    with pytest.raises(ContractViolationError, match="cube_count must be >= 1"):
        admissible_spread(case, rng, 5, 0)
    assert rng.bit_generator.state == state


def _spread_oracle(case, rng, n_sets, count, j_min, j_max):
    """The per-family loop ``admissible_spread`` replaces, drawing each family
    with the per-attempt calls."""
    ratios = []
    for _ in range(n_sets):
        cubes = _random_cube_set_oracle(rng, count, case.d, j_min, j_max)
        value = democracy_value(cubes, case)
        mass = nu_measure(cubes, case.measure)
        ratios.append(value / mass ** (1.0 / case.f1.p))
    return min(ratios), max(ratios)


def _spread_outcome(spread, case, rng, *args):
    """The bounds as ``float.hex`` or the error's type and text, and the
    generator's state afterwards."""
    try:
        result = tuple(x.hex() for x in spread(case, rng, *args))
    except (ArithmeticError, ValueError) as exc:
        result = (type(exc).__name__, str(exc))
    return result, _plain(rng.bit_generator.state)


@pytest.mark.parametrize("generator", sorted(_GENERATORS))
def test_admissible_spread_matches_the_per_family_loop(generator, monkeypatch):
    """Every window against the loop; on ``_DECLINED`` at 7 families the
    int64 keys decline, and the families are handed to the loop."""
    declined = []
    ranges = spaces._int64_ranges

    def spy(j, k):
        result = ranges(j, k)
        declined.append(result is None)
        return result

    monkeypatch.setattr(spaces, "_int64_ranges", spy)
    assert democracy._replays(7, *_DECLINED[1:])
    for seed in range(3):
        fast, slow = _GENERATORS[generator](seed), _GENERATORS[generator](seed)
        for i, (count, d, j_min, j_max) in enumerate(_WINDOWS):
            q1 = math.inf if i % 3 == 2 else 2.3
            case = _case(s1=0.2, p1=1.6, q1=q1, s2=0.7, p2=1.9, q2=3.1, d=d)
            for n_sets in (1, 7):
                args = (n_sets, count, j_min, j_max)
                declined.clear()
                assert _spread_outcome(admissible_spread, case, fast, *args) == (
                    _spread_outcome(_spread_oracle, case, slow, *args)
                ), (seed, count, d, j_min, j_max, n_sets)
                if (count, d, j_min, j_max) == _DECLINED and n_sets == 7:
                    assert declined == [True], seed


def _family_codes(families, d, depth):
    """``_draw_families``' codes of the given (level, position) families."""
    codes = []
    for f, family in enumerate(families):
        for level, k in family:
            code = f * (depth + 1) + level
            for x in k:
                code = (code << depth) | x
            codes.append(code)
    return codes


@pytest.mark.parametrize("q1", [2.3, math.inf])
def test_family_ratios_score_families_whose_preorders_interleave(q1):
    """With no cube at window levels 0 and 1, ``_int64_ranges`` shifts the
    roots by a position that is not a multiple of a family box's width, and
    the two families' cubes alternate in the forest's preorder; each family
    still gets its own terms and masses."""
    depth, j_min = 3, -1
    families = [
        [(2, (1, 0)), (3, (6, 4))],
        [(2, (0, 0)), (3, (2, 0))],
    ]
    case = _case(s1=0.2, p1=1.6, q1=q1, s2=0.7, p2=1.9, q2=3.1, d=2, alpha=0.4)
    codes = _family_codes(families, 2, depth)
    table = democracy._level_table(case, j_min, depth)
    ratios = democracy._family_ratios(codes, len(families), case, depth, table)
    expected = []
    for family in families:
        cubes = [Cube(j_min + level, k) for level, k in family]
        mass = nu_measure(cubes, case.measure)
        expected.append(democracy_value(cubes, case) / mass ** (1.0 / case.f1.p))
    assert ratios == expected


@settings(max_examples=80, deadline=None)
@given(
    d=st.integers(1, 3),
    s1=st.floats(-1.0, 1.0),
    p1=st.floats(0.05, 4.0),
    q1=st.one_of(st.floats(0.3, 4.0), st.just(math.inf)),
    s2=st.floats(-1.0, 1.0),
    p2=st.floats(0.5, 4.0),
    alpha=st.one_of(
        st.floats(-3.0, 3.0),
        st.floats(-200.0, 200.0),
        st.floats(allow_nan=False, allow_infinity=False),
    ),
    n_sets=st.integers(1, 8),
    count=st.integers(1, 40),
    j_min=st.integers(-4, 2),
    depth=st.integers(0, 6),
    seed=st.integers(0, 2**32 - 1),
)
# b_Q = 2^(j (s1 - s2 + d/p2)) passes the float range at j = 6: the level
# table declines, and the loop raises.
@example(d=1, s1=100.0, p1=1.5, q1=math.inf, s2=-100.0, p2=2.0, alpha=0.0,
         n_sets=2, count=8, j_min=2, depth=6, seed=1)
# b_Q = 2^300 at j = 8 is finite, and its power p1 = 4 is not.
@example(d=1, s1=20.0, p1=4.0, q1=math.inf, s2=-17.0, p2=2.0, alpha=0.0,
         n_sets=2, count=8, j_min=2, depth=6, seed=1)
def test_admissible_spread_matches_the_loop_on_any_case(
    d, s1, p1, q1, s2, p2, alpha, n_sets, count, j_min, depth, seed
):
    case = _case(s1=s1, p1=p1, q1=q1, s2=s2, p2=p2, d=d, alpha=alpha)
    args = (n_sets, count, j_min, j_min + depth)
    fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
    assert _spread_outcome(admissible_spread, case, fast, *args) == (
        _spread_outcome(_spread_oracle, case, slow, *args)
    )


def test_admissible_spread_rejects_words_as_numpy_does():
    """Two one-cube families in j in [0, 4] (r = 5, where word 0 is
    rejected), read from given words; see
    ``test_random_cube_set_rejects_words_as_numpy_does``."""
    high = ((1 << 32) * 3) // 5 + 1  # j = 3
    low = (1 << 32) // 5 + 1  # j = 1
    words = [0, high, (5 << 29) + 1, 0, 0, low, (1 << 31) + 7, 99]
    rng = _WordsGenerator(words)
    case = _case(s1=0.2, p1=1.6, q1=2.3, s2=0.7, p2=1.9, d=1)
    ratios = [
        democracy_value([q], case) / nu_measure([q], case.measure) ** (1.0 / 1.6)
        for q in (Cube(3, (5,)), Cube(1, (1,)))
    ]
    assert admissible_spread(case, rng, 2, 1, 0, 4) == (min(ratios), max(ratios))
    assert rng.words == [99]


def test_admissible_spread_hands_a_family_out_of_range_to_the_loop(monkeypatch):
    """At p1 = 0.05 and alpha = 60, a family holding only Cube(3, (5,)) has
    mass 2^-180, whose 20th power is 0: the loop divides by zero there, after
    a first family Cube(0, (0,)) of ratio 1.  The spread raises that error,
    with the second family's words taken and no more.  The loop replays its
    one-cube family, which takes the given words."""
    monkeypatch.setattr(democracy, "_REPLAY_MIN_CUBES", 1)
    high = ((1 << 32) * 3) // 5 + 1
    rng = _WordsGenerator([1, 0, high, (5 << 29) + 1, 99])
    case = _case(s1=0.2, p1=0.05, q1=2.3, s2=0.7, p2=1.9, d=1, alpha=60.0)
    with pytest.raises(ZeroDivisionError):
        admissible_spread(case, rng, 2, 1, 0, 4)
    assert rng.words == [99]


def test_admissible_spread_builds_no_cube_and_draws_in_blocks(monkeypatch):
    """Counted: a spread on criterion 3's window builds no Cube, CoeffSeq or
    ContainmentForest, one at a time or in bulk, scores its families with
    one batched norm (``spaces._tl_batch``) and one ``_array_parents`` call,
    and makes as many ``integers`` calls for 80 families as for 10: one
    block and one sync."""
    built = {"Cube": 0, "CoeffSeq": 0, "ContainmentForest": 0}
    kernels = {"_array_parents": 0, "_tl_batch": 0}
    for name, module in zip(kernels, (spaces, democracy)):
        kernel = getattr(module, name)

        def counted_kernel(*args, name=name, kernel=kernel):
            kernels[name] += 1
            return kernel(*args)

        monkeypatch.setattr(module, name, counted_kernel)

    def count_init(cls):
        init = cls.__init__

        def counted(self, *args, **kwargs):
            built[cls.__name__] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)

    count_init(CoeffSeq)
    count_init(ContainmentForest)
    new, from_columns = Cube.__new__, Cube.from_columns.__func__
    from_clean = CoeffSeq._from_clean.__func__

    def counted_new(cls, *args):
        built["Cube"] += 1
        return new(cls, *args)

    def counted_from_columns(cls, js, ks):
        built["Cube"] += len(ks)
        return from_columns(cls, js, ks)

    def counted_from_clean(cls, entries):
        built["CoeffSeq"] += 1
        return from_clean(cls, entries)

    monkeypatch.setattr(Cube, "__new__", counted_new)
    monkeypatch.setattr(Cube, "from_columns", classmethod(counted_from_columns))
    monkeypatch.setattr(CoeffSeq, "_from_clean", classmethod(counted_from_clean))
    case = _case(s1=0.2, p1=1.6, q1=2.3, s2=0.7, p2=1.9, q2=3.1, d=2)
    calls = []
    for n_sets in (10, 80):
        rng = _CountingGenerator(np.random.default_rng([17, 3]))
        admissible_spread(case, rng, n_sets, 60, -2, 5)
        calls.append(rng.calls)
        assert kernels == {"_array_parents": 1, "_tl_batch": 1}
        kernels.update(dict.fromkeys(kernels, 0))
    assert built == {"Cube": 0, "CoeffSeq": 0, "ContainmentForest": 0}
    assert calls == [2, 2]
    # The counters see the per-family loop's builds.
    democracy_value(random_cube_set(np.random.default_rng(1), 5, 2, -2, 5), case)
    assert built == {"Cube": 5, "CoeffSeq": 1, "ContainmentForest": 1}


def test_case_builds_its_measure_and_atom_weights_once(monkeypatch):
    """Counted: every family a case evaluates shares one MeasureSpec and one
    AtomWeights, and so their per-volume power caches."""
    built = {"MeasureSpec": 0, "AtomWeights": 0}

    def counting(cls):
        def build(*args):
            built[cls.__name__] += 1
            return cls(*args)

        return build

    for name in built:
        monkeypatch.setattr(democracy, name, counting(getattr(democracy, name)))
    f1 = SpaceParams(0.0, 2.0, 2.0, 1, "tl")
    case = DemocracyCase(f1, SpaceParams(0.5, 2.0, 2.0, 1, "besov"), 1.0)
    assert built == {"MeasureSpec": 1, "AtomWeights": 1}
    admissible_spread(case, np.random.default_rng(7), 5, 30)
    fam = GammaFamily("grid", 4, L=2, d=1)
    value = democracy_value(fam.generate(), case)
    assert built == {"MeasureSpec": 1, "AtomWeights": 1}
    assert value == pytest.approx(fam.closed_form_value(case), rel=1e-12)
    # The cached fields take no part in equality or repr.
    assert case == _case(s1=0.0, p1=2.0, q1=2.0, s2=0.5, p2=2.0)
    assert "measure" not in repr(case)
