"""Democracy functionals: norms of normalized indicator sequences.

For a finite cube family, the functional evaluates the aggregated norm of the
sequence with entries 1/u(Q), where u(Q) is the atom weight of a second
space.  Democracy holds for a measure exponent alpha exactly when that value
is comparable to (mass of the family)^(1/p) uniformly over families; the
matching alpha is p1 * e + 1 with per-cube exponent e = (s2 - s1)/d - 1/p2,
and alpha = 1 additionally requires p1 == q1.

Structured families with closed-form values and masses (disjoint grids,
nested towers, same-scale rows) make both the matching and the failure modes
testable at sizes far beyond what can be materialized.

Random families are drawn in bulk.  ``admissible_spread`` draws all its
families from one block series of the generator's 32-bit words, on any
window of 2 to 33 scales whose per-level values are finite floats.  It
places them side by side as one forest on the forest's int64 keys
(``dyadic._int64_ranges``, ``dyadic._array_parents``) and scores every
family with the aggregated norm's depth-level pass (``spaces._level_terms``),
with no cube, sequence or forest object per family.  The oracle, run on
every other window, on keys past 62 bits, and kept as the tier-1 reference,
is the per-family loop of ``random_cube_set``, ``democracy_value`` and
``nu_measure``; the bulk path gives its ratios bit for bit and leaves the
generator in its state.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

import numpy as np

from .dyadic import VOLUMES, Cube, MeasureSpec, nu_measure, pow2
from .dyadic import _array_parents, _int64_ranges
from .errors import CapabilityError, ContractViolationError, finite
from .lorentz import CoeffSeq
from .spaces import AtomWeights, SpaceParams, _recip, matched_exponents, tl_norm
from .spaces import _level_terms, _tl_terms_root

__all__ = [
    "DemocracyCase",
    "Admissibility",
    "GammaFamily",
    "SweepRow",
    "predicted_admissible",
    "democracy_value",
    "democracy_ratio_sweep",
    "divergence_exponent",
    "admissible_spread",
    "random_cube_set",
]

_MATERIALIZE_CAP = 1 << 18
_SWEEP_DIRECT_MAX = 4096
_FAMILY_TAGS = ("grid", "tower", "row")


@dataclass(frozen=True)
class DemocracyCase:
    """Norm space ``f1``, weight space ``f2``, and measure exponent ``alpha``.

    The cube measure and the atom weights of ``f2`` are built once per case,
    so their per-volume power caches serve every family the case evaluates.
    """

    f1: SpaceParams
    f2: SpaceParams
    alpha: float
    measure: MeasureSpec = field(init=False, repr=False, compare=False)
    atom_weights: AtomWeights = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.f1.kind != "tl":
            raise ContractViolationError("f1 must be of the aggregated kind")
        if self.f1.d != self.f2.d:
            raise ContractViolationError("f1 and f2 must share the dimension")
        object.__setattr__(self, "measure", MeasureSpec(self.alpha))
        object.__setattr__(self, "atom_weights", AtomWeights(self.f2))

    @property
    def d(self) -> int:
        return self.f1.d

    @property
    def coefficient_exponent(self) -> float:
        """Exponent e with |Q|^e the aggregated coefficient of one indicator."""
        return (self.f2.s - self.f1.s) / self.d - _recip(self.f2.p)

    @property
    def formula_alpha(self) -> float:
        """The unique candidate measure exponent, p1 * e + 1: the alpha of
        ``matched_exponents``, which does not depend on tau."""
        return matched_exponents(self.f1.s, self.f1.p, self.f2, self.f1.p)[0]


class Admissibility(NamedTuple):
    ok: bool
    reason: str


def predicted_admissible(case: DemocracyCase) -> Admissibility:
    """Whether the case's alpha makes the indicator functional democratic.

    Requires alpha == p1 * e + 1; when that value is 1 (equivalently e == 0),
    the nested-tower families additionally force p1 == q1.
    """
    target = case.formula_alpha
    if abs(case.alpha - target) > 1e-9 * max(1.0, abs(target)):
        return Admissibility(
            False,
            f"alpha={case.alpha!r} differs from the matching exponent "
            f"p1*e+1={target!r}",
        )
    if abs(case.alpha - 1.0) > 1e-12:
        return Admissibility(True, "alpha matches the formula and alpha != 1")
    if case.f1.p == case.f1.q:
        return Admissibility(True, "alpha == 1 and p1 == q1")
    return Admissibility(
        False,
        f"alpha == 1 requires p1 == q1, got p1={case.f1.p!r}, q1={case.f1.q!r}",
    )


def democracy_value(cubes: Iterable[Cube], case: DemocracyCase) -> float:
    """Aggregated norm of the indicator sequence with entries 1/u(Q)."""
    seq = CoeffSeq.indicator(cubes, case.atom_weights)
    return tl_norm(seq, case.f1)


@dataclass(frozen=True)
class GammaFamily:
    """A structured cube family with closed-form value and mass.

    Tags: "grid" (N^d disjoint cubes of side L at scale -log2 L), "tower"
    (every cube of scales 0..N-1 inside the unit cube), "row" (N unit cubes
    along the first axis).
    """

    tag: str
    N: int
    L: int = 1
    d: int = 1

    def __post_init__(self) -> None:
        if self.tag not in _FAMILY_TAGS:
            raise ContractViolationError(f"tag must be one of {_FAMILY_TAGS}")
        if self.N < 1 or self.d < 1:
            raise ContractViolationError("N and d must be >= 1")
        if self.L < 1 or self.L & (self.L - 1):
            raise ContractViolationError("L must be a power of two")
        if self.tag != "grid" and self.L != 1:
            raise ContractViolationError("only grids take a side length L")

    @property
    def count(self) -> int:
        if self.tag == "grid":
            return self.N**self.d
        if self.tag == "tower":
            j_count = 1 << self.d
            return self.N if j_count == 1 else ((j_count**self.N - 1) // (j_count - 1))
        return self.N

    def generate(self) -> tuple[Cube, ...]:
        if self.count > _MATERIALIZE_CAP:
            raise CapabilityError(
                f"family holds {self.count} cubes; at most {_MATERIALIZE_CAP} "
                "can be materialized — use the closed forms"
            )
        if self.tag == "grid":
            j = -(self.L.bit_length() - 1)
            return tuple(
                Cube(j, k) for k in itertools.product(range(self.N), repeat=self.d)
            )
        if self.tag == "tower":
            return tuple(
                Cube(j, k)
                for j in range(self.N)
                for k in itertools.product(range(1 << j), repeat=self.d)
            )
        return tuple(
            Cube(0, (i,) + (0,) * (self.d - 1)) for i in range(self.N)
        )

    def closed_form_mass(self, alpha: float) -> float:
        """Total measure with exponent alpha, exactly."""
        if self.tag == "grid":
            side_exp = self.L.bit_length() - 1
            return pow2(side_exp * self.d * alpha) * float(self.N**self.d)
        if self.tag == "tower":
            return _dyadic_geometric_sum(self.d * (1.0 - alpha), self.N)
        return float(self.N)

    def closed_form_value(self, case: DemocracyCase) -> float:
        """The democracy functional, exactly, from the family structure."""
        if case.d != self.d:
            raise ContractViolationError("case and family dimensions differ")
        e = case.coefficient_exponent
        p1, q1 = case.f1.p, case.f1.q
        if self.tag == "grid":
            side_exp = self.L.bit_length() - 1
            return pow2(side_exp * self.d * (e + 1.0 / p1)) * self.N ** (
                self.d / p1
            )
        if self.tag == "tower":
            # Only the deepest-scale regions are nonempty; each carries the
            # full chain of ancestors and the regions tile the unit cube.
            if math.isinf(q1):
                return max(1.0, pow2(-(self.N - 1) * self.d * e))
            return _dyadic_geometric_sum(-self.d * e * q1, self.N) ** (1.0 / q1)
        return self.N ** (1.0 / p1)


def _dyadic_geometric_sum(exponent: float, n: int) -> float:
    """Sum of 2^(exponent * j) for j = 0..n-1, stable near exponent = 0."""
    if exponent == 0.0:
        return float(n)
    log_ratio = exponent * math.log(2.0)
    return finite(
        lambda: math.expm1(n * log_ratio) / math.expm1(log_ratio),
        "a closed form exceeds the float range",
    )


@dataclass(frozen=True)
class SweepRow:
    """One evaluated family: its measure, value, and normalized ratio."""

    family: str
    N: int
    L: int
    d: int
    count: int
    nu_alpha: float
    value: float
    ratio: float
    source: str


def democracy_ratio_sweep(
    case: DemocracyCase, families: Iterable[GammaFamily]
) -> list[SweepRow]:
    """Evaluate value / mass^(1/p1) per family.

    Families of at most ``_SWEEP_DIRECT_MAX`` cubes are materialized and
    evaluated through the norm machinery; larger ones use the closed forms.
    """
    rows = []
    for fam in families:
        if fam.count <= _SWEEP_DIRECT_MAX:
            cubes = fam.generate()
            value = democracy_value(cubes, case)
            mass = nu_measure(cubes, case.measure)
            source = "direct"
        else:
            value = fam.closed_form_value(case)
            mass = fam.closed_form_mass(case.alpha)
            source = "closed-form"
        rows.append(
            SweepRow(
                family=fam.tag,
                N=fam.N,
                L=fam.L,
                d=fam.d,
                count=fam.count,
                nu_alpha=mass,
                value=value,
                ratio=value / mass ** (1.0 / case.f1.p),
                source=source,
            )
        )
    return rows


def divergence_exponent(
    case: DemocracyCase, n_values: Iterable[int]
) -> tuple[float, list[SweepRow]]:
    """Log-log growth rate of the tower/row ratio spread in the family size.

    For each N the spread is the max/min ratio over the nested tower and the
    disjoint row; the returned exponent is the least-squares slope of
    log(spread) against log(N).  Admissible cases give slope ~0; the
    alpha == 1, p1 != q1 failure gives slope |1/q1 - 1/p1|.
    """
    sizes = sorted(set(n_values))
    if len(sizes) < 2:
        raise ContractViolationError("need at least two sizes to fit a slope")
    rows: list[SweepRow] = []
    spreads = []
    for n in sizes:
        fams = [
            GammaFamily("tower", n, d=case.d),
            GammaFamily("row", n, d=case.d),
        ]
        batch = democracy_ratio_sweep(case, fams)
        rows.extend(batch)
        ratios = [row.ratio for row in batch]
        spreads.append(max(ratios) / min(ratios))
    slope = float(
        np.polyfit(np.log(np.asarray(sizes, float)), np.log(np.asarray(spreads)), 1)[0]
    )
    return slope, rows


_WORD = 1 << 32
_CAP_MESSAGE = "cube window too small for the requested count"
# A family with a region term beyond this goes to the per-family loop, so
# that a norm past the float range raises the loop's own error.  Below it,
# no partial of the family's fsum can overflow.
_TERM_LIMIT = 2.0**960


def _attempt_cap(count: int) -> int:
    """Attempts after which ``random_cube_set`` gives up on ``count`` cubes."""
    return 200 * count + 1000


class _Words:
    """A generator's 32-bit words, taken in blocks and given back unused.

    ``rng.integers(0, 2^32, size=n, dtype=np.uint64)`` returns the next n
    words of the stream that numpy's bounded draws read, a cached half word
    of PCG64 included.  ``sync(used)`` puts the generator back to the state
    saved before the first block and takes exactly ``used`` words, so that
    it ends where drawing only those words would have left it.
    """

    def __init__(self, rng: np.random.Generator, chunk: int):
        self.rng = rng
        self.words = np.empty(0, dtype=np.uint64)
        self._chunk = chunk
        self._state: dict | None = None

    def fetch(self) -> None:
        """Append the next block of words to ``words``."""
        if self._state is None:
            self._state = self.rng.bit_generator.state
        block = self.rng.integers(0, _WORD, size=self._chunk, dtype=np.uint64)
        self.words = np.concatenate([self.words, block])
        self._chunk *= 2

    def sync(self, used: int) -> None:
        """Keep only the first ``used`` words drawn, and empty ``words``."""
        if self._state is not None:
            self.rng.bit_generator.state = self._state
            if used:
                self.rng.integers(0, _WORD, size=used, dtype=np.uint64)
            self._state = None
        self.words = np.empty(0, dtype=np.uint64)


# Families of fewer cubes run the per-attempt loop: the replay's block decode
# costs about 40 numpy calls, more than two calls per attempt.  Measured
# per-draw times break even at 8 cubes at d = 1, 2 and 3 on scales -3..4 and
# -2..5 (on a 2-core host, about 19 us a cube per attempt against 85-170 us
# a family for a replay).
_REPLAY_MIN_CUBES = 8


def _replays(n_sets: int, d: int, j_min: int, j_max: int) -> bool:
    """Whether ``_draw_families`` serves the window: not one scale only
    (numpy then takes no word), nor more than 33 (positions past one word),
    nor codes of ``n_sets`` families past 2^63."""
    depth = j_max - j_min
    return 1 <= depth <= 32 and (n_sets * (depth + 1)) << (d * depth) <= 1 << 63


def _draw_families(
    block: _Words, n_sets: int, count: int, d: int, depth: int
) -> tuple[list[int], list[int], int | None]:
    """``n_sets`` families of ``random_cube_set``'s window [j_min, j_min +
    depth], drawn one after another from ``block``'s words as its per-attempt
    loop draws them.

    Returns the codes of every family's cubes, the words used up to the end
    of each family, and, when a family meets the attempt cap, the words used
    up to its cap (the families after it are not drawn), else None.  A cube
    at level L (scale j_min + L) with positions k of family f has the code
    ``((f * (depth + 1) + L) << d * depth) | k[0] << (d - 1) * depth | ...
    | k[d - 1]``.

    An attempt at word i reads its level from word i and, at level L > 0,
    each position from the top L bits of words i + 1 ... i + d; a rejected
    level word is read again at i + 1 by the same attempt.  So the attempts
    start on the orbit of word 0 under i -> i + 1 (rejected, or level 0) and
    i -> i + 1 + d (otherwise), which pointer doubling finds in O(log words)
    numpy steps.  Each family ends at the attempt where its ``count``-th
    distinct cube first appears.  When the block runs out first, it takes
    more words and starts over.
    """
    j_range = depth + 1
    bits = d * depth
    threshold = (_WORD - j_range) % j_range
    cap = _attempt_cap(count)
    while True:
        block.fetch()
        n = len(block.words)
        # d zero words past the end, read by a last attempt at level 0.
        words = np.concatenate([block.words, np.zeros(d, dtype=np.uint64)])
        product = words[:n] * j_range
        levels = product >> 32
        accepted = (product & (_WORD - 1)) >= threshold
        # stop[i]: the word after an attempt at i, or the retry of a
        # rejected word; stop[n] is the sink that every jump past the block
        # ends in.
        stop = np.arange(1, n + 2)
        stop[:n][accepted & (levels > 0)] += d
        # jump is i -> stop[i] composed 2^r times, and on marks the first
        # 2^r words of the orbit.
        jump = np.minimum(stop, n)
        on = np.zeros(n + 1, dtype=bool)
        on[0] = True
        while jump[0] < n:
            on[jump[on]] = True
            jump = jump[jump]
        starts = np.flatnonzero(on[:n] & accepted)
        stops = stop[starts].tolist()
        if stops and stops[-1] > n:  # its position words are not drawn yet
            starts, stops = starts[:-1], stops[:-1]
        level = levels[starts]
        keys = level << bits
        shift = 32 - level  # at level 0 a word shifts to 0, as none is read
        for axis in range(d):
            at = starts + (1 + axis)
            keys |= (words[at] >> shift) << ((d - 1 - axis) * depth)
        codes: list[int] = []
        ends: list[int] = []
        seen: set[int] = set()
        first = 0
        for t, key in enumerate(keys.tolist()):
            if t - first == cap:
                return codes, ends, stops[t - 1]
            seen.add(key)
            if len(seen) == count:
                offset = len(ends) * (j_range << bits)
                codes += [offset + cube for cube in seen]
                ends.append(stops[t])
                if len(ends) == n_sets:
                    return codes, ends, None
                seen = set()
                first = t + 1


def _split_codes(
    codes: list[int], d: int, depth: int
) -> tuple[np.ndarray, list[np.ndarray]]:
    """The heads ``f * (depth + 1) + L`` of the codes of ``_draw_families``,
    sorted, and their positions, one array per axis."""
    ordered = np.sort(np.array(codes, dtype=np.uint64))
    mask = (1 << depth) - 1
    axes = [(ordered >> ((d - 1 - axis) * depth)) & mask for axis in range(d)]
    return ordered >> (d * depth), axes


def _cubes_per_attempt(
    rng: np.random.Generator, count: int, d: int, j_min: int, j_max: int
) -> list[Cube]:
    """``random_cube_set`` with two numpy calls per attempt."""
    seen: set[tuple[int, tuple[int, ...]]] = set()
    attempts = 0
    while len(seen) < count:
        attempts += 1
        if attempts > _attempt_cap(count):
            raise ContractViolationError(_CAP_MESSAGE)
        j = int(rng.integers(j_min, j_max + 1))
        seen.add((j, tuple(rng.integers(0, 1 << (j - j_min), size=d).tolist())))
    pairs = sorted(seen)
    return Cube.from_columns([j for j, _ in pairs], [k for _, k in pairs])


def random_cube_set(
    rng: np.random.Generator,
    count: int,
    d: int,
    j_min: int,
    j_max: int,
) -> list[Cube]:
    """Exactly ``count`` distinct cubes with scales in [j_min, j_max], sorted.

    All cubes lie inside the axis box [0, 2^(-j_min))^d, so arbitrary nesting
    between scales can occur.

    Each attempt draws ``j = rng.integers(j_min, j_max + 1)`` and then
    ``k = rng.integers(0, 2^(j - j_min), size=d)``, until ``count`` distinct
    cubes are seen; after ``_attempt_cap(count)`` = 200 * count + 1000
    attempts it raises ContractViolationError.  For a range r <= 2^32
    numpy's bounded draw (Lemire 2019, *Fast Random Integer Generation in an
    Interval*) takes no word when r == 1; otherwise it takes a 32-bit word w,
    rejects it while (w * r) mod 2^32 < (2^32 - r) mod r, and returns
    (w * r) >> 32.  A power of two never rejects, so each coordinate of k
    takes one word, or none at j == j_min.

    A family of at least ``_REPLAY_MIN_CUBES`` cubes in a window of 2 to 33
    scales, with codes below 2^63 (see ``_replays``), is drawn by replaying
    that rule on words taken in blocks: this is the one-family case of the
    draw ``admissible_spread`` makes, a few numpy calls per family.  Smaller
    families and other windows run the two numpy calls per attempt.  Either
    way the cubes and the generator's state afterwards are those of the
    per-attempt calls, so every instance drawn after this family is
    unchanged too.
    """
    if j_max < j_min:
        raise ContractViolationError("need j_min <= j_max")
    if d < 1:
        raise ContractViolationError("cube position vector must be non-empty")
    if count < 0:
        raise ContractViolationError("count must be >= 0")
    if count < _REPLAY_MIN_CUBES or not _replays(1, d, j_min, j_max):
        return _cubes_per_attempt(rng, count, d, j_min, j_max)
    depth = j_max - j_min
    block = _Words(rng, 2 * (d + 1) * count + 32)
    used = 0
    try:
        codes, ends, capped = _draw_families(block, 1, count, d, depth)
        used = ends[0] if capped is None else capped
    finally:
        block.sync(used)
    if capped is not None:
        raise ContractViolationError(_CAP_MESSAGE)
    levels, axes = _split_codes(codes, d, depth)
    js = [j_min + level for level in levels.tolist()]
    return Cube.from_columns(js, list(zip(*(axis.tolist() for axis in axes))))


def _level_table(
    case: DemocracyCase, j_min: int, depth: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Per level L of the window (scale j_min + L): what an indicator cube
    adds to its chain (b_Q^q1, or b_Q for q1 = inf), |Q| and |Q|^alpha, each
    from the tables ``democracy_value`` and ``nu_measure`` read.  None when a
    level's values are not all finite floats."""
    f1, d = case.f1, case.d
    rows = []
    try:
        for level in range(depth + 1):
            jd = (j_min + level) * d
            b = f1.coeff_powers[jd] * abs(float(1.0 / case.f2.atom_powers[jd]))
            chain_in = b if math.isinf(f1.q) else b**f1.q
            rows.append((chain_in, VOLUMES[jd], case.measure.powers[jd]))
    except (ArithmeticError, ValueError):
        return None
    table = np.array(rows)
    if not np.isfinite(table).all():
        return None
    return table[:, 0], table[:, 1], table[:, 2]


def _family_ratios(
    codes: list[int],
    n_families: int,
    case: DemocracyCase,
    depth: int,
    table: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> list[float]:
    """``value / mass^(1/p1)`` per family of ``codes`` (see
    ``_draw_families``), bit for bit as ``democracy_value`` and
    ``nu_measure`` give them; [] when a key passes 62 bits or some family
    would not score, so that the per-family loop raises its own error.

    Family f's cubes at level L are put at f * 2^L on the first axis, inside
    the root box of family f, so no family holds another's cubes and the
    families make one forest on int64 keys (``dyadic._int64_ranges``,
    ``dyadic._array_parents``), whose region terms ``spaces._level_terms``
    gives as for ``tl_norm``: an indicator family's per-cube quantities
    depend only on the level.  The preorder may interleave families (at
    d >= 2 the roots' shift need not keep their boxes aligned), so the terms
    are grouped by family before ``spaces._tl_terms_root``'s order-free
    ``fsum``.  A term past ``_TERM_LIMIT`` declines too.
    """
    chain_in, volume, mass = table
    p = case.f1.p
    maxima = math.isinf(case.f1.q)
    heads, axes = _split_codes(codes, case.d, depth)
    family, level = np.divmod(heads.astype(np.int64), depth + 1)
    k = np.stack(axes, axis=1).astype(np.int64)
    k[:, 0] += family << level
    ranges = _int64_ranges(level, k)
    if ranges is None:
        return []
    arrays = _array_parents(*ranges[1:])
    at = level[arrays.order]
    count = len(codes) // n_families
    exponent = p if maxima else p / case.f1.q
    try:
        terms, kept = _level_terms(arrays, chain_in[at], exponent, maxima, volume[at])
        if (np.abs(terms) > _TERM_LIMIT).any():
            return []
        owner = np.repeat(family[arrays.order], kept.sum(axis=1))
        terms = terms[np.argsort(owner, kind="stable")].tolist()
        bounds = [0, *np.cumsum(np.bincount(owner, minlength=n_families)).tolist()]
        masses = mass[level].tolist()
        return [
            _tl_terms_root(terms[bounds[f] : bounds[f + 1]], p)
            / math.fsum(masses[f * count : (f + 1) * count]) ** (1.0 / p)
            for f in range(n_families)
        ]
    except (ArithmeticError, ValueError):
        return []


def admissible_spread(
    case: DemocracyCase,
    rng: np.random.Generator,
    n_sets: int,
    cube_count: int,
    j_min: int = -3,
    j_max: int = 6,
) -> tuple[float, float]:
    """(min, max) of the normalized ratio over ``n_sets`` random families of
    ``cube_count`` cubes each.

    The oracle is the per-family loop: ``random_cube_set``, then
    ``democracy_value`` over ``nu_measure(...)^(1/p1)``.  On a window that
    ``random_cube_set`` replays in words (2 to 33 scales), with the families'
    codes below 2^63 and every level's values finite, all families are drawn
    from one block series of words (``_draw_families``) and scored as one
    int64 forest by the aggregated norm's level pass (``_family_ratios``),
    building no cube, sequence or forest object.  The ratios are the loop's
    bit for bit, and the generator ends in the loop's state.  Scoring is all
    or nothing: when the forest's keys pass 62 bits or any family's value or
    ratio leaves the float range, every family runs the loop, which raises
    its own error.  From a family that meets the attempt cap on, the
    families run the loop too, and other windows run it throughout.
    """
    if n_sets < 1:
        raise ContractViolationError("n_sets must be >= 1")
    if cube_count < 1:
        raise ContractViolationError("cube_count must be >= 1")
    d = case.d
    depth = j_max - j_min
    table = None
    if _replays(n_sets, d, j_min, j_max):
        table = _level_table(case, j_min, depth)
    ratios: list[float] = []
    if table is not None:
        block = _Words(rng, n_sets * (2 * (d + 1) * cube_count + 32))
        used = 0
        try:
            codes, ends, _ = _draw_families(block, n_sets, cube_count, d, depth)
            if ends:
                ratios = _family_ratios(codes, len(ends), case, depth, table)
            used = ends[len(ratios) - 1] if ratios else 0
        finally:
            block.sync(used)
    for _ in range(n_sets - len(ratios)):
        cubes = random_cube_set(rng, cube_count, d, j_min, j_max)
        value = democracy_value(cubes, case)
        mass = nu_measure(cubes, case.measure)
        ratios.append(value / mass ** (1.0 / case.f1.p))
    return min(ratios), max(ratios)
