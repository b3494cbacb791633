"""Dyadic cubes, cube-set measures, exact sums, and the containment forest of
finite cube families.

A cube with scale ``j`` and integer position vector ``k`` of length ``d`` is
the half-open box ``2^(-j) * ([0,1)^d + k)`` with volume ``2^(-j*d)``.  A
``Cube`` is the tuple ``(j, k, d)``, so cubes are equal, hashed and sorted by
``(j, k)``, as tuples are.  Any two such cubes are either disjoint or nested,
which lets a finite family be organised into a containment forest: the cubes in
preorder plus, for each, the index of its tightest container, so that each
cube's subtree is one run of the preorder.  The preorder comes from one sort of
integer keys: int64 numpy arrays for families of at least ``_INT64_MIN_CUBES``
cubes whose keys fit in 62 bits, Python ints otherwise (small families, and
positions of hundreds of bits across wide scale gaps).  On int64 keys the
parents come from numpy binary searches and the forest also keeps its columns
as arrays, grouped by depth; on Python ints they come from one stack pass.
The forest holds containment only: callers read per-cube values and volume
powers by preorder index, and the aggregated norm's chain and region
arithmetic lives in ``spaces``.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field
from itertools import chain, repeat
from operator import index, itemgetter
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import ContractViolationError, ScaleRangeError

__all__ = [
    "Cube",
    "MeasureSpec",
    "ContainmentForest",
    "pow2",
    "nu_measure",
]

# Exponents beyond this leave the range where 2^e is a normal float (and where
# products |Q|^a stay well conditioned); callers get an explicit error instead
# of silent overflow/underflow.
_MAX_EXP = 1000.0


def pow2(exponent: float) -> float:
    """2**exponent with exact results for integral exponents.

    Raises ScaleRangeError outside the safe exponent range, and for nan.
    """
    if not abs(exponent) <= _MAX_EXP:
        raise ScaleRangeError(
            f"2^{exponent:g} is outside the supported float exponent range"
        )
    n = round(exponent)
    if exponent == n:
        return math.ldexp(1.0, int(n))
    return 2.0**exponent


def log2_floor_ceil(x: float) -> tuple[int, int]:
    """Exact floor and ceil of log2(x) for a positive finite float, subnormals
    included: ``x == m * 2**e`` with 0.5 <= m < 1, and only m == 0.5 is a
    power of two."""
    m, e = math.frexp(x)
    return e - 1, e - 1 if m == 0.5 else e


class Cube(namedtuple("Cube", "j k d")):
    """The dyadic cube ``2^(-j) * ([0,1)^d + k)``, as the tuple ``(j, k, d)``.

    ``j`` may be negative (big cubes); ``k`` components may be negative.
    ``d`` is ``len(k)``, so equality, ordering and hashing, the tuple's, go
    by ``(j, k)``.  ``j`` and each position pass through ``operator.index``:
    ints, bools and numpy ints are taken, anything else is refused.
    """

    __slots__ = ()

    def __new__(cls, j: int, k: Sequence[int]) -> "Cube":
        try:
            j = index(j)
            k = tuple(map(index, k))
        except TypeError:
            raise ContractViolationError(
                f"cube scale and positions must be integers, got {j!r}, {k!r}"
            ) from None
        if not k:
            raise ContractViolationError("cube position vector must be non-empty")
        return tuple.__new__(cls, (j, k, len(k)))

    @classmethod
    def from_columns(
        cls, js: Sequence[int], ks: Sequence[tuple[int, ...]]
    ) -> list["Cube"]:
        """``[Cube(j, k) for j, k in zip(js, ks)]`` with no ``Cube.__new__`` call.
        The caller vouches that ``js`` and ``ks`` are equally long, and that
        each ``k`` is a non-empty tuple of ints."""
        return list(map(tuple.__new__, repeat(cls), zip(js, ks, map(len, ks))))

    def __getnewargs__(self) -> tuple[int, tuple[int, ...]]:
        # Copy and pickle rebuild through __new__, which takes (j, k), not d.
        return self[:2]

    def __repr__(self) -> str:
        return f"Cube(j={self.j!r}, k={self.k!r})"

    def volume_power(self, exponent: float) -> float:
        """|Q|^exponent = 2^(-j*d*exponent), computed in one exponential."""
        return pow2(-self.j * self.d * exponent)

    def __str__(self) -> str:
        return " ".join(str(v) for v in (self.j, *self.k))


class VolumePowers(dict):
    """``|Q|^exponent`` per cube, computed once per volume.

    Calling it on a cube gives ``cube.volume_power(exponent)``.  Every cube of
    scale j and dimension d has the volume 2^(-j*d), so the powers are kept
    by ``j * d`` and a family pays one ``pow2`` per distinct volume instead of
    one per cube.
    """

    def __init__(self, exponent: float):
        super().__init__()
        self.exponent = exponent

    def __call__(self, cube: Cube) -> float:
        return self[cube.j * cube.d]

    def __missing__(self, jd: int) -> float:
        power = self[jd] = pow2(-jd * self.exponent)
        return power

    def at_scales(self, scales: Iterable[int], d: int) -> list[float]:
        """The power of the volume of each scale's cubes at dimension ``d``.
        Where ``pow2`` rejects a volume the list holds ``math.nan`` itself,
        for the caller to raise ``self(cube)``'s ScaleRangeError where it
        uses one."""
        table = []
        for j in scales:
            try:
                table.append(self[j * d])
            except ScaleRangeError:
                table.append(math.nan)
        return table


# |Q| per volume, one table for every caller.  It only memoizes pow2, and
# holds at most 2 001 entries, as pow2 raises past 2^(+-1000).
VOLUMES = VolumePowers(1)


@dataclass(frozen=True)
class MeasureSpec:
    """The measure assigning each cube the mass |Q|^alpha.

    ``alpha = 0`` is the counting measure; ``alpha = 1`` is Lebesgue volume.
    Each mass is computed once per cube volume, in ``powers``.
    """

    alpha: float = 0.0
    powers: VolumePowers = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not math.isfinite(self.alpha):
            raise ContractViolationError("the measure exponent alpha must be finite")
        object.__setattr__(self, "powers", VolumePowers(self.alpha))

    def __call__(self, cube: Cube) -> float:
        return self.powers(cube)


def nu_measure(cubes: Iterable[Cube], measure: MeasureSpec) -> float:
    """Total mass sum_Q |Q|^alpha over the family.

    Uses exact compensated summation (math.fsum), which is order-independent
    and at least as accurate as any fixed summation order.
    """
    return math.fsum(map(measure, cubes))


def exact_ratio(x: float) -> tuple[int, int]:
    """``(num, shift)`` with ``x == num / 2**shift`` exactly, least shift >= 0."""
    num, den = x.as_integer_ratio()
    return num, den.bit_length() - 1


def scaled_ints(values: Iterable[float]) -> tuple[list[int], int]:
    """Finite floats as exact ints over one ``2**shift``, the least that fits."""
    ratios = list(map(exact_ratio, values))
    shift = max((own for _, own in ratios), default=0)
    return [num << (shift - own) for num, own in ratios], shift


class ExactSum:
    """Running sum of finite terms whose value is their correctly rounded
    sum: ``math.fsum`` of the terms so far, bit for bit.

    The sum is one int over ``2**shift``, shift growing only as terms need
    it, so adds are exact, the state is O(1) and int true division rounds
    the value once.  An infinite term raises OverflowError and a nan term
    ValueError, both from ``exact_ratio`` and with the sum left as it was.
    An add whose sum rounds outside the float range raises OverflowError and
    keeps the term, so later terms can bring the sum back.  Unlike fsum, whose
    "intermediate overflow" follows its partials, a sum in range never
    raises: fsum raises on ``[-(M - 2**971), 2**969, 2**968, 2**968, M]`` (M
    the largest float).
    """

    def __init__(self) -> None:
        self._num, self._shift, self._den = 0, 0, 1  # the sum, num / den
        self.value = 0.0

    def add(self, term: float) -> float:
        """Add ``term``; return the rounded sum of every term added so far."""
        num, shift = exact_ratio(term)
        if shift > self._shift:
            self._num = (self._num << (shift - self._shift)) + num
            self._shift, self._den = shift, 1 << shift
        else:
            self._num += num << (self._shift - shift)
        self.value = value = self._num / self._den
        return value


def _capped_levels(cubes: Sequence[Cube]) -> dict[int, int]:
    """Each scale present, mapped to a level on a grid where every gap between
    consecutive scales is capped at one more than the widest position.

    Shifting a position by at least its bit length gives 0 or -1 however long
    the shift, so on the capped grid every cube contains exactly the cubes it
    contains on the true one, while shifts and keys stay as long as the
    positions instead of the scale gap.
    """
    cap = 1 + max(map(int.bit_length, chain.from_iterable(q.k for q in cubes)))
    levels: dict[int, int] = {}
    level = 0
    previous: int | None = None
    for j in sorted({q.j for q in cubes}):
        if previous is not None:
            level += min(j - previous, cap)
        levels[j] = level
        previous = j
    return levels


def _spread_steps(width: int, d: int) -> list[tuple[int, int]]:
    """``(shift, mask)`` steps moving bit i of a non-negative int below
    2^width to bit i*d: ``x = (x | (x << shift)) & mask`` for each in turn.

    Each step moves the upper half of every block of bits up by half a block
    times (d - 1), so an int of b bits takes log2(b) big-int steps instead of
    b Python-level steps.
    """
    steps: list[tuple[int, int]] = []
    block = 1
    while block < width:
        block *= 2
    total = block * d
    while block > 1:
        block //= 2
        mask, span = (1 << block) - 1, block * d
        while span < total:
            mask |= mask << span
            span *= 2
        steps.append((block * (d - 1), mask))
    return steps


def _preorder_ranges(
    cubes: Sequence[Cube], levels: Mapping[int, int]
) -> tuple[list[int], list[int]]:
    """Sort keys putting the cubes in a preorder of their containment forest,
    and the end of each cube's key range.

    The key is the cube's lower corner on the finest grid, Morton-interleaved
    for d >= 2 with coordinates counted from an origin aligned to the coarsest
    level, followed by the level, so that of two cubes sharing a lower corner
    the coarser comes first.  A cube's corners on the finest grid fill one
    aligned block of Morton codes, so its descendants are exactly the cubes
    whose keys lie in ``[key, end)``, and they follow it directly.  Keys are
    single ints, which the sort compares in C.
    """
    top = max(levels.values())
    tie = top.bit_length()
    d = cubes[0].d
    cube_levels = [levels[q.j] for q in cubes]
    if d == 1:
        codes = [q.k[0] << (top - level) for q, level in zip(cubes, cube_levels)]
    else:
        roots = [[c >> levels[q.j] for c in q.k] for q in cubes]
        origin = [min(column) for column in zip(*roots)]
        extent = max(max(column) - o for column, o in zip(zip(*roots), origin))
        steps = _spread_steps(top + extent.bit_length(), d)
        codes = [0] * len(cubes)
        # One coordinate column at a time, each spread step over the whole
        # column, then interleaved into the codes.
        for axis, o in enumerate(origin):
            column = [
                (q.k[axis] - (o << level)) << (top - level)
                for q, level in zip(cubes, cube_levels)
            ]
            for shift, mask in steps:
                column = [(x | (x << shift)) & mask for x in column]
            codes = [(code << 1) | x for code, x in zip(codes, column)]
    keys = [(code << tie) | level for code, level in zip(codes, cube_levels)]
    ends = [
        (code + (1 << ((top - level) * d))) << tie
        for code, level in zip(codes, cube_levels)
    ]
    return keys, ends


# Families of at least this many cubes try the int64 key path; below it the
# fixed cost of its numpy calls exceeds the Python key path's per-cube work.
# Measured forest builds break even here at d = 1, and from about 48 cubes
# at d = 2 and 3.
_INT64_MIN_CUBES = 128
# Every int64 key and end lies strictly between -_KEY_LIMIT and _KEY_LIMIT.
_KEY_LIMIT = 1 << 62
# Spread masks cut to int64; the codes they select stay below 2^62.
_INT64_BITS = (1 << 63) - 1
_J, _K, _D = itemgetter(0), itemgetter(1), itemgetter(2)


def _int64_columns(cubes: Sequence[Cube]) -> tuple[np.ndarray, np.ndarray] | None:
    """Scales (n) and positions (n x d) as int64 arrays, or None when one lies
    outside (-2^62, 2^62); then the family takes the Python keys."""
    n, d = len(cubes), cubes[0].d
    try:
        j = np.fromiter(map(_J, cubes), np.int64, n)
        k = np.fromiter(chain.from_iterable(map(_K, cubes)), np.int64, n * d)
    except OverflowError:  # past the int64 range
        return None
    for column in (j, k):
        if column.min() <= -_KEY_LIMIT or column.max() >= _KEY_LIMIT:
            return None
    return j, k.reshape(n, d)


def _int64_ranges(
    j: np.ndarray, k: np.ndarray
) -> tuple[dict[int, int], np.ndarray, np.ndarray, np.ndarray] | None:
    """``_capped_levels`` and ``_preorder_ranges`` on int64 arrays: the levels,
    the keys and ends, and each cube's index in the sorted scales; or None
    when some key or end lies outside (-2^62, 2^62).

    Each early None is one such family, and each bound passed keeps the
    shifts after it exact in int64: the coarsest cube's key range alone
    spans 2^(top*d + tie); at d = 1 the key and end from position k need
    -2^e <= k < 2^e, e = 62 - tie - shift; at d >= 2 the largest key has
    exactly ``bits + tie`` bits, ``bits`` being the length of the largest
    Morton code, read off the largest coordinate of each axis.  The last
    test is the exact one.
    """
    n, d = k.shape
    scales, scale_of = np.unique(j, return_inverse=True)
    cap = 1 + int(np.abs(k).max()).bit_length()
    scale_levels = np.concatenate(([0], np.cumsum(np.minimum(np.diff(scales), cap))))
    top = int(scale_levels[-1])
    tie = top.bit_length()
    if top * d + tie > 61:
        return None
    level = scale_levels[scale_of]
    shift = top - level
    if d == 1:
        limit = np.left_shift(1, 62 - tie - shift)
        if ((k[:, 0] >= limit) | (k[:, 0] < -limit)).any():
            return None
        codes = k[:, 0] << shift
    else:
        roots = k >> level[:, None]
        extents = roots - roots.min(axis=0)
        width = top + int(extents.max()).bit_length()
        if d * (width - 1) + tie > 61:
            return None
        low = k & ((1 << level[:, None]) - 1)
        columns = ((extents << level[:, None]) | low) << shift[:, None]
        bits = max(
            d * int(c).bit_length() - axis
            for axis, c in enumerate(columns.max(axis=0).tolist())
        )
        if bits + tie > 62:
            return None
        codes = np.zeros(n, np.int64)
        steps = [(s, mask & _INT64_BITS) for s, mask in _spread_steps(width, d)]
        for column in columns.T:
            for s, mask in steps:
                column = (column | (column << s)) & mask
            codes = (codes << 1) | column
    keys = (codes << tie) | level
    ends = (codes + (1 << (shift * d))) << tie
    if keys.min() <= -_KEY_LIMIT or ends.max() >= _KEY_LIMIT:
        return None
    levels = dict(zip(scales.tolist(), scale_levels.tolist()))
    return levels, keys, ends, scale_of


def _stack_parents(order: list[int], keys: list[int], ends: list[int]) -> list[int]:
    """Each cube's parent index in the preorder ``order`` of the sorted keys,
    -1 for a root, by one stack pass.  The stack holds the cubes containing
    the previous one, innermost on top: popping those whose key range ends at
    or before the next key leaves its parent on top."""
    parent: list[int] = []
    stack: list[tuple[int, int]] = []  # (end of key range, index in cubes)
    for i, u in enumerate(order):
        key = keys[u]
        while stack and stack[-1][0] <= key:
            stack.pop()
        parent.append(stack[-1][1] if stack else -1)
        stack.append((ends[u], i))
    return parent


class ForestArrays(NamedTuple):
    """A forest's columns as int64 arrays, for a family on int64 keys:
    ``order``, ``parent`` and ``scale_of`` as the forest's lists, and
    ``levels``, the preorder indices of the cubes at each depth (0 for a
    root), ascending, one array per depth from 0."""

    order: np.ndarray
    parent: np.ndarray
    scale_of: np.ndarray
    levels: list[np.ndarray]


def _array_parents(
    keys: np.ndarray, ends: np.ndarray, scale_of: np.ndarray
) -> ForestArrays:
    """The forest of int64 keys and ends, from sorts and binary searches.

    In the preorder of the sorted keys, cube i's subtree is the run
    ``[i, sub[i])`` of the keys below its end.  Its ancestors are the cubes
    j < i whose runs pass i, so its depth is i less the runs that end at or
    before i, and its parent is the last cube before it one level up.
    """
    n = len(keys)
    order = np.argsort(keys)
    sub = np.searchsorted(keys[order], ends[order])
    depth = np.arange(n) - np.cumsum(np.bincount(sub, minlength=n + 1)[:n])
    # A depth is at most the top capped level, which int64 keys keep below
    # 62, so depths fit int8, whose stable sort is a radix sort.
    by_depth = np.argsort(depth.astype(np.int8), kind="stable")
    # The (depth, index) rows, ascending; a cube's parent has the last row
    # at or before (depth - 1, index - 1).
    rows = depth[by_depth] * n + by_depth
    parent = np.empty(n, np.int64)
    parent[by_depth] = by_depth[np.searchsorted(rows, rows - n - 1, "right") - 1]
    parent[depth == 0] = -1
    bounds = np.searchsorted(rows, np.arange(int(depth[by_depth[-1]]) + 2) * n)
    levels = [by_depth[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]
    return ForestArrays(order, parent, scale_of[order], levels)


class ContainmentForest:
    """Nesting structure of a finite cube family, as aligned lists.

    ``cubes`` lists the family in a preorder of the dyadic tree, and
    ``parent[i]`` is the index in ``cubes`` of the *tightest* cube of the
    family strictly containing ``cubes[i]``, or -1 for a root.  Every parent
    precedes its children, so one forward pass over ``parent`` carries a
    value from each root down to its leaves.  The forest holds containment
    only; the arithmetic over it belongs to its callers.
    ``order[i]`` is the index of ``cubes[i]`` among the distinct input cubes
    in first-seen order (for a dict's keys, the index of its entry), and
    ``scale_of[i]`` the index of its scale in the sorted list ``scales``, so
    values and per-volume powers can be read by preorder index.

    The build is one sort of integer keys and one parent pass, whatever the
    scale gap.  The sort key (see ``_preorder_ranges``) orders the cubes by
    lower corner, coarser first on ties, which lists each cube's subtree
    right after it, in the key range ``[key, end)`` of that cube, so the
    parents follow from integer comparisons only.  The keys use the capped
    levels of ``_capped_levels``, which keep every containment, so their
    length does not grow with the scale gap either.

    The keys come one of two ways, equal key for key.  A family of at least
    ``_INT64_MIN_CUBES`` cubes, with scales and positions inside +-2^62 and
    every key and end inside 62 bits, has them computed on int64 numpy
    arrays (``_int64_columns``, ``_int64_ranges``), sorted by numpy, and
    its parents found by binary searches (``_array_parents``); ``arrays``
    then holds the forest's columns as int64 arrays and its cubes grouped
    by depth, for kernels that run one depth level at a time.  Smaller
    families, where numpy's fixed costs dominate, and wider keys (positions
    of hundreds of bits across a wide scale gap) take Python ints
    (``_capped_levels``, ``_preorder_ranges``), ``sorted`` and the stack
    pass of ``_stack_parents``; their ``arrays`` is None.

    Every region (cube minus its children) has non-negative measure by
    construction.  The capped levels keep every containment and every
    non-containment of the true grid: two scales less than the cap apart
    keep their gap, two scales further apart stay at least the cap apart,
    and a shift of at least the cap gives 0 or -1 on both grids.  So a
    cube's children are dyadic cubes inside it, none inside another (each
    has the cube as its tightest container), hence pairwise disjoint.
    """

    def __init__(self, cubes: Iterable[Cube]):
        # a dict's keys (a CoeffSeq's cubes) are distinct and in first-seen
        # order already
        unique = list(cubes) if isinstance(cubes, dict) else list(dict.fromkeys(cubes))
        self.cubes: list[Cube] = []
        self.parent: list[int] = []
        self.order: list[int] = []
        self.scales: list[int] = []
        self.scale_of: list[int] = []
        self.arrays: ForestArrays | None = None
        if not unique:
            return
        if len(set(map(_D, unique))) > 1:
            raise ContractViolationError("all cubes must share one dimension")
        columns = _int64_columns(unique) if len(unique) >= _INT64_MIN_CUBES else None
        ranges = None if columns is None else _int64_ranges(*columns)
        if ranges is None:
            levels = _capped_levels(unique)
            keys, ends = _preorder_ranges(unique, levels)
            order = sorted(range(len(unique)), key=keys.__getitem__)
            index = {j: i for i, j in enumerate(levels)}
            scale_of = [index[unique[u].j] for u in order]
            self.parent = _stack_parents(order, keys, ends)
        else:
            levels, keys, ends, scale_of = ranges
            self.arrays = arrays = _array_parents(keys, ends, scale_of)
            order, scale_of = arrays.order.tolist(), arrays.scale_of.tolist()
            self.parent = arrays.parent.tolist()
        self.cubes = list(map(unique.__getitem__, order))
        self.order, self.scales, self.scale_of = order, list(levels), scale_of

    def __len__(self) -> int:
        return len(self.cubes)

    def subtree_ends(self) -> list[int]:
        """For each cube, one past the last index of its subtree, so that
        ``cubes[i:ends[i]]`` is cube i and its descendants in preorder."""
        ends = list(range(1, len(self.cubes) + 1))
        # Walking backwards, each cube's subtree is complete before its
        # parent takes the end of it.
        for i, p in zip(reversed(range(len(ends))), reversed(self.parent)):
            if p >= 0 and ends[p] < ends[i]:
                ends[p] = ends[i]
        return ends

    def volume_powers(self, powers: VolumePowers) -> list[float]:
        """``powers`` of each cube's volume, aligned with ``cubes``, one lookup
        per scale.  Where ``pow2`` rejects a volume its cubes read
        ``math.nan``, for the caller to raise ``powers(cube)``'s
        ScaleRangeError where it uses one.
        """
        if not self.cubes:
            return []
        table = powers.at_scales(self.scales, self.cubes[0].d)
        return [table[i] for i in self.scale_of]
