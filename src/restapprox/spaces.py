"""Sequence-space quasi-norms on dyadic cube coefficients.

Two families are implemented.  The aggregated family ("tl") integrates, over
the region decomposition induced by cube containment, the p-th power of a
q-aggregate of scale-normalized coefficients.  The integrand is constant on
each forest region (a cube minus its children), so the integral is a finite
sum: no sampling, no quadrature.  The per-scale family ("besov") takes an
inner p-sum within each scale and an outer q-sum across scales.  When p == q
the two quasi-norms coincide identically, which several tests pin.

Families of at least ``_INT64_MIN_CUBES`` cubes whose keys fit int64, and
batches of that many cubes in many families (``space_norms``, and the random
indicator families of ``democracy.admissible_spread``), run the aggregated
norm one depth level at a time on the int64 forest of ``dyadic._int64_ranges``
and ``dyadic._array_parents`` (``_tl_batch``).  Smaller families, wider keys
and the greedy suffix pass keep the per-cube list kernel on a
``ContainmentForest``.  Both ways make the same float operations in the same
order, so the norms and their errors are the same bit for bit.  The per-scale
norm takes one Python pass at every size: it groups |s_Q| by scale and
multiplies each group by its scale's one atom power (``_scale_sizes``).

Also provided: the canonical atom weights ``u(Q)`` (the norm of a normalized
indicator atom), and the identity check equating a weighted Lorentz norm with
a per-scale norm under the matched parameter map.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import chain, groupby, repeat
from operator import itemgetter
from typing import Iterable, Sequence

import numpy as np

from .dyadic import (
    VOLUMES,
    ContainmentForest,
    Cube,
    ExactSum,
    MeasureSpec,
    VolumePowers,
    _array_parents,
    _int64_columns,
    _int64_ranges,
)
from .errors import ContractViolationError, ScaleRangeError, finite
from .lorentz import CoeffSeq, LorentzParams, lorentz_norm
from .weights import WeightFn

__all__ = [
    "SpaceParams",
    "AtomWeights",
    "tl_norm",
    "besov_norm",
    "space_norm",
    "space_norms",
    "suffix_norms",
    "matched_exponents",
    "lorentz_equals_besov_check",
]

_KINDS = ("tl", "besov")
IDENTITY_TOL = 1e-10  # relative, of the Lorentz / per-scale norm identity


def _recip(p: float) -> float:
    """1/p with the convention 1/inf = 0."""
    return 0.0 if math.isinf(p) else 1.0 / p


@dataclass(frozen=True)
class SpaceParams:
    """Smoothness s, inner exponent p, aggregation exponent q, dimension d.

    ``coeff_powers`` and ``atom_powers`` hold |Q|^coeff_exponent and
    |Q|^atom_exponent per cube volume, built once per parameter set, so every
    norm taken with it pays one ``pow2`` per volume the first time only.
    """

    s: float
    p: float
    q: float
    d: int
    kind: str = "tl"
    coeff_powers: VolumePowers = field(init=False, repr=False, compare=False)
    atom_powers: VolumePowers = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ContractViolationError(f"kind must be one of {_KINDS}")
        if not self.p > 0 or not self.q > 0:
            raise ContractViolationError("p and q must be > 0 (math.inf allowed)")
        if self.kind == "tl" and math.isinf(self.p):
            raise ContractViolationError("the aggregated family requires p < inf")
        if not isinstance(self.d, int) or self.d < 1:
            raise ContractViolationError("d must be a positive integer")
        if not math.isfinite(self.s):
            raise ContractViolationError("s must be finite")
        object.__setattr__(self, "coeff_powers", VolumePowers(self.coeff_exponent))
        object.__setattr__(self, "atom_powers", VolumePowers(self.atom_exponent))

    @property
    def rho(self) -> float:
        """Exponent of the power triangle inequality this norm satisfies."""
        return min(1.0, self.p, self.q)

    @property
    def atom_exponent(self) -> float:
        """Exponent e with ||unit atom at Q|| = |Q|^e."""
        return -self.s / self.d + _recip(self.p) - 0.5

    @property
    def coeff_exponent(self) -> float:
        """Scale normalization exponent before aggregation, -s/d - 1/2."""
        return -self.s / self.d - 0.5


@dataclass(frozen=True)
class AtomWeights:
    """u(Q) = |Q|^e where e is the space's atom exponent.

    Callable on cubes, so it can serve directly as the ``u`` argument of the
    Lorentz-norm functions.  Each power is computed once per cube volume, in
    the space's ``atom_powers``.
    """

    space: SpaceParams

    def __call__(self, cube: Cube) -> float:
        if cube.d != self.space.d:
            raise ContractViolationError(
                f"cube dimension {cube.d} != space dimension {self.space.d}"
            )
        return self.space.atom_powers(cube)


_COEFFICIENT_RANGE = "a scaled coefficient exceeds the float range"
_INTEGRAL_RANGE = "the region integral exceeds the float range"
_NORM_RANGE = "the norm exceeds the float range"
_SCALE_RANGE = "a per-scale norm term exceeds the float range"


def _tl_chain_inputs(
    forest: ContainmentForest, s: CoeffSeq, params: SpaceParams
) -> tuple[list[float], float]:
    """What each cube of ``forest.cubes`` adds to its chain — b_Q^q, or b_Q
    for ``q = inf`` — and the exponent taking a chain value to its region
    constant.  ``forest`` is the forest of ``s``, so its ``order``
    reads the coefficients in preorder.  A scale factor outside ``pow2``'s
    range raises its error for the first such cube in preorder."""
    magnitudes = list(map(abs, s.values()))
    scale = forest.volume_powers(params.coeff_powers)
    if math.nan in scale:  # volume_powers marks with math.nan itself
        params.coeff_powers(forest.cubes[scale.index(math.nan)])  # raises
    b = [size * magnitudes[u] for size, u in zip(scale, forest.order)]
    if math.isinf(params.q):
        return b, params.p
    try:
        return [x**params.q for x in b], params.p / params.q
    except OverflowError:  # a finite power past the float range
        raise ScaleRangeError(_COEFFICIENT_RANGE) from None


def _tl_root(integral: float, p: float) -> float:
    """The norm from its region integral; rounding can leave a tiny negative
    residue when the integral is zero."""
    return finite(lambda: max(integral, 0.0) ** (1.0 / p), _NORM_RANGE)


def _tl_terms_root(terms: list[float], p: float) -> float:
    """The norm from its region terms, summed by one ``math.fsum``."""
    try:
        integral = math.fsum(terms)
    except (OverflowError, ValueError):  # a partial overflowed, or inf - inf
        integral = math.inf
    if not math.isfinite(integral):
        raise ScaleRangeError(_INTEGRAL_RANGE)
    return _tl_root(integral, p)


def _tl_forest_norm(
    forest: ContainmentForest, values: list[float], exponent: float, params: SpaceParams
) -> float:
    """``tl_norm`` of the whole family, from its forest and chain inputs:
    one term +K|Q| per region (a cube minus its children) and one -K|Q| of
    its parent's constant per non-root cube, combined by one ``math.fsum``,
    so the only rounding is one multiply per term.  A volume outside
    ``pow2``'s range raises only where a nonzero term needs it."""
    parent = forest.parent
    # Slot -1 holds the empty chain of a root, whose constant is 0.0.
    if math.isinf(params.q):
        chains = [-math.inf] * (len(values) + 1)
        for i, (p, value) in enumerate(zip(parent, values)):
            chains[i] = max(chains[p], value)
    else:
        chains = [0.0] * (len(values) + 1)
        for i, (p, value) in enumerate(zip(parent, values)):
            chains[i] = chains[p] + value
    try:
        constants = [c**exponent if c > 0.0 else 0.0 for c in chains]
    except OverflowError:
        raise ScaleRangeError(_COEFFICIENT_RANGE) from None
    terms: list[float] = []
    sizes = forest.volume_powers(VOLUMES)
    for q, p, c, size in zip(forest.cubes, parent, constants, sizes):
        outer = constants[p]
        if c != 0.0 or outer != 0.0:
            if size != size:
                VOLUMES(q)  # raises pow2's error
            if c != 0.0:
                terms.append(c * size)
            if outer != 0.0:
                terms.append(-outer * size)
    return _tl_terms_root(terms, params.p)


# A batch with a region term beyond this goes to the per-family loop, so
# that a norm past the float range raises the loop's own error.  Below it,
# no partial of a family's fsum can overflow, whatever the terms' order.
_TERM_LIMIT = 2.0**960


def _boxes(j: np.ndarray, k: np.ndarray, bounds: np.ndarray) -> np.ndarray | None:
    """Positions ``k`` with each family, the rows ``bounds[f]:bounds[f + 1]``,
    moved along the first axis by whole cells of the coarsest scale (a
    shift of every scale's grid) into cells no other family touches; None
    when a moved position might pass 2^62.  One family stays where it is,
    so ``tl_norm`` takes every family whose own keys fit int64."""
    if len(bounds) == 2:
        return k
    gap = int(j.max()) - int(j.min())
    if gap > 61:
        return None
    rel = j - j.min()
    cells = k[:, 0] >> rel
    lo = np.minimum.reduceat(cells, bounds[:-1])
    width = np.maximum.reduceat(cells, bounds[:-1]) - lo + 1
    reach = len(width) * int(width.max()) + int(np.abs(k[:, 0]).max())
    if reach.bit_length() + gap > 62:
        return None
    moved = k.copy()
    moved[:, 0] += np.repeat(np.cumsum(width) - width - lo, np.diff(bounds)) << rel
    return moved


def _tl_batch(
    j: np.ndarray,
    k: np.ndarray,
    bounds: np.ndarray,
    inputs: np.ndarray,
    exponents: float | np.ndarray,
    sizes: np.ndarray,
    maxima: bool,
    ps: list[float],
) -> list[float] | None:
    """``tl_norm`` of each family of the int64 columns ``j`` (scales) and
    ``k`` (positions), family f being the non-empty rows
    ``bounds[f]:bounds[f + 1]``, bit for bit; or None, for the caller's
    per-family loop, when a key passes 62 bits or some family would raise or
    has a term past ``_TERM_LIMIT``.

    Per row, ``inputs`` holds what the cube adds to its chain (b_Q^q, or b_Q
    when ``maxima``) and ``sizes`` its volume (nan where ``pow2`` rejects
    it: a nonzero term then makes a nan integral, and declines);
    ``exponents`` is the chain exponent (p/q, or p), one for all rows or one
    per row, and ``ps`` each family's p.  The families, side by side
    (``_boxes``), make one forest; its chains add root to leaf one depth
    level at a time, as the per-cube pass adds them.  Constants are Python's
    ``pow`` on ``tolist()`` values, as numpy's may differ from libm's.  The
    preorder may interleave families (at d >= 2 the roots' shift need not
    keep the boxes aligned), so the region terms are grouped by family
    before each family's ``fsum``.
    """
    moved = _boxes(j, k, bounds)
    ranges = None if moved is None else _int64_ranges(j, moved)
    if ranges is None:
        return None
    arrays = _array_parents(*ranges)
    order, parent, n = arrays.order, arrays.parent, len(j)
    inputs, sizes = inputs[order], sizes[order]
    combine = np.maximum if maxima else np.add
    # Slot -1 holds the empty chain of a root, whose constant is 0.0.
    chains = np.full(n + 1, -math.inf if maxima else 0.0)
    with np.errstate(over="ignore"):
        for level in arrays.levels:
            chains[level] = combine(chains[parent[level]], inputs[level])
    positive = np.flatnonzero(chains > 0.0)
    if isinstance(exponents, np.ndarray):
        each: Iterable[float] = exponents[order][positive].tolist()
    else:
        each = repeat(exponents)
    constants = np.zeros(n + 1)
    try:
        constants[positive] = list(map(pow, chains[positive].tolist(), each))
    except OverflowError:  # the family's own norm raises
        return None
    own, outer = constants[:n], constants[parent]
    nonzero = np.stack((own != 0.0, outer != 0.0), axis=1)
    with np.errstate(over="ignore"):
        terms = np.stack((own * sizes, -outer * sizes), axis=1)[nonzero]
    if (np.abs(terms) > _TERM_LIMIT).any():
        return None
    owner = np.repeat(np.arange(len(ps)), np.diff(bounds))[order]
    owner = np.repeat(owner, nonzero.sum(axis=1))
    terms = terms[np.argsort(owner, kind="stable")].tolist()
    ends = np.cumsum(np.bincount(owner, minlength=len(ps))).tolist()
    try:
        return [_tl_terms_root(terms[a:b], p) for a, b, p in zip([0, *ends], ends, ps)]
    except ScaleRangeError:
        return None


# Batches of at least this many cubes take the int64 kernel; below it, its
# numpy calls cost more than the list kernel's per-cube work.  Forest builds
# on the two key paths break even here at d = 1, and at about 48 at d = 2, 3.
_INT64_MIN_CUBES = 128


def _tl_norms(
    pairs: list[tuple[CoeffSeq, SpaceParams]], maxima: bool
) -> list[float] | None:
    """``_tl_batch`` of non-empty tl families of one dimension, each with its
    own parameters, whose q are all infinite (``maxima``) or all finite;
    None when they hold fewer than ``_INT64_MIN_CUBES`` cubes, when a
    position passes the int64 keys, or when ``_tl_batch`` declines."""
    counts = [len(s) for s, _ in pairs]
    if sum(counts) < _INT64_MIN_CUBES:
        return None
    cubes = [cube for s, _ in pairs for cube in s]
    columns = _int64_columns(cubes)
    if columns is None:
        return None
    scales, scale_of = np.unique(columns[0], return_inverse=True)
    scales, d = scales.tolist(), cubes[0].d
    values = chain.from_iterable(s.values() for s, _ in pairs)
    magnitudes = np.abs(np.fromiter(values, float, len(cubes)))
    inputs: list[float] = []
    end = 0
    # One table of coefficient scales per run of equal parameters.
    for params, run in groupby(pairs, itemgetter(1)):
        start, end = end, end + sum(len(s) for s, _ in run)
        scale = np.array(params.coeff_powers.at_scales(scales, d))[scale_of[start:end]]
        if np.isnan(scale).any():  # the family's own norm raises
            return None
        with np.errstate(over="ignore"):  # an inf term, as the list gives
            b = (scale * magnitudes[start:end]).tolist()
        try:
            inputs += b if maxima else [x**params.q for x in b]
        except OverflowError:  # the family's own norm raises
            return None
    exponents = [params.p if maxima else params.p / params.q for _, params in pairs]
    exponent = exponents[0] if len(set(exponents)) == 1 else np.repeat(exponents, counts)
    sizes = np.array(VOLUMES.at_scales(scales, d))[scale_of]
    ps = [params.p for _, params in pairs]
    bounds = np.cumsum([0, *counts])
    return _tl_batch(*columns, bounds, np.array(inputs), exponent, sizes, maxima, ps)


def tl_norm(s: CoeffSeq, params: SpaceParams) -> float:
    """Aggregated quasi-norm over the containment region decomposition.

    Coefficients are scale-normalized to b_Q = |Q|^(-s/d - 1/2) |s_Q|; on each
    region the q-aggregate of the b_Q of containing cubes is constant, so the
    p-th-moment integral is an exact finite sum over the regions of the
    containment forest.  The region constant is the chain sum of b_Q^q raised
    to p/q or, for ``q = inf``, the chain maximum of b_Q raised to p.  Raises
    ScaleRangeError when a term, a chain value, a constant, the integral or
    the norm exceeds the float range.
    """
    _check_space(s, params, "tl")
    if not s:
        return 0.0
    norms = _tl_norms([(s, params)], math.isinf(params.q))
    if norms is not None:
        return norms[0]
    forest = ContainmentForest(s)
    values, exponent = _tl_chain_inputs(forest, s, params)
    return _tl_forest_norm(forest, values, exponent, params)


def _aggregate(values: list[float], p: float, message: str) -> float:
    """(sum of v^p)^(1/p), or the max for p = inf; ScaleRangeError(message)
    when a power, the sum or the result exceeds the float range."""
    if math.isinf(p):
        return finite(lambda: max(values), message)
    return finite(lambda: math.fsum([v**p for v in values]) ** (1.0 / p), message)


def besov_norm(s: CoeffSeq, params: SpaceParams) -> float:
    """Per-scale quasi-norm: inner p-sum within a scale, outer q-sum across.

    Coefficients are normalized by |Q|^(-s/d + 1/p - 1/2) so that a unit atom
    has norm |Q|^(-s/d + 1/p - 1/2) as well.  One pass groups |s_Q| by scale
    in the order of ``s``; each group is then multiplied by its scale's one
    atom power.  Raises ScaleRangeError when a term, a per-scale value or the
    norm exceeds the float range.
    """
    _check_space(s, params, "besov")
    if not s:
        return 0.0
    groups: defaultdict[int, list[float]] = defaultdict(list)
    for cube, value in s.items():
        groups[cube.j].append(abs(value))
    sizes = _scale_sizes(groups, params.atom_powers, params.d)
    inner = [
        _aggregate([size * v for v in groups[j]], params.p, _SCALE_RANGE)
        for j, size in sorted(sizes.items())
    ]
    return _aggregate(inner, params.q, _SCALE_RANGE)


def _scale_sizes(scales: Iterable[int], powers: VolumePowers, d: int) -> dict[int, float]:
    """The power of the volume of each scale's cubes at dimension ``d``, one
    ``powers`` entry per distinct scale, filled in first-seen order: the
    first scale whose volume ``pow2`` rejects raises its ScaleRangeError."""
    return {j: powers[j * d] for j in dict.fromkeys(scales)}


def space_norm(s: CoeffSeq, params: SpaceParams) -> float:
    """Dispatch to the norm named by ``params.kind``."""
    return tl_norm(s, params) if params.kind == "tl" else besov_norm(s, params)


def space_norms(pairs: Iterable[tuple[CoeffSeq, SpaceParams]]) -> list[float]:
    """``space_norm`` of each ``(s, params)`` pair, in order, bit for bit.

    The non-empty aggregated (tl) families are scored in batches, one per
    dimension and per kind of q, finite or infinite (whose chains take a
    max): each batch is one forest on int64 keys and one depth-level pass,
    with one exactly rounded ``fsum`` per family (``_tl_batch``).  A batch
    is all or nothing.  When it holds fewer than ``_INT64_MIN_CUBES`` cubes,
    when a key passes 62 bits, or when any of its families would raise or
    has a region term past ``_TERM_LIMIT``, its families run ``space_norm``
    one by one, as empty and per-scale families do.  So a batch raises
    nothing itself, and an error raised is the first that the per-pair loop
    raises, with its type and text.
    """
    pairs = list(pairs)
    norms: list[float | None] = [None] * len(pairs)
    batches: defaultdict[tuple[int, bool], list[int]] = defaultdict(list)
    for i, (s, params) in enumerate(pairs):
        if s and params.kind == "tl" and s.d == params.d:
            batches[params.d, math.isinf(params.q)].append(i)
    for (_, maxima), members in batches.items():
        scored = _tl_norms([pairs[i] for i in members], maxima)
        for i, norm in zip(members, scored or ()):
            norms[i] = norm
    return [
        space_norm(*pair) if norm is None else norm for pair, norm in zip(pairs, norms)
    ]


def suffix_norms(
    s: CoeffSeq, params: SpaceParams, order: Sequence[Cube]
) -> list[float]:
    """``space_norm`` of ``s`` restricted to ``order[c:]``, for c = 0, ..., n.

    ``order`` lists the support of ``s``, each cube once.  Every value is bit
    for bit the norm of its suffix, and a suffix whose norm leaves the float
    range raises the error that ``space_norm`` raises on the whole of ``s``.
    The suffixes are built by inserting the cubes from the end of ``order``,
    and each insertion recomputes only what it changes:

    - tl: the chain values, constants and region terms of the inserted cube's
      subtree in one forest of the whole support, so the list costs
      sum(depth + 1) node visits over the family.  Each changed region term
      is swapped in a running ``ExactSum`` by adding the negative of the old
      term and then the new one; the cancellation is exact, so the integral
      is ``math.fsum`` of the suffix's own terms.
    - besov: the inserted cube's per-scale sum and that scale's term of the
      sum across scales, each kept in an ``ExactSum``, or running maxima for
      an infinite exponent.
    """
    _check_space(s, params, params.kind)
    if len(order) != len(s) or set(order) != s.keys():
        raise ContractViolationError("order must list the support once each")
    if not s:
        return [0.0]
    if params.kind == "tl":
        return _tl_suffix_norms(s, params, order)
    return _besov_suffix_norms(s, params, order)


def _tl_suffix_norms(
    s: CoeffSeq, params: SpaceParams, order: Sequence[Cube]
) -> list[float]:
    forest = ContainmentForest(s)
    values, exponent = _tl_chain_inputs(forest, s, params)
    cubes, parent = forest.cubes, forest.parent
    n = len(cubes)
    ends = forest.subtree_ends()
    sizes = forest.volume_powers(VOLUMES)
    where = {q: i for i, q in enumerate(cubes)}
    maxima = math.isinf(params.q)
    # Slot i holds the chain value and constant of cube i if it is present,
    # else those of its nearest present ancestor; slot -1 stands for none.
    seen = [-math.inf if maxima else 0.0] * (n + 1)
    seen_constant = [0.0] * (n + 1)
    present = [False] * n
    # The constants of each cube's two region terms in the running integral:
    # its own (+K|Q|) and its nearest present ancestor's (-K|Q|).
    own, outer = [0.0] * n, [0.0] * n
    integral = ExactSum()
    add = integral.add
    norms = [0.0] * (n + 1)
    try:
        for c in range(n - 1, -1, -1):
            x = where[order[c]]
            present[x] = True
            for y in range(x, ends[x]):
                p = parent[y]
                if not present[y]:
                    seen[y] = seen[p]
                    seen_constant[y] = seen_constant[p]
                    continue
                # Root to leaf, as _tl_forest_norm adds them.
                chain = max(seen[p], values[y]) if maxima else seen[p] + values[y]
                try:
                    constant = chain**exponent if chain > 0.0 else 0.0
                except OverflowError:
                    raise ScaleRangeError(_COEFFICIENT_RANGE) from None
                seen[y] = chain
                seen_constant[y] = constant
                above = seen_constant[p]
                if constant != own[y] or above != outer[y]:
                    size = sizes[y]
                    if size != size:
                        VOLUMES(cubes[y])  # raises pow2's error
                    for old, new in ((own[y], constant), (-outer[y], -above)):
                        if old != new:
                            if old:
                                add(-old * size)
                            if new:
                                add(new * size)
                    own[y], outer[y] = constant, above
            norms[c] = _tl_root(integral.value, params.p)
    except (OverflowError, ValueError, ScaleRangeError) as error:
        # The pass meets the longest suffix, the whole family, last; a norm
        # taken prefix by prefix meets it first, and raises its error.
        _tl_forest_norm(forest, values, exponent, params)
        if isinstance(error, ScaleRangeError):
            raise
        raise ScaleRangeError(_INTEGRAL_RANGE) from None
    return norms


def _besov_suffix_norms(
    s: CoeffSeq, params: SpaceParams, order: Sequence[Cube]
) -> list[float]:
    # In the order of s, so that a scale outside the float range is reported
    # as besov_norm reports it.
    sizes = _scale_sizes((cube.j for cube in s), params.atom_powers, params.d)
    p, q = params.p, params.q
    sums: defaultdict[int, ExactSum] = defaultdict(ExactSum)
    inner: dict[int, float] = {}  # per present scale
    terms: dict[int, float] = {}  # inner**q per present scale, for finite q
    across = ExactSum()
    best = -math.inf
    norms = [0.0] * (len(order) + 1)
    try:
        for c in range(len(order) - 1, -1, -1):
            cube = order[c]
            j = cube.j
            value = sizes[j] * abs(s[cube])
            old = inner.get(j)
            if math.isinf(p):
                new = value if old is None else max(old, value)
            else:
                new = sums[j].add(value**p) ** (1.0 / p)
            inner[j] = new
            if math.isinf(q):
                # Inserting never lowers a scale's value: its sum is a
                # correctly rounded fsum, and the power is monotone.
                best = max(best, new)
                total = best
            else:
                if old is not None:
                    across.add(-terms[j])
                terms[j] = new**q
                total = across.add(terms[j]) ** (1.0 / q)
            if not (math.isfinite(new) and math.isfinite(total)):
                raise ScaleRangeError(_SCALE_RANGE)
            norms[c] = total
    except OverflowError:  # a power, or a sum
        raise ScaleRangeError(_SCALE_RANGE) from None
    return norms


def _check_space(s: CoeffSeq, params: SpaceParams, kind: str) -> None:
    if params.kind != kind:
        raise ContractViolationError(f"space parameters are not of kind {kind!r}")
    if s and s.d != params.d:
        raise ContractViolationError(
            f"sequence dimension {s.d} != space dimension {params.d}"
        )


def matched_exponents(
    s1: float, p1: float, f2: SpaceParams, tau: float
) -> tuple[float, float]:
    """The measure exponent alpha = p1 * ((s2 - s1)/d - 1/p2) + 1 matching
    smoothness ``s1`` and inner exponent ``p1`` to the atom weights of
    ``f2``, and the smoothness gamma = s1 + d (1/tau - 1/p1)(1 - alpha) of
    the per-scale norm with exponents (tau, tau) that the weighted Lorentz
    norm then equals."""
    d = f2.d
    alpha = p1 * ((f2.s - s1) / d - _recip(f2.p)) + 1.0
    return alpha, s1 + d * (1.0 / tau - 1.0 / p1) * (1.0 - alpha)


def lorentz_equals_besov_check(
    s: CoeffSeq,
    s1: float,
    p1: float,
    f2: SpaceParams,
    tau: float,
) -> tuple[float, float, bool]:
    """Both sides of the weighted-Lorentz / per-scale norm identity.

    With the cube measure of exponent alpha = p1 * ((s2 - s1)/d - 1/p2) + 1
    and atom weights from ``f2``, the power-weight Lorentz norm with exponents
    (tau, tau) equals the per-scale norm with smoothness
    gamma = s1 + d (1/tau - 1/p1)(1 - alpha) and inner = outer = tau.

    Returns (lhs, rhs, ok), ok when the two agree to ``IDENTITY_TOL`` relative.
    """
    if not tau > 0 or math.isinf(tau):
        raise ContractViolationError("tau must be finite and > 0")
    if not p1 > 0 or math.isinf(p1):
        raise ContractViolationError("p1 must be finite and > 0")
    alpha, gamma = matched_exponents(s1, p1, f2, tau)
    lhs = lorentz_norm(
        s,
        MeasureSpec(alpha),
        LorentzParams(eta=WeightFn.power(tau), mu=tau, u=AtomWeights(f2)),
    )
    rhs = besov_norm(s, SpaceParams(gamma, tau, tau, f2.d, kind="besov"))
    ok = abs(lhs - rhs) <= IDENTITY_TOL * max(abs(lhs), abs(rhs), 1.0)
    return lhs, rhs, ok
