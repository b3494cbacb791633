"""Best approximation under a measure budget on the chosen support.

For a finite-support coefficient sequence, an approximant may use any subset
of cubes whose total measure stays within the budget; the optimal error is the
norm of the complement (restriction is optimal by lattice monotonicity of the
norms, so the search is over subsets of the support).  When the error norm has
equal inner and aggregation exponents it is additive across cubes, and the
search is a 0/1 knapsack: maximize captured additive weight subject to the
mass budget.

Provided solvers: exact search ("brute"), depth-first branch-and-bound with
a fractional relaxation bound ("knapsack"), and threshold greedy ("greedy",
an upper bound on the optimal error).  Both exact searches draw their
candidate supports and masses from one table (``_exact_candidates``, whose
one cap ``_EXACT_WORK`` bounds candidates x cubes): for an additive error norm
the Pareto frontier of (support mass, captured weight), built by
Nemhauser-Ullmann merging on exact integer sums, and otherwise every subset.
Brute sigma reads the table at the budget; exact profiles tabulate it.
Profiles give the error as a step function of the budget, which the norm and
constant computations consume.  Greedy profiles and greedy decompositions
read prefixes of one decreasing-|u_Q s_Q| order.  A greedy profile's errors
are the norms of the suffixes of that order, which ``spaces.suffix_norms``
computes in one pass by inserting cubes from the end, so the profile costs
O(n * depth) instead of one norm per prefix.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Iterator

from .dyadic import Cube, ExactSum, MeasureSpec, nu_measure, pow2
from .dyadic import exact_ratio, log2_floor_ceil, scaled_ints
from .errors import CapabilityError, ContractViolationError, ScaleRangeError, finite
from .lorentz import CoeffSeq, LorentzParams, UWeights, lorentz_norm, u_function
from .spaces import SpaceParams, _aggregate, _scale_sizes, space_norm, suffix_norms
from .weights import WeightFn, step_aggregate

__all__ = [
    "ApproxParams",
    "SigmaResult",
    "SigmaProfile",
    "DecomposeResult",
    "sigma_exact",
    "sigma_greedy",
    "sigma_profile",
    "approx_norm",
    "approx_norm_dyadic",
    "decompose",
    "jackson_constant",
    "bernstein_constant",
]

# Candidate supports times cubes of an exact search: 2^12 subsets of 12 cubes.
_EXACT_WORK = 12 << 12
_BNB_NODE_CAP = 500_000
_AGGREGATE_RANGE = "the budget aggregate exceeds the float range"


@dataclass(frozen=True)
class ApproxParams:
    """Rate exponent xi, integrability mu, error space, and support measure."""

    xi: float
    mu: float
    space: SpaceParams
    measure: MeasureSpec

    def __post_init__(self) -> None:
        if not (self.xi > 0 and math.isfinite(self.xi)):
            raise ContractViolationError("xi must be finite and > 0")
        if not self.mu > 0:
            raise ContractViolationError("mu must be > 0 (math.inf allowed)")


@dataclass(frozen=True)
class SigmaResult:
    """Error, chosen support, and provenance of one budgeted approximation."""

    error: float
    support: tuple[Cube, ...]
    certified: bool
    nodes: int = 0
    """Brute mode's candidate supports, at most ``_EXACT_WORK`` over the cube
    count, or the nodes branch and bound visited."""


@dataclass(frozen=True)
class SigmaProfile:
    """Step function of the budget: error ``errors[k]`` holds on
    ``[breakpoints[k], breakpoints[k+1])`` and 0 from the last breakpoint on.
    """

    breakpoints: tuple[float, ...]
    errors: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.breakpoints) != len(self.errors) + 1:
            raise ContractViolationError("need exactly one more breakpoint than errors")
        if not self.breakpoints or self.breakpoints[0] != 0.0:
            raise ContractViolationError("breakpoints must start at 0")
        for a, b in zip(self.breakpoints, self.breakpoints[1:]):
            if not b > a:
                raise ContractViolationError("breakpoints must strictly increase")
        if not all(err >= 0.0 for err in self.errors):
            raise ContractViolationError("profile errors must be >= 0")
        slack = 1e-9 * max(1.0, self.errors[0] if self.errors else 0.0)
        for e0, e1 in zip(self.errors, self.errors[1:]):
            if e1 > e0 + slack:
                raise ContractViolationError("profile errors must not increase")

    def value_at(self, t: float) -> float:
        if t < 0:
            raise ContractViolationError("budget must be >= 0")
        idx = bisect_right(self.breakpoints, t) - 1
        return self.errors[idx] if idx < len(self.errors) else 0.0

    def norm(self, xi: float, mu: float) -> float:
        """Budget-weighted aggregate of the profile: the integral of [t^xi
        sigma(t)]^mu dt/t to the power 1/mu, or sup_t t^xi sigma(t) for mu =
        inf.  That is the Lorentz norm's step aggregate
        (:func:`restapprox.weights.step_aggregate`) of the errors, with the
        power weight t^xi = ``WeightFn.power(1/xi)``.  Every range error, a
        weight integral's included, is the budget aggregate's.
        """
        if not (xi > 0 and 1.0 / xi < math.inf):
            raise ContractViolationError("xi must be > 0, with 1/xi finite")
        args = (WeightFn.power(1.0 / xi), mu, self.breakpoints[1:], self.errors)
        try:
            return finite(lambda: step_aggregate(*args), _AGGREGATE_RANGE)
        except ScaleRangeError:
            raise ScaleRangeError(_AGGREGATE_RANGE) from None

    def norm_dyadic(self, xi: float, mu: float) -> float:
        """Dyadic-budget aggregate: sum of [2^(k xi) sigma(2^k)]^mu over integers k.

        Budgets at or above the first breakpoint are evaluated explicitly; the
        infinite tail of smaller budgets, where the error is constantly the
        full norm, is summed as a geometric series in closed form.
        """
        # the profile is 0 from the breakpoint after its last positive error
        last = max((k for k, err in enumerate(self.errors) if err > 0), default=-1)
        if last < 0:
            return 0.0
        k_min = log2_floor_ceil(self.breakpoints[1])[0]
        k_up = log2_floor_ceil(self.breakpoints[last + 1])[1]
        full = self.errors[0]

        def aggregate() -> float:
            if math.isinf(mu):
                best = full * pow2((k_min - 1) * xi)
                for k in range(k_min, k_up):
                    best = max(best, self.value_at(pow2(k)) * pow2(k * xi))
                return best
            x = xi * mu
            tail = full**mu * pow2(k_min * x) / math.expm1(x * math.log(2.0))
            explicit = math.fsum(
                (self.value_at(pow2(k)) * pow2(k * xi)) ** mu
                for k in range(k_min, k_up)
            )
            return (tail + explicit) ** (1.0 / mu)

        return finite(aggregate, _AGGREGATE_RANGE)


@dataclass(frozen=True)
class DecomposeResult:
    """Dyadic-budget pieces (k, s_k) with sum s, and their rate score."""

    pieces: tuple[tuple[int, CoeffSeq], ...]
    score: float


def _is_additive(space: SpaceParams) -> bool:
    return space.p == space.q and math.isfinite(space.p)


def _additive_weights(cubes: list[Cube], values: list[float], space: SpaceParams):
    """(|Q|^e |s_Q|)^p per cube of the non-empty support ``cubes``, with one
    atom power per scale, at the cubes' own dimension.  A power past the
    float range gives inf, the value an overflowing product already gives."""
    js = [q.j for q in cubes]
    sizes = _scale_sizes(js, space.atom_powers, cubes[0].d)
    weights = []
    for j, v in zip(js, values):
        term = sizes[j] * abs(v)
        try:
            weights.append(term**space.p)
        except OverflowError:
            weights.append(math.inf)
    return weights


def _sorted_entries(s: CoeffSeq) -> tuple[list[Cube], list[float]]:
    cubes = list(s.support)
    return cubes, [s[q] for q in cubes]


def _greedy_order(cubes: list[Cube], values: list[float], u: UWeights) -> list[int]:
    """Indices in decreasing |u_Q s_Q|, ties broken by index."""
    weight = u_function(u)
    return sorted(
        range(len(cubes)), key=lambda i: (-abs(weight(cubes[i]) * values[i]), i)
    )


def _subset_errors(
    s: CoeffSeq, cubes: list[Cube], space: SpaceParams, masks: Iterable[int]
) -> Iterator[float]:
    """The error of each bitmask support: the norm of what it leaves out."""
    n = len(cubes)
    for mask in masks:
        yield space_norm(s.without(cubes[i] for i in range(n) if mask >> i & 1), space)


def _check_work(candidates: int, n: int) -> None:
    if candidates * n > _EXACT_WORK:
        raise CapabilityError(
            "brute mode and exact profiles handle at most "
            f"{_EXACT_WORK} candidate supports x cubes"
        )


def _pareto_frontier(
    masses: list[float], weights: list[float]
) -> tuple[list[float], list[int]]:
    """All Pareto-optimal (mass, captured-weight) subsets, mass-ascending.

    Nemhauser-Ullmann merging (1969): starting from the empty set, each item
    merges the frontier with a copy of itself shifted by that item, and drops
    every point whose weight does not strictly increase with mass.  Sums are
    exact integers, and of subsets with equal mass and weight the smallest
    bitmask is kept.  Returns the masses (exact sums rounded once) and masks
    of subsets whose captured weights strictly increase with mass, the first
    the empty set; raises CapabilityError once a step passes ``_EXACT_WORK``.
    """
    n = len(masses)
    mass_ints, mass_shift = scaled_ints(masses)
    weight_ints, _ = scaled_ints(weights)
    # Points (mass, -weight, mask) sort by mass up, weight down, mask up.
    front = [(0, 0, 0)]
    for i, (m, w) in enumerate(zip(mass_ints, weight_ints)):
        bit = 1 << i
        front += [(a + m, b - w, mask | bit) for a, b, mask in front]
        front.sort()
        kept = []
        best = 1
        for point in front:
            if point[1] < best:
                best = point[1]
                kept.append(point)
        front = kept
        _check_work(len(front), n)
    den = 1 << mass_shift
    return [a / den for a, _, _ in front], [mask for _, _, mask in front]


def _exact_candidates(
    cubes: list[Cube], values: list[float], masses: list[float], space: SpaceParams
) -> tuple[list[float], list[int] | range]:
    """The masses and bitmasks of an exact search's candidate supports.

    For an additive error norm these are the Pareto frontier's
    (``_pareto_frontier``); otherwise every subset, in ascending mask order.
    Each mass is its exact sum rounded once: ``math.fsum``'s, bit for bit.
    Raises CapabilityError when candidates x cubes passes ``_EXACT_WORK``
    (checked before the 2^n table is built and after each merge step), and
    ContractViolationError when a captured weight is infinite.
    """
    n = len(cubes)
    if not _is_additive(space):
        _check_work(1 << n, n)
        mass_ints, shift = scaled_ints(masses)
        table = [0]
        for m in mass_ints:
            table += [t + m for t in table]
        den = 1 << shift
        return [t / den for t in table], range(1 << n)
    weights = _additive_weights(cubes, values, space)
    if not all(map(math.isfinite, weights)):
        raise ContractViolationError(
            "brute mode and exact profiles need finite captured weights"
        )
    return _pareto_frontier(masses, weights)


def _dantzig_bound(masses: list[float], weights: list[float]):
    """Fractional-relaxation bound over items in decreasing weight density.

    Prefix sums of the masses and of the weights are exact integers, so the
    items that fit whole are found by one bisect and a bound costs O(log n)
    (Martello & Toth 1990, *Knapsack Problems*, ch. 2).  Infinite weights
    have infinite density and lead the order; they count as 0 in the sums.
    Returns ``bound(level, cur_mass, cur_w, budget)`` for the items from
    ``level`` on.
    """
    n = len(masses)
    mass_ints, mass_shift = scaled_ints(masses)
    mp = list(accumulate(mass_ints, initial=0))
    finite = [w if math.isfinite(w) else 0.0 for w in weights]
    weight_ints, weight_shift = scaled_ints(finite)
    wp = list(accumulate(weight_ints, initial=0))
    infinite = sum(map(math.isinf, weights))

    def bound(level: int, cur_mass: float, cur_w: float, budget: float) -> float:
        room = budget - cur_mass
        # Items level..r-1 fit whole: exact mass <= room floored to the mass grid.
        whole = 0.0
        r = level
        if masses[level] <= room:
            num, shift = exact_ratio(room)
            r = bisect_right(mp, mp[level] + (num << mass_shift >> shift), level) - 1
            if level < infinite:
                whole = math.inf
            else:
                try:
                    whole = (wp[r] - wp[level]) / (1 << weight_shift)
                except OverflowError:
                    whole = math.inf
        value = cur_w + whole
        if r < n:
            left = room - (mp[r] - mp[level]) / (1 << mass_shift)
            value += weights[r] * (left / masses[r])
        # Summed item by item in floats, the same bound can exceed the exact
        # one by a relative 2^-52 per item; raising it by 2^-51 per remaining
        # item keeps it at or above that sum.
        return value * (1.0 + (n - level + 4) * 2.0**-51)

    return bound


def _branch_and_bound(masses: list[float], weights: list[float], budget: float):
    """Depth-first 0/1 knapsack with a fractional relaxation bound.

    Items are visited in decreasing weight density; the include branch is
    explored first so the incumbent improves early.  Returns
    (best_weight, chosen original indices, certified, nodes); ``certified`` is
    False when the node cap stopped the search before exhausting it.
    """
    n = len(masses)
    order = sorted(range(n), key=lambda i: (-(weights[i] / masses[i]), i))
    m = [masses[i] for i in order]
    w = [weights[i] for i in order]
    bound_at = _dantzig_bound(m, w)
    best_w = 0.0
    best_sel = None
    nodes = 0
    certified = True
    # Stack of (level, mass so far, weight so far, chosen levels); the include
    # branch is pushed last so it pops first.  The chosen levels are a linked
    # chain (last level, earlier chain) or None, so an include costs O(1)
    # instead of a copy of the whole selection.
    stack = [(0, 0.0, 0.0, None)]
    while stack:
        nodes += 1
        if nodes > _BNB_NODE_CAP:
            certified = False
            break
        level, cur_mass, cur_w, sel = stack.pop()
        if cur_w > best_w:
            best_w = cur_w
            best_sel = sel
        if level == n:
            continue
        # Inflating the bound by 1e-12 relative dominates the rounding of the
        # incumbent's float sums, so pruning never discards a subtree that
        # could beat the incumbent.
        bound = bound_at(level, cur_mass, cur_w, budget)
        if bound * (1.0 + 1e-12) <= best_w:
            continue
        stack.append((level + 1, cur_mass, cur_w, sel))
        if cur_mass + m[level] <= budget:
            stack.append(
                (level + 1, cur_mass + m[level], cur_w + w[level], (level, sel))
            )
    levels = []
    while best_sel is not None:
        level, best_sel = best_sel
        levels.append(level)
    chosen = tuple(order[i] for i in reversed(levels))
    return best_w, chosen, certified, nodes


def sigma_exact(
    s: CoeffSeq, budget: float, params: ApproxParams, mode: str = "knapsack"
) -> SigmaResult:
    """Optimal budgeted approximation error and an optimal support.

    ``mode="brute"`` searches ``_exact_candidates`` (candidates x cubes at
    most ``_EXACT_WORK``; captured weights finite when the error norm is
    additive): it reads the Pareto frontier at the budget, or takes the first
    least error over every subset that fits.  ``mode="knapsack"`` runs branch
    and bound and requires an additive error norm (p == q); its ``certified``
    flag reports whether the search completed within the node cap.  ``nodes``
    counts brute mode's candidates or the nodes branch and bound visited.
    """
    if not (budget >= 0 and math.isfinite(budget)):
        raise ContractViolationError("budget must be finite and >= 0")
    if mode not in ("brute", "knapsack"):
        raise ContractViolationError("mode must be 'brute' or 'knapsack'")
    cubes, values = _sorted_entries(s)
    n = len(cubes)
    if n == 0:
        return SigmaResult(0.0, (), True)
    masses = [params.measure(q) for q in cubes]
    additive = _is_additive(params.space)
    if mode == "brute":
        table, masks = _exact_candidates(cubes, values, masses, params.space)
        if additive:
            # Frontier masses ascend exactly, so their roundings never
            # decrease, and weights rise with them: the last mask that fits is
            # a max-weight feasible support (the empty set always fits).
            best_mask = masks[bisect_right(table, budget) - 1]
        else:
            # The first least error: the empty set always fits, masks ascend.
            fits = [mask for mass, mask in zip(table, masks) if mass <= budget]
            errors = _subset_errors(s, cubes, params.space, fits)
            best_mask = min(zip(errors, fits), key=lambda point: point[0])[1]
        support = [cubes[i] for i in range(n) if best_mask >> i & 1]
        nodes = len(masks)
        certified = True
    else:
        if not additive:
            raise CapabilityError(
                "knapsack mode requires an additive error norm (p == q < inf)"
            )
        weights = _additive_weights(cubes, values, params.space)
        _, chosen, certified, nodes = _branch_and_bound(masses, weights, budget)
        support = [cubes[i] for i in chosen]
    support = tuple(sorted(support))
    error = space_norm(s.without(support), params.space)
    return SigmaResult(error, support, certified, nodes)


def sigma_greedy(
    s: CoeffSeq, budget: float, params: ApproxParams, u: UWeights = None
) -> SigmaResult:
    """Threshold greedy: admit cubes in decreasing |u_Q s_Q| while they fit.

    A cube that does not fit is skipped and later (smaller-mass) cubes are
    still considered.  The error is an upper bound on the optimum, so the
    result is never marked certified.
    """
    if not (budget >= 0 and math.isfinite(budget)):
        raise ContractViolationError("budget must be finite and >= 0")
    cubes, values = _sorted_entries(s)
    kept: list[Cube] = []
    kept_mass = ExactSum()
    for i in _greedy_order(cubes, values, u):
        mass = params.measure(cubes[i])
        if kept_mass.value + mass <= budget:
            kept.append(cubes[i])
            kept_mass.add(mass)
    support = tuple(sorted(kept))
    error = space_norm(s.without(support), params.space)
    return SigmaResult(error, support, certified=False)


def sigma_profile(
    s: CoeffSeq, params: ApproxParams, solver: str = "greedy", u: UWeights = None
) -> SigmaProfile:
    """Error as a step function of the budget.

    Exact solvers ("brute"/"knapsack") give the true optimal error at every
    budget: they pair the masses of ``_exact_candidates`` (the Pareto
    frontier, or every subset when the error norm is not additive, under one
    cap) with each candidate's error from ``space_norm``.
    "greedy" tabulates the prefixes in decreasing |u_Q s_Q|, giving the
    greedy upper bound at every budget.  A prefix's error is the norm of the
    suffix it leaves, and ``spaces.suffix_norms`` gives all n + 1 of them,
    bit for bit, from one pass over one containment forest: O(n * depth)
    instead of one norm per prefix.
    """
    _check_solver(solver)
    cubes, values = _sorted_entries(s)
    if not cubes:
        return SigmaProfile((0.0,), ())
    masses = [params.measure(q) for q in cubes]
    if solver == "greedy":
        order = _greedy_order(cubes, values, u)
        errors = suffix_norms(s, params.space, [cubes[i] for i in order])
        ends = map(ExactSum().add, [masses[i] for i in order])  # prefix masses
        raw = [(0.0, errors[0]), *zip(ends, errors[1:])]
    else:
        table, masks = _exact_candidates(cubes, values, masses, params.space)
        raw = list(zip(table, _subset_errors(s, cubes, params.space, masks)))
    return _lower_envelope(raw)


def _check_solver(solver: str) -> None:
    if solver not in ("greedy", "brute", "knapsack"):
        raise ContractViolationError("solver must be 'greedy', 'brute', or 'knapsack'")


def _lower_envelope(raw: list[tuple[float, float]]) -> SigmaProfile:
    """The profile of tabulated (support mass, error) points.

    Re-sorting by the correctly rounded masses and keeping strict error
    improvements makes the step function well defined even when two supports
    round to the same total mass.
    """
    raw.sort()
    points: list[tuple[float, float]] = []
    best = math.inf
    for mass, err in raw:
        if err < best:
            best = err
            points.append((mass, err))
    breakpoints = tuple(mass for mass, _ in points)
    errors = tuple(err for _, err in points[:-1])
    return SigmaProfile(breakpoints, errors)


def approx_norm(
    s: CoeffSeq, params: ApproxParams, solver: str = "greedy", u: UWeights = None
) -> float:
    """Budget-weighted aggregate of the error profile (``SigmaProfile.norm``)."""
    return sigma_profile(s, params, solver, u).norm(params.xi, params.mu)


def approx_norm_dyadic(
    s: CoeffSeq, params: ApproxParams, solver: str = "greedy", u: UWeights = None
) -> float:
    """Dyadic-budget aggregate of the error profile (``SigmaProfile.norm_dyadic``)."""
    return sigma_profile(s, params, solver, u).norm_dyadic(params.xi, params.mu)


def decompose(
    s: CoeffSeq, params: ApproxParams, solver: str = "greedy", u: UWeights = None
) -> DecomposeResult:
    """Split s into pieces s_k of near-doubling support mass.

    With phi_k the chosen approximant at budget 2^(k-1), the piece
    s_k = phi_k - phi_{k-1} has support mass at most 2^(k-1) + 2^(k-2) <= 2^k,
    and the pieces telescope exactly back to s.  The greedy approximant at a
    budget is the longest prefix of the decreasing-|u_Q s_Q| order that greedy
    profiles tabulate whose mass fits, so greedy pieces are disjoint runs of
    that order; exact solvers take ``sigma_exact``'s support.  At the last
    budget, which covers the total mass, every solver takes the whole
    support.  Each piece lists its cubes in cube order.  The score
    aggregates 2^(k xi) ||s_k|| with exponent mu.
    """
    _check_solver(solver)
    cubes, values = _sorted_entries(s)
    if not cubes:
        return DecomposeResult((), 0.0)
    masses = [params.measure(q) for q in cubes]
    total = math.fsum(masses)
    smallest = min(masses)
    k_lo = log2_floor_ceil(smallest)[1]
    k_hi = log2_floor_ceil(total)[1] + 1
    ks = range(k_lo + 1, k_hi + 1)
    if solver == "greedy":
        order = _greedy_order(cubes, values, u)
        ends = list(map(ExactSum().add, [masses[i] for i in order]))
        supports = [
            frozenset(cubes[i] for i in order[: bisect_right(ends, pow2(k - 1))])
            for k in ks[:-1]
        ]
    else:
        supports = [
            frozenset(sigma_exact(s, pow2(k - 1), params, mode=solver).support)
            for k in ks[:-1]
        ]
    # The last budget covers the total mass, where the whole support leaves
    # error 0: an optimum for every solver, even when a cube's captured
    # weight underflows to 0 and an exact search leaves it out.
    supports.append(frozenset(cubes))
    previous: frozenset[Cube] = frozenset()
    pieces: list[tuple[int, CoeffSeq]] = []
    for k, current in zip(ks, supports):
        piece = CoeffSeq(
            {q: s[q] if q in current else -s[q] for q in sorted(current ^ previous)}
        )
        if piece:
            pieces.append((k, piece))
        previous = current
    norms = [
        pow2(k * params.xi) * space_norm(piece, params.space) for k, piece in pieces
    ]
    score = _aggregate(norms, params.mu, _AGGREGATE_RANGE)
    return DecomposeResult(tuple(pieces), score)


def jackson_constant(
    suite: Iterable[CoeffSeq],
    params: ApproxParams,
    lorentz: LorentzParams,
    solver: str = "greedy",
) -> float:
    """Largest ratio sup_t t^xi sigma(t) / ||s||_Lorentz over the suite.

    Greedy profiles overestimate sigma, so the returned constant is an upper
    bound for the true one; exact solvers give it exactly on small supports.
    """
    _check_solver(solver)
    best = 0.0
    for s in suite:
        if not s:
            continue
        profile = sigma_profile(s, params, solver, u=lorentz.u)
        numerator = profile.norm(params.xi, math.inf)
        denominator = lorentz_norm(s, params.measure, lorentz)
        if denominator == 0:
            raise ContractViolationError("suite member with zero Lorentz norm")
        best = max(best, numerator / denominator)
    return best


def bernstein_constant(
    suite: Iterable[CoeffSeq],
    params: ApproxParams,
    lorentz: LorentzParams,
) -> float:
    """Largest ratio ||s||_Lorentz / (nu(supp s)^xi ||s||_error) over the suite."""
    best = 0.0
    for s in suite:
        if not s:
            continue
        numerator = lorentz_norm(s, params.measure, lorentz)
        mass = nu_measure(s.support, params.measure)
        denominator = finite(
            lambda: mass**params.xi * space_norm(s, params.space), _AGGREGATE_RANGE
        )
        if denominator == 0:
            raise ContractViolationError("suite member with zero error norm")
        best = max(best, numerator / denominator)
    return best
