"""Reference forms that only the tests use: the distribution-function form of
the Lorentz quasi-norm, point reads of a step rearrangement, the dilation
function sampled on a grid, the per-step power integral and weight sup, and
cube containment."""

from __future__ import annotations

import math
from bisect import bisect_right

from restapprox import (
    CoeffSeq,
    Cube,
    LorentzParams,
    MeasureSpec,
    StepRearrangement,
    WeightFn,
    rearrange,
)
from restapprox.errors import (
    ContractViolationError,
    DivergenceError,
    ScaleRangeError,
    finite,
)
from restapprox.lorentz import _NORM_RANGE
from restapprox.weights import _INTEGRAL_RANGE


def contains(big: Cube, small: Cube) -> bool:
    """Whether ``big`` contains ``small`` (non-strict)."""
    if small.d != big.d:
        raise ContractViolationError("cubes of different dimension")
    shift = small.j - big.j
    if shift < 0:
        return False
    return all((ks >> shift) == kb for ks, kb in zip(small.k, big.k))


def total_mass(steps: StepRearrangement) -> float:
    return steps.masses[-1] if steps.masses else 0.0


def value_at(steps: StepRearrangement, t: float) -> float:
    """The step function's value at t >= 0."""
    idx = bisect_right(steps.masses, t)
    return steps.values[idx] if idx < len(steps.values) else 0.0


def distribution(s: CoeffSeq, measure: MeasureSpec, lam: float) -> float:
    """Mass of the strict super-level set { I : |s_I| > lam }."""
    return math.fsum(measure(cube) for cube, value in s.items() if abs(value) > lam)


def lorentz_norm_via_distribution(
    s: CoeffSeq, measure: MeasureSpec, params: LorentzParams
) -> float:
    """The distribution-function form of the quasi-norm.

    The super-level mass is a step function of the level, so the integral is a
    finite sum of monomial integrals between consecutive distinct magnitudes.
    It equals the rearrangement form up to equivalence constants that depend
    only on the weight.  A norm or a term past the float range raises
    ScaleRangeError.
    """
    steps = rearrange(s, measure, params.u)
    if not steps.masses:
        return 0.0
    w = params.combined_weight
    values = steps.values + (0.0,)
    if math.isinf(params.mu):
        return finite(
            lambda: max(
                value * w.value(mass)
                for value, mass in zip(steps.values, steps.masses)
            ),
            _NORM_RANGE,
        )
    mu = params.mu
    return finite(
        lambda: math.fsum(
            w.value(mass) ** mu * (values[k] ** mu - values[k + 1] ** mu) / mu
            for k, mass in enumerate(steps.masses)
        )
        ** (1.0 / mu),
        _NORM_RANGE,
    )


def scanned_dilation(
    w: WeightFn, s: float, t_min: float, t_max: float, n: int
) -> float:
    """sup of eta(s*t)/eta(t) over n log-spaced t in [t_min, t_max]: a lower
    bound of the dilation function M(s), as a cross-check of its closed
    form."""
    lo, hi = math.log(t_min), math.log(t_max)
    best = 0.0
    for i in range(n):
        t = math.exp(lo + (hi - lo) * i / (n - 1))
        denom = w.value(t)
        if denom > 0:
            best = max(best, w.value(s * t) / denom)
    return best


def power_integral(w: WeightFn, mu: float, a: float, b: float) -> float:
    """integral over [a, b] (0 <= a <= b) of t^e dt/t for the power weight
    eta = t^c, e = c mu, one step at a time with both powers recomputed:
    (b^e - a^e) / e or, where the two powers would cancel, a^e expm1(e L) / e
    with L = log(b/a): log1p((b - a) / a) on a narrow step (b <= 2a, e != 1),
    and log(b / a), or log b - log a when b / a overflows, where e < 1 and
    (b/a)^e <= 2.  A result past the float range raises ScaleRangeError."""
    e = w.power_exponent * mu
    if e <= 0:
        raise DivergenceError("eta(t)^mu / t is not integrable at 0")
    if a == b:
        return 0.0
    try:
        if e != 1.0 and b <= 2.0 * a:
            total = a**e * math.expm1(e * math.log1p((b - a) / a)) / e
        elif e < 1.0 and b**e <= 2.0 * a**e:
            ratio = b / a
            log = math.log(ratio) if ratio < math.inf else math.log(b) - math.log(a)
            total = a**e * math.expm1(e * log) / e
        else:
            total = (b**e - a**e) / e
    except OverflowError:
        raise ScaleRangeError(_INTEGRAL_RANGE) from None
    if not math.isfinite(total):
        raise ScaleRangeError(_INTEGRAL_RANGE)
    return total


def sup_on_interval(w: WeightFn, a: float, b: float) -> float:
    """max of eta over [a, b] (0 <= a <= b) from its candidates, each value
    recomputed: both ends, t = 1, and the powerlog family's interior maximum
    on (0, 1).  b comes first, so a nan value there (eta(oo) at b < 0) is the
    result."""
    candidates = [b, a]
    if w.family == "powerlog":
        c = w.power_exponent
        if a < 1.0 < b:
            candidates.append(1.0)
        if w.b > c:  # critical point of t^c (1 - log t)^b on (0, 1)
            candidates.append(math.exp(1.0 - w.b / c))
    return max(w.value(t) for t in candidates if a <= t <= b)
