"""Reference forms that only the tests use: the distribution-function form of
the Lorentz quasi-norm, point reads of a step rearrangement, and the
dilation function sampled on a grid."""

from __future__ import annotations

import math
from bisect import bisect_right

from restapprox import (
    CoeffSeq,
    LorentzParams,
    MeasureSpec,
    StepRearrangement,
    WeightFn,
    rearrange,
)
from restapprox.errors import finite
from restapprox.lorentz import _NORM_RANGE


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
