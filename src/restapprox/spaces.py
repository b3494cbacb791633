"""Sequence-space quasi-norms on dyadic cube coefficients.

Two families are implemented.  The aggregated family ("tl") integrates, over
the region decomposition induced by cube containment, the p-th power of a
q-aggregate of scale-normalized coefficients.  The per-scale family ("besov")
takes an inner p-sum within each scale and an outer q-sum across scales.  When
p == q the two quasi-norms coincide identically, which several tests pin.

Also provided: the canonical atom weights ``u(Q)`` (the norm of a normalized
indicator atom), and the identity check equating a weighted Lorentz norm with
a per-scale norm under the matched parameter map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .dyadic import (
    ContainmentForest,
    Cube,
    MeasureSpec,
    VolumePowers,
    integrate_power_of_cube_sum,
)
from .errors import ContractViolationError
from .lorentz import CoeffSeq, LorentzParams, lorentz_norm
from .weights import WeightFn

__all__ = [
    "SpaceParams",
    "AtomWeights",
    "tl_norm",
    "besov_norm",
    "space_norm",
    "lorentz_equals_besov_check",
]

_KINDS = ("tl", "besov")


def _recip(p: float) -> float:
    """1/p with the convention 1/inf = 0."""
    return 0.0 if math.isinf(p) else 1.0 / p


@dataclass(frozen=True)
class SpaceParams:
    """Smoothness s, inner exponent p, aggregation exponent q, dimension d."""

    s: float
    p: float
    q: float
    d: int
    kind: str = "tl"

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

    def describe(self) -> str:
        return f"{self.kind}(s={self.s}, p={self.p}, q={self.q}, d={self.d})"


@dataclass(frozen=True)
class AtomWeights:
    """u(Q) = |Q|^e where e is the space's atom exponent.

    Callable on cubes, so it can serve directly as the ``u`` argument of the
    Lorentz-norm functions.  Each power is computed once per cube volume.
    """

    space: SpaceParams
    _powers: VolumePowers = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_powers", VolumePowers(self.space.atom_exponent))

    def __call__(self, cube: Cube) -> float:
        if cube.d != self.space.d:
            raise ContractViolationError(
                f"cube dimension {cube.d} != space dimension {self.space.d}"
            )
        return self._powers(cube)


def tl_norm(s: CoeffSeq, params: SpaceParams) -> float:
    """Aggregated quasi-norm over the containment region decomposition.

    Coefficients are scale-normalized to b_Q = |Q|^(-s/d - 1/2) |s_Q|; on each
    region the q-aggregate of the b_Q of containing cubes is constant, so the
    p-th-moment integral is an exact finite sum.  ``q = inf`` replaces the
    chain sums by chain maxima.
    """
    _check_space(s, params, "tl")
    if not s:
        return 0.0
    scale = VolumePowers(params.coeff_exponent)
    if math.isinf(params.q):
        forest = ContainmentForest(s.support)
        b = {q: scale(q) * abs(s[q]) for q in s.support}
        maxima = forest.chain_maxima(b)
        constants = [m**params.p for m in maxima]
        return forest.region_integral(constants) ** (1.0 / params.p)
    powered = {q: (scale(q) * abs(v)) ** params.q for q, v in s.items()}
    return integrate_power_of_cube_sum(powered, params.p / params.q, params.p)


def besov_norm(s: CoeffSeq, params: SpaceParams) -> float:
    """Per-scale quasi-norm: inner p-sum within a scale, outer q-sum across.

    Coefficients are normalized by |Q|^(-s/d + 1/p - 1/2) so that a unit atom
    has norm |Q|^(-s/d + 1/p - 1/2) as well.
    """
    _check_space(s, params, "besov")
    if not s:
        return 0.0
    scale = VolumePowers(params.atom_exponent)
    by_scale: dict[int, list[float]] = {}
    for cube, value in s.items():
        by_scale.setdefault(cube.j, []).append(scale(cube) * abs(value))
    inner: list[float] = []
    for j in sorted(by_scale):
        terms = by_scale[j]
        if math.isinf(params.p):
            inner.append(max(terms))
        else:
            inner.append(
                math.fsum(t**params.p for t in terms) ** (1.0 / params.p)
            )
    if math.isinf(params.q):
        return max(inner)
    return math.fsum(v**params.q for v in inner) ** (1.0 / params.q)


def space_norm(s: CoeffSeq, params: SpaceParams) -> float:
    """Dispatch to the norm named by ``params.kind``."""
    return tl_norm(s, params) if params.kind == "tl" else besov_norm(s, params)


def _check_space(s: CoeffSeq, params: SpaceParams, kind: str) -> None:
    if params.kind != kind:
        raise ContractViolationError(f"space parameters are not of kind {kind!r}")
    if s and s.d != params.d:
        raise ContractViolationError(
            f"sequence dimension {s.d} != space dimension {params.d}"
        )


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

    Returns (lhs, rhs, ok) with ok true when the two agree to 1e-10 relative.
    """
    if not tau > 0 or math.isinf(tau):
        raise ContractViolationError("tau must be finite and > 0")
    if not p1 > 0 or math.isinf(p1):
        raise ContractViolationError("p1 must be finite and > 0")
    d = f2.d
    alpha = p1 * ((f2.s - s1) / d - _recip(f2.p)) + 1.0
    gamma = s1 + d * (1.0 / tau - 1.0 / p1) * (1.0 - alpha)
    lhs = lorentz_norm(
        s,
        MeasureSpec(alpha),
        LorentzParams(eta=WeightFn.power(tau), mu=tau, u=AtomWeights(f2)),
    )
    rhs = besov_norm(s, SpaceParams(gamma, tau, tau, d, kind="besov"))
    ok = abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs), 1.0)
    return lhs, rhs, ok
