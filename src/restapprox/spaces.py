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

from .dyadic import ContainmentForest, Cube, MeasureSpec, VolumePowers
from .errors import ContractViolationError, ScaleRangeError
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
    p-th-moment integral is an exact finite sum over the regions of the
    containment forest.  The region constant is the chain sum of b_Q^q raised
    to p/q or, for ``q = inf``, the chain maximum of b_Q raised to p.  Raises
    ScaleRangeError when a term, a chain value, a constant, the integral or
    the norm exceeds the float range.
    """
    _check_space(s, params, "tl")
    if not s:
        return 0.0
    entries = s.entries
    forest = ContainmentForest(entries)
    scale = VolumePowers(params.coeff_exponent)
    b = [scale(q) * abs(entries[q]) for q in forest.cubes]
    try:
        if math.isinf(params.q):
            chains = forest.chain_maxima(b)
            exponent = params.p
        else:
            chains = forest.chain_values([x**params.q for x in b])
            exponent = params.p / params.q
        constants = [c**exponent if c > 0.0 else 0.0 for c in chains]
    except OverflowError:  # a finite power past the float range
        raise ScaleRangeError("a scaled coefficient exceeds the float range") from None
    # An infinite term or chain value gives an infinite constant, for which
    # region_integral raises.  Rounding can leave a tiny negative residue
    # when the integral is zero.
    integral = max(forest.region_integral(constants), 0.0)
    try:
        return integral ** (1.0 / params.p)
    except OverflowError:  # p < 1 raises the integral to a power above 1
        raise ScaleRangeError("the norm exceeds the float range") from None


def _aggregate(values: list[float], p: float) -> float:
    """(sum of v^p)^(1/p), or the max for p = inf; raises ScaleRangeError
    when a power, the sum or the result exceeds the float range."""
    try:
        if math.isinf(p):
            total = max(values)
        else:
            total = math.fsum([v**p for v in values]) ** (1.0 / p)
    except OverflowError:  # a power, or a partial of the sum
        total = math.inf
    if not math.isfinite(total):
        raise ScaleRangeError("a per-scale norm term exceeds the float range")
    return total


def besov_norm(s: CoeffSeq, params: SpaceParams) -> float:
    """Per-scale quasi-norm: inner p-sum within a scale, outer q-sum across.

    Coefficients are normalized by |Q|^(-s/d + 1/p - 1/2) so that a unit atom
    has norm |Q|^(-s/d + 1/p - 1/2) as well.  Raises ScaleRangeError when a
    term, a per-scale value or the norm exceeds the float range.
    """
    _check_space(s, params, "besov")
    if not s:
        return 0.0
    scale = VolumePowers(params.atom_exponent)
    by_scale: dict[int, list[float]] = {}
    for cube, value in s.items():
        by_scale.setdefault(cube.j, []).append(scale(cube) * abs(value))
    inner = [_aggregate(by_scale[j], params.p) for j in sorted(by_scale)]
    return _aggregate(inner, params.q)


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
