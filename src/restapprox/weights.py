"""Weight functions for Lorentz-type quasi-norms.

Two concrete families are provided:

* ``power``      -- t^(1/p)
* ``powerlog``   -- t^(1/p) * (1 + |log t|)^b

Both vanish at 0 and are doubling.  The power family is always nondecreasing;
the powerlog family is nondecreasing exactly when |b| <= 1/p, and construction
records that membership instead of rejecting the others (the non-monotone
members are still useful: their dilation function is contracting, which is the
property the geometric-sum machinery actually consumes).

For both families the dilation function

    M(s) = sup_{t>0} eta(s*t) / eta(t)

has the closed form ``s^(1/p) * (1 + |log s|)^|b|``: the inner sup of
``(1 + |u + x|) / (1 + |x|)`` over x equals ``1 + |u|`` (attained at x = 0),
and for negative exponents the infimum ``1/(1+|u|)`` is attained instead.

The weight integrals of eta(t)^mu dt/t have a closed form for power weights.
For powerlog weights ``weight_integral`` runs scipy's ``quad`` on one step,
and ``weight_integrals`` runs the first step of ``quad`` on many steps at
once with numpy, handing ``quad`` only the steps it could not finish there.
scipy is imported by ``_quad_piece``, the one caller of ``quad``, when it
first runs, not with this module: power weights, the sigma solvers and the
tl/besov norms never load it, and its import would be most of the package's
start-up.

The power closed form (``_power_integrals``), the weight values
(``_values``) and the step sups (``_sups``) are each written once, as one
Python pass over a list of step ends that takes each end's ``pow`` or
``math.log`` once.  ``weight_integrals`` and ``weight_sups`` run them over a
whole rearrangement's steps, at every length; ``weight_integral`` and
``weight_sup_on_interval`` over one step.  The batched power-log pass's
intervals equal the one-step ``_log_pieces`` bit for bit: its logs are
libm's, through Python floats, because numpy's vector ``log`` and ``log1p``
can differ in the last bit, and numpy does only correctly rounded work on
them (differences, quotients, maxima, minima and comparisons).
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from itertools import islice, repeat
from typing import Sequence

import numpy as np

from .errors import (
    CapabilityError,
    ConfigError,
    ContractViolationError,
    DivergenceError,
    QuadratureError,
    ScaleRangeError,
)

__all__ = [
    "WeightFn",
    "geometric_sum_bound",
    "smoothed_weight",
    "boyd_lower_index",
    "weight_integral",
    "weight_integrals",
    "weight_sup_on_interval",
    "weight_sups",
]

# Certification scan: first s0 = 2^-m with M(s0) below this margin is stored.
# A margin well under 1 keeps the geometric tails short (factor-2 decay or
# better per step) without pushing s0 unnecessarily deep.
_DELTA_MARGIN = 0.5
_CERT_MAX_LEVEL = 60

# Tolerances of every power-log quadrature: scipy's quad, and the batched
# first step of weight_integrals, which accepts only where quad would stop.
_EPSABS = 1e-300
_EPSREL = 1e-11
_INTEGRAL_RANGE = "a weight integral exceeds the float range"

# QUADPACK's dqk21 (Piessens et al. 1983): the 21-point Kronrod abscissae on
# [0, 1) (the odd ones, 0-based, are the 10-point Gauss nodes; the centre 0 is
# the 21st), their Kronrod weights (the centre's last), and the Gauss weights.
_XGK = np.array((
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
))
_WGK = (
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208980544751, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_WG = (
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)
# dqk21 adds the Gauss abscissae's pairs first, then the Kronrod-only ones.
_DQK21_ORDER = (1, 3, 5, 7, 9, 0, 2, 4, 6, 8)
_EPMACH = sys.float_info.epsilon  # d1mach(4)
# How far numpy's exp and pow, against libm's, can move dqk21's
# |resk - resg|, relative to its resabs: each of the 21 values differs by a
# few ulps, and so can each of the 31 additions' roundings.
_ROUNDING_MARGIN = 64.0 * _EPMACH
# Intervals per numpy block: keeps the (21, block) temporaries near 1 MiB.
_GK_BLOCK = 1024


@dataclass(frozen=True)
class WeightFn:
    """One member of the power / powerlog weight families.

    Derived structural constants are properties, recomputed from ``p`` and
    ``b`` on every access (nothing is stored at construction):

    * ``doubling_constant``     -- exact sup of eta(2t)/eta(t);
    * ``certified_contraction`` -- a pair (s0, delta) with delta = M(s0) < 1,
      found by scanning up to ``_CERT_MAX_LEVEL`` dyadic levels per access;
    * ``nondecreasing``         -- monotonicity (the extra membership the
      smoothing bounds need).
    """

    family: str
    p: float
    b: float = 0.0

    def __post_init__(self) -> None:
        if self.family not in ("power", "powerlog"):
            raise ContractViolationError(f"unknown weight family {self.family!r}")
        if not (self.p > 0 and math.isfinite(self.p)):
            raise ContractViolationError("weight parameter p must be finite and > 0")
        if self.family == "power" and self.b != 0.0:
            raise ContractViolationError("power family takes no log exponent")
        if not math.isfinite(self.b):
            raise ContractViolationError("log exponent b must be finite")

    # -- constructors ------------------------------------------------------

    @classmethod
    def power(cls, p: float) -> "WeightFn":
        return cls("power", float(p))

    @classmethod
    def power_log(cls, p: float, b: float) -> "WeightFn":
        return cls("powerlog", float(p), float(b))

    @classmethod
    def parse(cls, spec: str) -> "WeightFn":
        """Parse ``power:p=2`` or ``powerlog:p=2,b=1``; other keys are errors."""
        try:
            family, _, params = spec.partition(":")
            family = family.strip()
            kv = {}
            for item in filter(str.strip, params.split(",")):
                key, _, value = item.partition("=")
                key = key.strip()
                if key in kv:
                    raise ValueError(f"repeated key {key!r}")
                kv[key] = float(value)
            if family == "power":
                weight = cls.power(kv.pop("p"))
            elif family == "powerlog":
                weight = cls.power_log(kv.pop("p"), kv.pop("b"))
            else:
                raise ValueError("unknown family")
            if kv:
                raise ValueError(f"unknown key {next(iter(kv))!r}")
        except (KeyError, ValueError, ContractViolationError) as exc:
            raise ConfigError(f"bad weight spec {spec!r}: {exc}") from exc
        return weight

    def spec_string(self) -> str:
        # repr keeps full float precision so parse() round-trips exactly
        if self.family == "power":
            return f"power:p={self.p!r}"
        return f"powerlog:p={self.p!r},b={self.b!r}"

    # -- basic structure ---------------------------------------------------

    @property
    def power_exponent(self) -> float:
        """The exponent 1/p of the pure power part."""
        return 1.0 / self.p

    @property
    def nondecreasing(self) -> bool:
        """Monotone on [0, oo); for powerlog this is exactly |b| <= 1/p."""
        if self.family == "power":
            return True
        return abs(self.b) <= self.power_exponent

    @property
    def doubling_constant(self) -> float:
        """Exact sup of eta(2t)/eta(t) = 2^(1/p) * (1 + log 2)^|b|."""
        base = 2.0**self.power_exponent
        if self.family == "power":
            return base
        return base * (1.0 + math.log(2.0)) ** abs(self.b)

    def value(self, t: float) -> float:
        if t < 0:
            raise ContractViolationError("weight argument must be >= 0")
        if t == 0.0:
            return 0.0
        tv = float(t) ** self.power_exponent
        if self.family == "power":
            return tv
        return tv * (1.0 + abs(math.log(t))) ** self.b

    def times_power(self, xi: float) -> "WeightFn":
        """The weight t^xi * eta(t), which stays inside the same family."""
        if xi < 0:
            raise ContractViolationError("extra power exponent must be >= 0")
        if xi == 0.0:
            return self
        new_p = 1.0 / (xi + self.power_exponent)
        if self.family == "power":
            return WeightFn.power(new_p)
        return WeightFn.power_log(new_p, self.b)

    # -- dilation and certification ---------------------------------------

    def dilation_closed_form(self, s: float) -> float:
        """M(s) = s^(1/p) * (1 + |log s|)^|b|, exact for both families."""
        if s <= 0:
            raise ContractViolationError("dilation argument must be > 0")
        base = float(s) ** self.power_exponent
        if self.family == "power":
            return base
        return base * (1.0 + abs(math.log(s))) ** abs(self.b)

    @property
    def certified_contraction(self) -> tuple[float, float] | None:
        """A pair (s0, delta) with delta = M(s0) < 1, or None.

        Found by scanning s0 = 2^-1, 2^-2, ... and accepting the first level
        whose dilation value clears a safety margin below 1.
        """
        for m in range(1, _CERT_MAX_LEVEL + 1):
            s0 = math.ldexp(1.0, -m)
            delta = self.dilation_closed_form(s0)
            if delta <= _DELTA_MARGIN:
                return s0, delta
        return None


def geometric_sum_bound(w: WeightFn, t: float, J: int) -> tuple[float, float]:
    """Partial sum sum_{j=0..J} eta(s0^j * t) and its bound eta(t)/(1-delta).

    The bound needs only the certified contraction: eta(s0^j t) <= M(s0^j)
    eta(t) <= delta^j eta(t) because M is submultiplicative on our families.
    """
    cert = w.certified_contraction
    if cert is None:
        raise CapabilityError(
            f"{w.spec_string()} has no certified contracting dilation step"
        )
    if J < 0:
        raise ContractViolationError("cutoff J must be >= 0")
    if t < 0:
        raise ContractViolationError("t must be >= 0")
    if t == 0.0:
        return 0.0, 0.0
    s0, delta = cert
    total = math.fsum(_values(w, [s0**j * t for j in range(J + 1)]))
    bound = w.value(t) / (1.0 - delta)
    return total, bound


def weight_sup_on_interval(w: WeightFn, a: float, b: float) -> float:
    """max of eta over [a, b] (0 <= a <= b): one step of :func:`_sups`."""
    if not (0 <= a <= b):
        raise ContractViolationError("need 0 <= a <= b")
    return _sups(w, [a, b])[0]


def weight_sups(w: WeightFn, masses: Sequence[float]) -> list[float]:
    """:func:`weight_sup_on_interval` on every step [masses[k-1], masses[k]],
    with masses[-1] read as 0."""
    return _sups(w, _step_ends(masses))


def _step_ends(masses: Sequence[float]) -> list[float]:
    """``[0.0, *masses]``, after checking that 0 <= a <= b on every step."""
    ends = [0.0, *masses]
    if not all(map(operator.le, ends, masses)):
        raise ContractViolationError("need 0 <= a <= b")
    return ends


def _values(w: WeightFn, ts: Sequence[float]) -> list[float]:
    """``w.value(t)`` for every t >= 0 of ``ts``, bit for bit, with each
    ``pow`` and ``math.log`` taken once.  A value past the float range raises
    OverflowError, as ``w.value`` does."""
    c = w.power_exponent
    if w.family == "power":
        return list(map(pow, ts, repeat(c)))
    b = w.b
    return [t**c * (1.0 + abs(math.log(t))) ** b if t > 0.0 else 0.0 for t in ts]


def _sups(w: WeightFn, ends: list[float]) -> list[float]:
    """The max of eta over every step [ends[k], ends[k+1]] of the ordered
    ``ends`` (>= 0): the larger of the two ends' values and, for the powerlog
    family, eta(1) = 1 on the step across the kink at t = 1 and the interior
    maximum on (0, 1) on the steps that hold it.  Its critical point on
    (1, oo), for b < -1/p, is a minimum, so it is no candidate.  A step takes
    its left end's value only where that is larger, so a nan at the right
    end (eta(oo) at b < 0) is the step's sup; with ordered ends no other
    value can be nan."""
    values = _values(w, ends)
    sups = [left if left > right else right for left, right in zip(values, values[1:])]
    if w.family == "powerlog":
        c = w.power_exponent
        peak = math.exp(1.0 - w.b / c) if w.b > c else None
        for k, (a, b) in enumerate(zip(ends, ends[1:])):
            if a < 1.0 < b:
                sups[k] = max(sups[k], 1.0)
            if peak is not None and a <= peak <= b:
                sups[k] = max(sups[k], w.value(peak))
    return sups


def _log_pieces(a: float, b: float) -> list[tuple[float, float, float, float]]:
    """The x-intervals of [a, b] on either side of t = 1, as
    (sign, x_lo, x_hi, width).

    t = e^(-x) maps (0, 1] onto [0, oo) (sign -1) and t = e^x maps [1, oo)
    onto [0, oo) (sign +1); x_hi is infinite exactly when a = 0.  ``width``
    is the length of the interval, log(hi / lo) for its side [lo, hi] of
    [a, b]: x_hi - x_lo, except on a narrow side (hi <= 2 lo), where the two
    rounded logs can cancel to a width off by far more than its own rounding.
    There hi - lo is exact (Sterbenz's lemma), and the width is
    log1p((hi - lo) / lo), within a few ulps.
    """
    pieces = []
    if a < 1.0:
        # t in [a, min(b,1)]  ->  x = -log t in [max(0,-log b), -log a]
        hi = min(b, 1.0)
        x_lo, x_hi = -math.log(hi), (math.inf if a == 0.0 else -math.log(a))
        width = math.log1p((hi - a) / a) if hi <= 2.0 * a else x_hi - x_lo
        pieces.append((-1.0, x_lo, x_hi, width))
    if b > 1.0:
        # t in [max(a,1), b]  ->  x = log t
        lo = max(a, 1.0)
        x_lo, x_hi = math.log(lo), math.log(b)
        width = math.log1p((b - lo) / lo) if b <= 2.0 * lo else x_hi - x_lo
        pieces.append((1.0, x_lo, x_hi, width))
    return pieces


def _log_piece_columns(
    ends: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`_log_pieces` of every step [ends[k-1], ends[k]], k >= 1, of the
    positive ``ends``, bit for bit and in its order, from one ``math.log``
    per end: ``sides`` (steps x 2) marks which of the side t <= 1 (sign -1)
    and the side t >= 1 (sign +1) each step has, and x_lo, x_hi and width
    list the marked sides step by step, left first.  The narrow sides'
    widths take one ``math.log1p`` each."""
    logs = np.array(list(map(math.log, ends.tolist())))
    a, b, log_a, log_b = ends[:-1], ends[1:], logs[:-1], logs[1:]
    sides = np.stack((a < 1.0, b > 1.0), axis=1)
    lo = np.stack((a, np.maximum(a, 1.0)), axis=1)[sides]
    hi = np.stack((np.minimum(b, 1.0), b), axis=1)[sides]
    # -log(min(b, 1)) and log(max(a, 1)) with log(1) = 0 written out
    x_lo = np.stack((-np.where(b < 1.0, log_b, 0.0), np.where(a > 1.0, log_a, 0.0)), 1)
    x_lo, x_hi = x_lo[sides], np.stack((-log_a, log_b), axis=1)[sides]
    widths = x_hi - x_lo
    narrow = np.flatnonzero(hi <= 2.0 * lo)
    ratios = (hi[narrow] - lo[narrow]) / lo[narrow]
    widths[narrow] = list(map(math.log1p, ratios.tolist()))
    return sides, x_lo, x_hi, widths


def _quad_piece(rate: float, bm: float, lo: float, hi: float, width: float) -> float:
    """integral over [lo, hi] of e^(rate x) (1 + x)^bm dx by adaptive
    quadrature, where the interval's length is ``width``.  Where hi - lo
    rounds away from it (a narrow interval far from x = 0), the integral runs
    over y = x - lo in [0, width] instead."""
    origin = 0.0
    if hi - lo != width:
        origin, lo, hi = lo, 0.0, width

    def f(y: float) -> float:
        x = origin + y
        return math.exp(rate * x) * (1.0 + x) ** bm

    from scipy.integrate import quad  # here, not with the module: see its docstring

    # full_output returns quad's warning text instead of printing it; the
    # error and finiteness checks below decide alone.
    try:
        val, err = quad(
            f, lo, hi, epsabs=_EPSABS, epsrel=_EPSREL, limit=400, full_output=1
        )[:2]
    except OverflowError:
        raise ScaleRangeError(_INTEGRAL_RANGE) from None
    if not math.isfinite(val):
        raise ScaleRangeError(_INTEGRAL_RANGE)
    if not err <= 1e-8 * abs(val) + 1e-250:
        raise QuadratureError(
            "weight integral did not converge",
            achieved=err / abs(val) if val else math.inf,
        )
    return val


def _segment_integral(w: WeightFn, mu: float, a: float, b: float) -> float:
    """integral over [a, b] of eta(t)^mu dt/t; a may be 0.

    Power family: one step of :func:`_power_integrals`.  Powerlog: the
    substitutions of :func:`_log_pieces` turn each part into a smooth,
    rapidly decaying integrand handled by adaptive quadrature.  A result past
    the float range raises ScaleRangeError.
    """
    cm = _rate(w, mu)
    if w.family == "power":
        return _power_integrals(cm, [a, b])[0]
    if a == b:
        return 0.0
    total = 0.0
    bm = w.b * mu
    for sign, x_lo, x_hi, width in _log_pieces(a, b):
        total += _quad_piece(sign * cm, bm, x_lo, x_hi, width)
    return total


def _rate(w: WeightFn, mu: float) -> float:
    """The exponent c * mu of eta(t)^mu = t^(c mu) (1 + |log t|)^(b mu), c =
    1/p; a product that underflows to 0 is the only way it is not > 0."""
    cm = w.power_exponent * mu
    if cm <= 0:
        raise DivergenceError("eta(t)^mu / t is not integrable at 0")
    return cm


def weight_integral(w: WeightFn, mu: float, a: float, b: float) -> float:
    """integral over [a, b] of eta(t)^mu dt/t, with a = 0 allowed.

    One step at a time: the closed form for power weights, adaptive
    quadrature (scipy's ``quad``) for power-log weights.  This is the scalar
    reference of :func:`weight_integrals`; a result past the float range
    raises ScaleRangeError.
    """
    if not (0 <= a <= b):
        raise ContractViolationError("need 0 <= a <= b")
    _check_mu(mu)
    return _segment_integral(w, mu, a, b)


def weight_integrals(
    w: WeightFn, mu: float, masses: Sequence[float]
) -> list[float]:
    """The integrals of eta(t)^mu dt/t over every step [masses[k-1], masses[k]],
    with masses[-1] read as 0, as :func:`weight_integral` gives them.

    Power weights take :func:`_power_integrals` over all steps, whatever
    their number.  Power-log weights repeat, on all steps at once, the first
    step of QUADPACK's ``dqagse`` that ``quad`` runs on each: the 21-point
    Gauss-Kronrod rule ``dqk21`` on each finite x-interval of
    :func:`_log_pieces` (built by :func:`_log_piece_columns`), evaluated
    with numpy in blocks of ``_GK_BLOCK`` intervals and summed in dqk21's
    order, then dqagse's first-step error test, with a margin for rounding
    (see :func:`_gauss_kronrod_21`).  Short, smooth steps pass it, and
    ``quad`` would stop there with the same estimate up to the rounding of
    ``exp`` and ``pow``.  The steps from t = 0 (an infinite x-range) and
    every step with an interval that fails the test take
    :func:`weight_integral`'s path, so their results and errors are the
    scalar ones bit for bit.
    """
    _check_mu(mu)
    if not masses:
        return []
    ends = _step_ends(masses)
    cm = _rate(w, mu)
    if w.family == "power":
        return _power_integrals(cm, ends)
    # Steps 0..lead-1 start at t = 0, and the rest run between the positive
    # ends column[zeros:].  lead counts the zero ends among the steps' left
    # ends only: when every end is 0 it is every step, and no end is positive.
    column = np.array(ends)
    zeros = int(np.searchsorted(column, 0.0, side="right"))
    lead = min(zeros, len(masses))
    sides, x_lo, x_hi, widths = _log_piece_columns(column[zeros:])
    rates = np.broadcast_to(np.array((-cm, cm)), sides.shape)[sides]
    values, accepted = _gauss_kronrod_21(rates, w.b * mu, x_lo, x_hi, widths)
    sums = np.zeros(sides.shape)
    sums[sides] = values
    passed = np.ones(sides.shape, dtype=bool)
    passed[sides] = accepted
    # left + right is the per-step sum 0.0 + left + right, bit for bit
    totals = [0.0] * lead + (sums[:, 0] + sums[:, 1]).tolist()
    rejected = [*range(lead), *(np.flatnonzero(~passed.all(axis=1)) + lead).tolist()]
    for k in rejected:
        totals[k] = _segment_integral(w, mu, ends[k], ends[k + 1])
    return totals


def _power_integrals(e: float, ends: Sequence[float]) -> list[float]:
    """(b^e - a^e) / e, the integral of t^e dt/t, on every step [a, b] of the
    ordered ``ends`` (>= 0), e > 0, taking each end's ``pow`` once and only
    on the steps that need it.

    On a narrow step (b <= 2a) with e != 1 the two rounded powers can cancel
    to a result off by far more than its own rounding: there b - a is exact
    (Sterbenz's lemma), and b^e - a^e = a^e expm1(e log1p((b - a) / a))
    keeps the integral within a few ulps.  At e = 1 the difference b - a is
    itself exact.  For e < 1 the powers cancel on wider steps too, wherever
    (b/a)^e <= 2; there the pass takes a^e expm1(e log(b/a)), with log b -
    log a when b/a overflows.  A result past the float range raises
    ScaleRangeError.
    """
    totals = []
    a, a_power = ends[0], None  # a_power: a**e once taken
    try:
        for b in islice(ends, 1, None):
            if a == b:
                totals.append(0.0)
                continue
            if a_power is None:
                a_power = a**e
            if e != 1.0 and b <= 2.0 * a:
                totals.append(a_power * math.expm1(e * math.log1p((b - a) / a)) / e)
                a_power = None
            else:
                b_power = b**e
                if e < 1.0 and b_power <= 2.0 * a_power:
                    ratio = b / a
                    log = math.log(ratio) if ratio < math.inf else math.log(b) - math.log(a)
                    totals.append(a_power * math.expm1(e * log) / e)
                else:
                    totals.append((b_power - a_power) / e)
                a_power = b_power
            a = b
    except OverflowError:
        raise ScaleRangeError(_INTEGRAL_RANGE) from None
    if not all(map(math.isfinite, totals)):
        raise ScaleRangeError(_INTEGRAL_RANGE)
    return totals


def _gauss_kronrod_21(
    rates: np.ndarray, bm: float, los: np.ndarray, his: np.ndarray, widths: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """dqk21's estimates of the integrals of e^(rate x) (1 + x)^bm over the
    intervals [lo, hi] of lengths ``widths`` (see :func:`_log_pieces`), and
    whether quad surely stops after that rule.

    The nodes, weights and sums are dqk21's, so the estimates differ from
    quad's only by the rounding of numpy's ``exp`` and ``pow``.  dqagse
    stops when ``abserr <= max(epsabs, epsrel*|result|)`` and ``abserr !=
    resasc`` (dqagse calls dqk21's resasc ``resabs``), or ``abserr == 0``.
    That test is taken here with |resk - resg| raised by
    ``_ROUNDING_MARGIN * resabs``, which bounds what those roundings can
    change in it, and with ``abserr < resasc`` (dqk21's abserr is at most
    resasc unless its 50*eps*resabs floor applies).  abserr grows with
    |resk - resg|, so quad stops on every interval accepted here.  (Without
    the margin, intervals a few hundred ulps wide, where |resk - resg| is
    rounding noise, can pass where quad bisects, with results 1e-14 apart.)
    A non-finite estimate is never accepted.
    """
    values = np.empty(len(rates))
    accepted = np.empty(len(rates), dtype=bool)
    for start in range(0, len(rates), _GK_BLOCK):
        block = slice(start, start + _GK_BLOCK)
        centr = 0.5 * (los[block] + his[block])
        hlgth = 0.5 * widths[block]
        absc = _XGK[:, None] * hlgth
        # rows: the centre, then centr - absc and centr + absc per abscissa
        x = np.concatenate((centr[None, :], centr - absc, centr + absc))
        with np.errstate(all="ignore"):
            f = np.exp(rates[block] * x) * (1.0 + x) ** bm
            fc, fv1, fv2 = f[0], f[1:11], f[11:]
            resk = _WGK[10] * fc
            resabs = np.abs(resk)
            resg = 0.0
            for j in _DQK21_ORDER:
                fsum = fv1[j] + fv2[j]
                if j % 2:
                    resg = resg + _WG[j // 2] * fsum
                resk = resk + _WGK[j] * fsum
                resabs = resabs + _WGK[j] * (np.abs(fv1[j]) + np.abs(fv2[j]))
            reskh = resk * 0.5
            resasc = _WGK[10] * np.abs(fc - reskh)
            for j in range(10):
                resasc = resasc + _WGK[j] * (
                    np.abs(fv1[j] - reskh) + np.abs(fv2[j] - reskh)
                )
            result = resk * hlgth
            resabs = resabs * hlgth  # hlgth >= 0, as every width is
            resasc = resasc * hlgth
            # dqk21's abserr, from |resk - resg| raised by the rounding margin
            raw = np.abs((resk - resg) * hlgth) + _ROUNDING_MARGIN * resabs
            abserr = np.maximum(
                (_EPMACH * 50.0) * resabs,
                resasc * np.minimum(1.0, (200.0 * raw / resasc) ** 1.5),
            )
            errbnd = np.maximum(_EPSABS, _EPSREL * np.abs(result))
            ok = (abserr <= errbnd) & (abserr < resasc) & np.isfinite(result)
        values[block] = result
        accepted[block] = ok
    return values, accepted


def _check_mu(mu: float) -> None:
    if mu <= 0 or not math.isfinite(mu):
        raise ContractViolationError("mu must be finite and > 0")


def smoothed_weight(w: WeightFn, t: float) -> float:
    """g(t) = integral over (0, t] of eta(s)/s ds.

    The power family has the closed form p * t^(1/p).  Power-log weights take
    the weight integral of eta^1 over [0, t], one adaptive quadrature per
    side of s = 1 after the substitutions of :func:`_log_pieces`.
    """
    if t <= 0:
        raise ContractViolationError("t must be > 0")
    if w.family == "power":
        return w.p * t**w.power_exponent
    return _segment_integral(w, 1.0, 0.0, t)


def boyd_lower_index(w: WeightFn, t_min: float) -> float:
    """log M(t_min) / log t_min — the small-t dilation growth exponent.

    Exactly 1/p for the power family; for powerlog the closed-form dilation
    is used in log form, so very small ``t_min`` (down to ~2^-1000) is fine.
    """
    if not (0 < t_min < 1):
        raise ContractViolationError("t_min must lie in (0, 1)")
    if w.family == "power":
        return w.power_exponent
    log_t = math.log(t_min)
    log_m = w.power_exponent * log_t + abs(w.b) * math.log1p(abs(log_t))
    return log_m / log_t
