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
For powerlog weights ``weight_integral``, ``weight_integrals`` and
``smoothed_weight`` run one adaptive Gauss-Kronrod kernel in numpy
(``_gauss_kronrod_21``), on every x-interval of a call at once.  Nothing in
the package imports scipy.

The power closed form (``_power_integrals``), the weight values
(``_values``) and the step sups (``_sups``) are each written once, as one
Python pass over a list of step ends that takes each end's ``pow`` or
``math.log`` once.  ``weight_integrals`` and ``weight_sups`` run them over a
whole rearrangement's steps, at every length; ``weight_integral`` and
``weight_sup_on_interval`` over one step.  The power-log x-intervals
(``_log_piece_columns``) take libm's logs, through Python floats, because
numpy's vector ``log`` and ``log1p`` can differ in the last bit, and numpy
does only correctly rounded work on them (differences, quotients, maxima,
minima and comparisons).  The kernel works elementwise, so a step's integral
is the same bit for bit in a call of one step and in a call of many.
"""

from __future__ import annotations

import math
import operator
import sys
from bisect import bisect_right
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

# Tolerances of every power-log quadrature, as QUADPACK's epsabs and epsrel:
# the kernel accepts an interval whose error estimate is below both.
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
_WGK_ROWS, _WG_ROWS = np.array(_WGK[:10])[:, None], np.array(_WG)[:, None]
# dqk21 adds the Gauss abscissae's pairs first, then the Kronrod-only ones.
_DQK21_ORDER = (1, 3, 5, 7, 9, 0, 2, 4, 6, 8)
_EPMACH = sys.float_info.epsilon  # d1mach(4)
# How far numpy's exp and pow, against libm's, can move dqk21's
# |resk - resg|, relative to its resabs: each of the 21 values differs by a
# few ulps, and so can each of the 31 additions' roundings.
_ROUNDING_MARGIN = 64.0 * _EPMACH
# Intervals per numpy block: keeps the (21, block) temporaries near 1 MiB.
_GK_BLOCK = 1024
# Caps of the adaptive kernel: its bisection rounds, and the live pieces of
# each interval of a call.  Past either it raises QuadratureError.
_GK_ROUNDS = 64
_GK_PIECES = 256
# An infinite range is cut where the tail bound falls below this share of a
# lower bound of the integral.
_TAIL_SHARE = 1e-3 * _EPSREL


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


def _log_piece_columns(
    ends: list[float], left: slice | list[int], right: slice | list[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The x-intervals of every step [a, b] = [ends[left[k]], ends[right[k]]]
    (0 <= a < b) on either side of t = 1, from one ``math.log`` per end:
    only ends[0] may be 0, and log 0 = -oo.

    t = e^(-x) maps (0, 1] onto [0, oo) (sign -1) and t = e^x maps [1, oo)
    onto [0, oo) (sign +1); x_hi is infinite exactly when a = 0.  ``sides``
    (steps x 2) marks the sides each step has, and x_lo, x_hi and width list
    them step by step, left first.  The width of a side [lo, hi] is x_hi -
    x_lo, except where hi <= 2 lo and the rounded logs can cancel: there hi
    - lo is exact (Sterbenz's lemma), and the width is one ``math.log1p((hi
    - lo) / lo)``, within a few ulps."""
    logs = np.array([math.log(ends[0]) if ends[0] else -math.inf, *map(math.log, ends[1:])])
    column = np.array(ends, dtype=float)
    a, b, log_a, log_b = column[left], column[right], logs[left], logs[right]
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


def _powerlog_integrals(
    w: WeightFn, mu: float, ends: list[float], left: slice | list[int], right: slice | list[int]
) -> np.ndarray:
    """The integrals of eta(t)^mu dt/t over the steps [ends[left[k]],
    ends[right[k]]] of a power-log weight (see :func:`_log_piece_columns`):
    one kernel call on the x-intervals of every step, left side + right
    side per step."""
    cm = w.power_exponent * mu
    sides, x_lo, x_hi, widths = _log_piece_columns(ends, left, right)
    rates = np.broadcast_to(np.array((-cm, cm)), sides.shape)[sides]
    sums = np.zeros(sides.shape)
    sums[sides] = _gauss_kronrod_21(rates, w.b * mu, x_lo, x_hi, widths)
    # left + right is the per-step sum 0.0 + left + right, bit for bit
    return sums[:, 0] + sums[:, 1]


def _rate(w: WeightFn, mu: float) -> float:
    """The exponent c * mu of eta(t)^mu = t^(c mu) (1 + |log t|)^(b mu), c =
    1/p; a product that underflows to 0 is the only way it is not > 0."""
    cm = w.power_exponent * mu
    if cm <= 0:
        raise DivergenceError("eta(t)^mu / t is not integrable at 0")
    return cm


def weight_integral(w: WeightFn, mu: float, a: float, b: float) -> float:
    """integral over [a, b] of eta(t)^mu dt/t, with a = 0 allowed.

    One step of :func:`weight_integrals`: the closed form for power weights,
    the adaptive kernel for power-log weights, with the same value bit for
    bit.  A result past the float range raises ScaleRangeError.
    """
    if not (0 <= a <= b):
        raise ContractViolationError("need 0 <= a <= b")
    _check_mu(mu)
    cm = _rate(w, mu)
    if w.family == "power":
        return _power_integrals(cm, [a, b])[0]
    if a == b:
        return 0.0
    return _powerlog_integrals(w, mu, [a, b], [0], [1])[0].item()


def weight_integrals(
    w: WeightFn, mu: float, masses: Sequence[float]
) -> list[float]:
    """The integrals of eta(t)^mu dt/t over every step [masses[k-1], masses[k]],
    with masses[-1] read as 0, as :func:`weight_integral` gives them.

    Power weights take :func:`_power_integrals` over all steps, whatever
    their number.  Power-log weights take one call of the adaptive kernel
    :func:`_gauss_kronrod_21` on the x-intervals of every step (built by
    :func:`_log_piece_columns` from one ``math.log`` per end); the steps
    from t = 0 to t = 0 are 0.
    """
    _check_mu(mu)
    if not masses:
        return []
    ends = _step_ends(masses)
    cm = _rate(w, mu)
    if w.family == "power":
        return _power_integrals(cm, ends)
    # Steps 0..last-1 run from 0 to 0, and the rest between the ends
    # ends[last:], of which only the first (the last zero end) is 0.
    last = bisect_right(ends, 0.0) - 1
    if last == len(masses):
        return [0.0] * last
    totals = _powerlog_integrals(w, mu, ends[last:], slice(None, -1), slice(1, None))
    return [0.0] * last + totals.tolist()


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
) -> np.ndarray:
    """The integrals of e^(rate x) (1 + x)^bm over the intervals [lo, hi] of
    lengths ``widths`` (see :func:`_log_piece_columns`), by QUADPACK's rule
    ``dqk21`` (:func:`_dqk21`), adaptive over all intervals at once.

    An infinite interval (rate < 0) ends at :func:`_tail_cut`'s X instead.
    Each round evaluates the pending intervals, adds the accepted estimates
    to their integrals in order, and bisects the rest.  An interval passes
    at ``abserr <= max(epsabs, epsrel*|result|)``; the integrand is positive,
    so the errors add up to at most epsrel times the integral.  The first
    round also asks ``abserr < resasc``, as ``dqagse`` does to stop after one
    rule; on a flat, narrow interval abserr equals resasc at every
    bisection, so later rounds drop it.  A non-finite estimate raises
    ScaleRangeError; more than ``_GK_ROUNDS`` rounds, or more than
    ``_GK_PIECES`` live pieces of one interval, raise QuadratureError.  Both
    caps count per interval, so a step converges or fails alike alone and
    among many, and memory stays within ``_GK_PIECES`` pieces per interval.
    """
    infinite = np.flatnonzero(np.isinf(his))
    if len(infinite):
        if not (rates[infinite] < 0.0).all():  # no cut bounds a growing tail
            raise ScaleRangeError(_INTEGRAL_RANGE)
        cut = _tail_cut(-rates[infinite], bm, los[infinite])
        his, widths = his.copy(), widths.copy()
        his[infinite], widths[infinite] = cut, cut - los[infinite]
    totals = np.zeros(len(rates))
    owners = np.arange(len(rates))
    # An interval is its left end and half-length, and its centre left +
    # hlgth past the first round's (lo + hi) / 2: a left half keeps its
    # parent's left end exactly, however far from it the centre lies.
    centr, lefts, hlgth = 0.5 * (los + his), los, 0.5 * widths
    for rounds in range(_GK_ROUNDS):
        result, abserr, resasc = _dqk21(rates, bm, centr, hlgth)
        if not np.isfinite(result).all():
            raise ScaleRangeError(_INTEGRAL_RANGE)
        ok = abserr <= np.maximum(_EPSABS, _EPSREL * np.abs(result))
        if rounds == 0:
            ok &= abserr < resasc
        np.add.at(totals, owners[ok], result[ok])
        pending = np.flatnonzero(~ok)
        if not len(pending):
            return totals
        if 2 * np.bincount(owners[pending]).max() > _GK_PIECES:
            break
        owners, rates = owners[pending], rates[pending]
        owners, rates = np.concatenate((owners, owners)), np.concatenate((rates, rates))
        lefts, hlgth = lefts[pending], hlgth[pending]
        lefts, hlgth = np.concatenate((lefts, lefts + hlgth)), 0.5 * hlgth
        hlgth = np.concatenate((hlgth, hlgth))
        centr = lefts + hlgth
    with np.errstate(divide="ignore", invalid="ignore"):
        achieved = float(np.max(abserr[pending] / np.abs(result[pending])))
    raise QuadratureError("weight integral did not converge", achieved=achieved)


def _tail_cut(r: np.ndarray, bm: float, lo: np.ndarray) -> np.ndarray:
    """Where to end each infinite interval [lo, oo) of e^(-r x) (1 + x)^bm.

    f is log-concave, so min(f(lo), f(lo + 1/r)) / r bounds its integral
    below.  Where r (1 + X) > bm+, the tail past X is at most e^(-r X) (1 +
    X)^bm / (r - bm+/(1 + X)), falling in X.  The cut is the first of x0 +
    2^k / r, k < 64, x0 = max(lo, 2 bm+ / r - 1), whose tail bound is below
    ``_TAIL_SHARE`` times the lower bound.  The bounds are logs, so f may
    underflow."""
    beta = max(bm, 0.0)

    def log_f(x: np.ndarray) -> np.ndarray:
        return bm * np.log1p(x) - r * x

    with np.errstate(all="ignore"):  # a subnormal r makes no finite cut
        step = 1.0 / r
        floor = np.log(step * _TAIL_SHARE) + np.minimum(log_f(lo), log_f(lo + step))
        starts = np.maximum(lo, 2.0 * beta * step - 1.0)
        grid = starts + step * np.exp2(np.arange(64.0))[:, None]  # the last row passes
        passed = log_f(grid) - np.log(r - beta / (1.0 + grid)) <= floor
    return grid[np.argmax(passed, axis=0), np.arange(len(r))]


def _dqk21(
    rates: np.ndarray, bm: float, centr: np.ndarray, hlgth: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """dqk21's result, abserr and resasc, by its nodes, weights and sums in
    its order, on intervals of centres ``centr`` and half-lengths ``hlgth``
    >= 0, ``_GK_BLOCK`` at a time.  abserr takes |resk - resg| raised by
    ``_ROUNDING_MARGIN * resabs``, a bound of what the rounding of numpy's
    ``exp`` and ``pow`` can change in it: a few hundred ulps wide, an
    interval's |resk - resg| is rounding noise, and it goes to bisection."""
    result, abserr, resasc = np.empty((3, len(rates)))
    for start in range(0, len(rates), _GK_BLOCK):
        block = slice(start, start + _GK_BLOCK)
        with np.errstate(all="ignore"):
            absc = _XGK[:, None] * hlgth[block]
            # rows: the centre, then centr - absc and centr + absc per abscissa
            x = np.concatenate((centr[None, block], centr[block] - absc, centr[block] + absc))
            f = np.exp(rates[block] * x) * (1.0 + x) ** bm
            fc, fv1, fv2 = f[0], f[1:11], f[11:]
            # every term of dqk21's sums at once; ``sum`` adds the rows in order
            terms = _WGK_ROWS * (fv1 + fv2)
            resk = sum((terms[j] for j in _DQK21_ORDER), _WGK[10] * fc)
            terms = _WGK_ROWS * (np.abs(fv1) + np.abs(fv2))
            resabs = sum((terms[j] for j in _DQK21_ORDER), np.abs(_WGK[10] * fc))
            resg = sum(_WG_ROWS * (fv1[1::2] + fv2[1::2]), 0.0)
            reskh = resk * 0.5
            terms = _WGK_ROWS * (np.abs(fv1 - reskh) + np.abs(fv2 - reskh))
            asc = sum(terms, _WGK[10] * np.abs(fc - reskh))
            result[block] = resk * hlgth[block]
            resabs = resabs * hlgth[block]
            asc = asc * hlgth[block]
            raw = np.abs((resk - resg) * hlgth[block]) + _ROUNDING_MARGIN * resabs
            # dqk21 scales abserr by resasc only where resasc != 0
            scaled = np.where(asc > 0.0, asc * np.minimum(1.0, (200.0 * raw / asc) ** 1.5), raw)
            abserr[block] = np.maximum((_EPMACH * 50.0) * resabs, scaled)
            resasc[block] = asc
    return result, abserr, resasc


def _check_mu(mu: float) -> None:
    if mu <= 0 or not math.isfinite(mu):
        raise ContractViolationError("mu must be finite and > 0")


def smoothed_weight(w: WeightFn, t: float) -> float:
    """g(t) = integral over (0, t] of eta(s)/s ds.

    The power family has the closed form p * t^(1/p).  Power-log weights take
    the weight integral of eta^1 over [0, t] (see :func:`weight_integrals`).
    """
    return _smoothed_weights(w, [t])[0]


def _smoothed_weights(w: WeightFn, ts: Sequence[float]) -> list[float]:
    """:func:`smoothed_weight` at every t of ``ts``, bit for bit, with one
    kernel call for all of them."""
    if not all(t > 0 for t in ts):
        raise ContractViolationError("t must be > 0")
    if w.family == "power":
        return [w.p * t**w.power_exponent for t in ts]
    return _powerlog_integrals(w, 1.0, [0.0, *ts], [0] * len(ts), slice(1, None)).tolist()


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
