"""Coefficient sequences, rearrangements with respect to a cube measure, and
discrete Lorentz quasi-norms.

A finite-support sequence assigns a real coefficient to each cube of a finite
family.  Its rearrangement with respect to the measure ``nu`` is the
nonincreasing step function taking value ``v`` on an interval of length equal
to the total ``nu``-mass of the cubes whose (optionally weighted) magnitude
equals ``v``.  The quasi-norm reduces to a finite sum over those steps,
exactly for power weights and to quadrature accuracy for power-log weights.
That sum is ``weights.step_aggregate``, the one aggregate of a step function
that the approximation norm of an error profile also takes.

Large families are rearranged on numpy columns (one sort of the magnitudes,
one cumulative sum of exact integer masses), which give the per-cube loop's
steps bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import gt, itemgetter, lt
from typing import Callable, Iterable, Mapping

import numpy as np

from .dyadic import Cube, MeasureSpec, scaled_ints
from .errors import ContractViolationError, finite
from .weights import WeightFn, step_aggregate

__all__ = [
    "CoeffSeq",
    "StepRearrangement",
    "LorentzParams",
    "rearrange",
    "lorentz_norm",
]

_NORM_RANGE = "the Lorentz norm exceeds the float range"

# Families of at least this many cubes, without u, rearrange on numpy
# columns; smaller ones take the per-cube loop, which is faster there.  The
# two cross at 48-56 cubes for d = 1 and 3 (loop 62 against 84 us at 32
# cubes, 71 against 62 us at 64, best of 7 on a 2-core host).
_COLUMN_MIN_CUBES = 64
_J = itemgetter(0)

# A per-cube weight: absent (all ones), a mapping, or a callable.
UWeights = Mapping[Cube, float] | Callable[[Cube], float] | None


def _one(cube: Cube) -> float:
    return 1.0


def u_function(u: UWeights) -> Callable[[Cube], float]:
    """``u`` as a function of the cube that checks each weight is finite and
    > 0; the kind of ``u`` is looked at once, not per cube."""
    if u is None:
        return _one
    lookup = u.__getitem__ if isinstance(u, Mapping) else u

    def weight(cube: Cube) -> float:
        value = lookup(cube)
        if not (value > 0 and math.isfinite(value)):
            raise ContractViolationError(
                f"weight for cube {cube} must be finite and > 0"
            )
        return value

    return weight


class CoeffSeq(dict):
    """Finite-support map from cubes to real coefficients, zeros dropped: a
    ``dict`` that reads 0.0 off its support.  A sequence is a value; callers
    do not write to one once it is built."""

    __slots__ = ()

    def __init__(self, entries: Mapping[Cube, float]) -> None:
        d: int | None = None
        for cube, value in entries.items():
            value = float(value)
            if not math.isfinite(value):
                raise ContractViolationError(f"non-finite coefficient at {cube}")
            if value == 0.0:
                continue
            if d is None:
                d = cube.d
            elif cube.d != d:
                raise ContractViolationError("all cubes must share one dimension")
            self[cube] = value

    def __missing__(self, cube: Cube) -> float:
        return 0.0

    # -- constructors ------------------------------------------------------

    @classmethod
    def _from_clean(cls, entries: Iterable[tuple[Cube, float]]) -> "CoeffSeq":
        """A sequence of the ``(cube, value)`` pairs ``entries``, with no
        checks: the caller vouches that every value is a finite nonzero
        float and every cube has one dimension."""
        seq = cls.__new__(cls)
        dict.update(seq, entries)
        return seq

    @classmethod
    def unit(cls, cube: Cube, value: float = 1.0) -> "CoeffSeq":
        """The single-atom sequence ``value`` at ``cube``."""
        return cls({cube: value})

    @classmethod
    def indicator(cls, cubes: Iterable[Cube], u: UWeights = None) -> "CoeffSeq":
        """Entries 1/u(Q) on the given cubes (the normalized indicator).

        Each entry is checked once, here, with ``__init__``'s errors: u(Q) is
        finite and > 0, so 1/u(Q) is nonzero, and only a subnormal u(Q) can
        make it overflow.
        """
        weight = u_function(u)
        seq = cls._from_clean(())
        d: int | None = None
        for cube in cubes:
            value = float(1.0 / weight(cube))
            if value == math.inf:
                raise ContractViolationError(f"non-finite coefficient at {cube}")
            if d is None:
                d = cube.d
            elif cube.d != d:
                raise ContractViolationError("all cubes must share one dimension")
            seq[cube] = value
        return seq

    # -- basic access ------------------------------------------------------

    @property
    def support(self) -> tuple[Cube, ...]:
        return tuple(sorted(self))

    @property
    def d(self) -> int | None:
        for cube in self:
            return cube.d
        return None

    # -- lattice and vector operations ------------------------------------

    def scaled(self, c: float) -> "CoeffSeq":
        return CoeffSeq({q: c * v for q, v in self.items()})

    def plus(self, other: "CoeffSeq") -> "CoeffSeq":
        merged = dict(self)
        for q, v in other.items():
            merged[q] = merged.get(q, 0.0) + v
        return CoeffSeq(merged)

    # A subset of clean entries is clean.
    def without(self, cubes: Iterable[Cube]) -> "CoeffSeq":
        drop = set(cubes)
        return CoeffSeq._from_clean((q, v) for q, v in self.items() if q not in drop)


@dataclass(frozen=True)
class StepRearrangement:
    """Nonincreasing right-continuous step function.

    Value ``values[k]`` is taken on ``[masses[k-1], masses[k])`` (with
    ``masses[-1]`` read as 0), and 0 from ``masses[-1]`` on.
    """

    masses: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        masses, values = self.masses, self.values
        if len(masses) != len(values):
            raise ContractViolationError("masses and values must align")
        if not all(map(lt, (0.0, *masses), masses)):
            raise ContractViolationError("cumulative masses must increase")
        if not all(map(gt, values, values[1:])):
            raise ContractViolationError("step values must strictly decrease")
        if values and not values[-1] > 0:
            raise ContractViolationError("step values must be positive")

    def pieces(self) -> Iterable[tuple[float, float, float]]:
        """Yield (start, end, value) for each step interval."""
        start = 0.0
        for mass, value in zip(self.masses, self.values):
            yield start, mass, value
            start = mass


def rearrange(
    s: CoeffSeq, measure: MeasureSpec, u: UWeights = None
) -> StepRearrangement:
    """Rearrangement of ``{u_I * s_I}`` with respect to the cube measure.

    Entries with equal magnitude are merged into a single step whose length is
    their combined mass, which keeps the closed-form norm accumulation
    unambiguous.  Each cumulative mass is the ``math.fsum`` of the masses so
    far: masses are exact ints over one power of two, one per volume present
    (``dyadic.scaled_ints``), summed step by step in an int and rounded once
    per step.

    Families of at least ``_COLUMN_MIN_CUBES`` cubes without ``u`` take
    numpy columns (:func:`_rearrange_columns`) at every measure exponent and
    scale, scale gap included; smaller families and u-weighted ones take the
    per-cube loop below, one int true division per step.

    A step whose mass leaves that rounded total T unchanged (a scale far
    finer than the steps before it) has float length zero, and is folded
    into the next step: its mass stays in the later totals and its value is
    dropped.  Its exact mass is at most one ulp of T, the rounding every step
    end already carries, and the norm loses nothing by the fold:

    - for finite mu it would add an integral over [T, T], which is 0;
    - for mu = inf its sup, taken at the point T, is its value times the
      weight at T, at most the previous step's, which has a larger value and
      T in its closed interval.

    The first step has positive mass, so it is never folded.
    """
    if u is None and len(s) >= _COLUMN_MIN_CUBES:
        return _rearrange_columns(s, measure)
    weight = u_function(u)
    powers = measure.powers
    masses: dict[int, float] = {}  # per volume j * d, in first-seen order
    by_magnitude: dict[float, list[int]] = {}
    for cube, value in s.items():
        magnitude = abs(weight(cube) * value)
        if magnitude > 0:
            volume = cube.j * cube.d
            if volume not in masses:
                masses[volume] = powers[volume]
            by_magnitude.setdefault(magnitude, []).append(volume)
    nums, shift = scaled_ints(masses.values())
    num = dict(zip(masses, nums)).__getitem__
    den = 1 << shift
    total = 0  # the exact sum of the masses so far, over den
    cumulative = [0.0]  # the start of the first step, dropped below
    values: list[float] = []
    for magnitude in sorted(by_magnitude, reverse=True):
        total += sum(map(num, by_magnitude[magnitude]))
        end = total / den  # correctly rounded, as math.fsum
        if end > cumulative[-1]:
            cumulative.append(end)
            values.append(magnitude)
    return StepRearrangement(tuple(cumulative[1:]), tuple(values))


def _rearrange_columns(s: CoeffSeq, measure: MeasureSpec) -> StepRearrangement:
    """``rearrange(s, measure)`` from numpy columns.

    The masses come once per scale, in the loop's first-seen order, so a
    scale past the float range raises the loop's ScaleRangeError.  Each
    cube's exact mass, a Python int, goes into an object column by one
    lookup of its scale, so scales of any size take this path.  One
    argsort orders the magnitudes, and one cumulative sum of the masses
    gives every total.  Each group of equal magnitudes ends a step at its
    last total, rounded once by the loop's int true division.  The ends
    never decrease, so a step is folded exactly where its end equals the
    one before.
    """
    n = len(s)
    d = next(iter(s)).d
    powers = measure.powers
    scales = dict.fromkeys(map(_J, s))  # in first-seen order
    nums, shift = scaled_ints([powers[j * d] for j in scales])
    num = dict(zip(scales, nums)).__getitem__
    per_cube = np.fromiter(map(num, map(_J, s)), object, n)
    magnitudes = np.abs(np.fromiter(s.values(), np.float64, n))
    order = np.argsort(-magnitudes)
    magnitudes = magnitudes[order]
    totals = np.cumsum(per_cube[order])
    last = np.append(np.flatnonzero(magnitudes[1:] != magnitudes[:-1]), n - 1)
    ends = (totals[last] / (1 << shift)).astype(np.float64)
    kept = np.diff(ends, prepend=0.0) > 0.0
    return StepRearrangement(
        tuple(ends[kept].tolist()), tuple(magnitudes[last][kept].tolist())
    )


@dataclass(frozen=True)
class LorentzParams:
    """Parameters of the Lorentz quasi-norm.

    ``eta`` is the base weight; ``mu`` the integrability exponent (``math.inf``
    turns the integral into a sup); ``xi`` shifts the weight to t^xi * eta(t);
    ``u`` premultiplies each coefficient before rearranging.
    """

    eta: WeightFn
    mu: float
    xi: float = 0.0
    u: UWeights = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if not self.mu > 0:
            raise ContractViolationError("mu must be > 0 (math.inf allowed)")
        if self.xi < 0:
            raise ContractViolationError("xi must be >= 0")

    @property
    def combined_weight(self) -> WeightFn:
        return self.eta.times_power(self.xi)


def lorentz_norm(s: CoeffSeq, measure: MeasureSpec, params: LorentzParams) -> float:
    """The rearrangement-form quasi-norm: the step aggregate
    (:func:`restapprox.weights.step_aggregate`) of the rearrangement under the
    weight t^xi eta(t).  A weight integral past the float range raises its
    own ScaleRangeError, and any other power, sum or norm past it the Lorentz
    norm's.
    """
    steps = rearrange(s, measure, params.u)
    if not steps.masses:
        return 0.0
    w, mu = params.combined_weight, params.mu
    return finite(lambda: step_aggregate(w, mu, steps.masses, steps.values), _NORM_RANGE)
