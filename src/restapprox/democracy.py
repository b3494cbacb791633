"""Democracy functionals: norms of normalized indicator sequences.

For a finite cube family, the functional evaluates the aggregated norm of the
sequence with entries 1/u(Q), where u(Q) is the atom weight of a second
space.  Democracy holds for a measure exponent alpha exactly when that value
is comparable to (mass of the family)^(1/p) uniformly over families; the
matching alpha is p1 * e + 1 with per-cube exponent e = (s2 - s1)/d - 1/p2,
and alpha = 1 additionally requires p1 == q1.

Structured families with closed-form values and masses (disjoint grids,
nested towers, same-scale rows) make both the matching and the failure modes
testable at sizes far beyond what can be materialized.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

import numpy as np

from .dyadic import Cube, MeasureSpec, nu_measure, pow2
from .errors import CapabilityError, ContractViolationError
from .lorentz import CoeffSeq
from .spaces import AtomWeights, SpaceParams, _recip, tl_norm

__all__ = [
    "DemocracyCase",
    "Admissibility",
    "GammaFamily",
    "SweepRow",
    "predicted_admissible",
    "democracy_value",
    "democracy_ratio_sweep",
    "divergence_exponent",
    "admissible_spread",
    "random_cube_set",
]

_MATERIALIZE_CAP = 1 << 18
_FAMILY_TAGS = ("grid", "tower", "row")


@dataclass(frozen=True)
class DemocracyCase:
    """Norm space ``f1``, weight space ``f2``, and measure exponent ``alpha``.

    The cube measure and the atom weights of ``f2`` are built once per case,
    so their per-volume power caches serve every family the case evaluates.
    """

    f1: SpaceParams
    f2: SpaceParams
    alpha: float
    measure: MeasureSpec = field(init=False, repr=False, compare=False)
    atom_weights: AtomWeights = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.f1.kind != "tl":
            raise ContractViolationError("f1 must be of the aggregated kind")
        if self.f1.d != self.f2.d:
            raise ContractViolationError("f1 and f2 must share the dimension")
        object.__setattr__(self, "measure", MeasureSpec(self.alpha))
        object.__setattr__(self, "atom_weights", AtomWeights(self.f2))

    @property
    def d(self) -> int:
        return self.f1.d

    @property
    def coefficient_exponent(self) -> float:
        """Exponent e with |Q|^e the aggregated coefficient of one indicator."""
        return (self.f2.s - self.f1.s) / self.d - _recip(self.f2.p)

    @property
    def formula_alpha(self) -> float:
        """The unique candidate measure exponent, p1 * e + 1."""
        return self.f1.p * self.coefficient_exponent + 1.0


class Admissibility(NamedTuple):
    ok: bool
    reason: str


def predicted_admissible(case: DemocracyCase) -> Admissibility:
    """Whether the case's alpha makes the indicator functional democratic.

    Requires alpha == p1 * e + 1; when that value is 1 (equivalently e == 0),
    the nested-tower families additionally force p1 == q1.
    """
    target = case.formula_alpha
    if abs(case.alpha - target) > 1e-9 * max(1.0, abs(target)):
        return Admissibility(
            False,
            f"alpha={case.alpha!r} differs from the matching exponent "
            f"p1*e+1={target!r}",
        )
    if abs(case.alpha - 1.0) > 1e-12:
        return Admissibility(True, "alpha matches the formula and alpha != 1")
    if case.f1.p == case.f1.q:
        return Admissibility(True, "alpha == 1 and p1 == q1")
    return Admissibility(
        False,
        f"alpha == 1 requires p1 == q1, got p1={case.f1.p!r}, q1={case.f1.q!r}",
    )


def democracy_value(cubes: Iterable[Cube], case: DemocracyCase) -> float:
    """Aggregated norm of the indicator sequence with entries 1/u(Q)."""
    seq = CoeffSeq.indicator(cubes, case.atom_weights)
    return tl_norm(seq, case.f1)


@dataclass(frozen=True)
class GammaFamily:
    """A structured cube family with closed-form value and mass.

    Tags: "grid" (N^d disjoint cubes of side L at scale -log2 L), "tower"
    (every cube of scales 0..N-1 inside the unit cube), "row" (N unit cubes
    along the first axis).
    """

    tag: str
    N: int
    L: int = 1
    d: int = 1

    def __post_init__(self) -> None:
        if self.tag not in _FAMILY_TAGS:
            raise ContractViolationError(f"tag must be one of {_FAMILY_TAGS}")
        if self.N < 1 or self.d < 1:
            raise ContractViolationError("N and d must be >= 1")
        if self.L < 1 or self.L & (self.L - 1):
            raise ContractViolationError("L must be a power of two")
        if self.tag != "grid" and self.L != 1:
            raise ContractViolationError("only grids take a side length L")

    @property
    def count(self) -> int:
        if self.tag == "grid":
            return self.N**self.d
        if self.tag == "tower":
            j_count = 1 << self.d
            return self.N if j_count == 1 else ((j_count**self.N - 1) // (j_count - 1))
        return self.N

    def generate(self) -> tuple[Cube, ...]:
        if self.count > _MATERIALIZE_CAP:
            raise CapabilityError(
                f"family holds {self.count} cubes; at most {_MATERIALIZE_CAP} "
                "can be materialized — use the closed forms"
            )
        if self.tag == "grid":
            j = -(self.L.bit_length() - 1)
            return tuple(
                Cube(j, k) for k in itertools.product(range(self.N), repeat=self.d)
            )
        if self.tag == "tower":
            return tuple(
                Cube(j, k)
                for j in range(self.N)
                for k in itertools.product(range(1 << j), repeat=self.d)
            )
        return tuple(
            Cube(0, (i,) + (0,) * (self.d - 1)) for i in range(self.N)
        )

    def closed_form_mass(self, alpha: float) -> float:
        """Total measure with exponent alpha, exactly."""
        if self.tag == "grid":
            side_exp = self.L.bit_length() - 1
            return pow2(side_exp * self.d * alpha) * float(self.N**self.d)
        if self.tag == "tower":
            return _dyadic_geometric_sum(self.d * (1.0 - alpha), self.N)
        return float(self.N)

    def closed_form_value(self, case: DemocracyCase) -> float:
        """The democracy functional, exactly, from the family structure."""
        if case.d != self.d:
            raise ContractViolationError("case and family dimensions differ")
        e = case.coefficient_exponent
        p1, q1 = case.f1.p, case.f1.q
        if self.tag == "grid":
            side_exp = self.L.bit_length() - 1
            return pow2(side_exp * self.d * (e + 1.0 / p1)) * self.N ** (
                self.d / p1
            )
        if self.tag == "tower":
            # Only the deepest-scale regions are nonempty; each carries the
            # full chain of ancestors and the regions tile the unit cube.
            if math.isinf(q1):
                return max(1.0, pow2(-(self.N - 1) * self.d * e))
            return _dyadic_geometric_sum(-self.d * e * q1, self.N) ** (1.0 / q1)
        return self.N ** (1.0 / p1)


def _dyadic_geometric_sum(exponent: float, n: int) -> float:
    """Sum of 2^(exponent * j) for j = 0..n-1, stable near exponent = 0."""
    if exponent == 0.0:
        return float(n)
    log_ratio = exponent * math.log(2.0)
    return math.expm1(n * log_ratio) / math.expm1(log_ratio)


@dataclass(frozen=True)
class SweepRow:
    """One evaluated family: its measure, value, and normalized ratio."""

    family: str
    N: int
    L: int
    d: int
    count: int
    nu_alpha: float
    value: float
    ratio: float
    source: str


def democracy_ratio_sweep(
    case: DemocracyCase,
    families: Iterable[GammaFamily],
    materialize_limit: int = 4096,
) -> list[SweepRow]:
    """Evaluate value / mass^(1/p1) per family.

    Families small enough are materialized and evaluated through the norm
    machinery; larger ones use the closed forms.
    """
    rows = []
    for fam in families:
        if fam.count <= materialize_limit:
            cubes = fam.generate()
            value = democracy_value(cubes, case)
            mass = nu_measure(cubes, case.measure)
            source = "direct"
        else:
            value = fam.closed_form_value(case)
            mass = fam.closed_form_mass(case.alpha)
            source = "closed-form"
        rows.append(
            SweepRow(
                family=fam.tag,
                N=fam.N,
                L=fam.L,
                d=fam.d,
                count=fam.count,
                nu_alpha=mass,
                value=value,
                ratio=value / mass ** (1.0 / case.f1.p),
                source=source,
            )
        )
    return rows


def divergence_exponent(
    case: DemocracyCase,
    n_values: Iterable[int],
    materialize_limit: int = 4096,
) -> tuple[float, list[SweepRow]]:
    """Log-log growth rate of the tower/row ratio spread in the family size.

    For each N the spread is the max/min ratio over the nested tower and the
    disjoint row; the returned exponent is the least-squares slope of
    log(spread) against log(N).  Admissible cases give slope ~0; the
    alpha == 1, p1 != q1 failure gives slope |1/q1 - 1/p1|.
    """
    sizes = sorted(set(n_values))
    if len(sizes) < 2:
        raise ContractViolationError("need at least two sizes to fit a slope")
    rows: list[SweepRow] = []
    spreads = []
    for n in sizes:
        fams = [
            GammaFamily("tower", n, d=case.d),
            GammaFamily("row", n, d=case.d),
        ]
        batch = democracy_ratio_sweep(case, fams, materialize_limit)
        rows.extend(batch)
        ratios = [row.ratio for row in batch]
        spreads.append(max(ratios) / min(ratios))
    slope = float(
        np.polyfit(np.log(np.asarray(sizes, float)), np.log(np.asarray(spreads)), 1)[0]
    )
    return slope, rows


_WORD = 1 << 32


class _Words:
    """A generator's 32-bit words, taken in blocks and given back unused.

    ``rng.integers(0, 2^32, size=n, dtype=np.uint64)`` returns the next n
    words of the stream that numpy's bounded draws read, a cached half word
    of PCG64 included.  ``sync(used)`` puts the generator back to the state
    saved before the first block and takes exactly ``used`` words, so that
    it ends where drawing only those words would have left it.
    """

    def __init__(self, rng: np.random.Generator, chunk: int):
        self.rng = rng
        self.words: list[int] = []
        self._chunk = chunk
        self._state: dict | None = None

    def fetch(self) -> None:
        """Append the next block of words to ``words``."""
        if self._state is None:
            self._state = self.rng.bit_generator.state
        block = self.rng.integers(0, _WORD, size=self._chunk, dtype=np.uint64)
        self.words += block.tolist()
        self._chunk *= 2

    def sync(self, used: int) -> None:
        """Keep only the first ``used`` words drawn, and empty ``words``."""
        if self._state is not None:
            self.rng.bit_generator.state = self._state
            if used:
                self.rng.integers(0, _WORD, size=used, dtype=np.uint64)
            self._state = None
        self.words.clear()


def random_cube_set(
    rng: np.random.Generator,
    count: int,
    d: int,
    j_min: int,
    j_max: int,
) -> list[Cube]:
    """Exactly ``count`` distinct cubes with scales in [j_min, j_max].

    All cubes lie inside the axis box [0, 2^(-j_min))^d, so arbitrary nesting
    between scales can occur.

    Each attempt draws ``j = rng.integers(j_min, j_max + 1)`` and then
    ``k = rng.integers(0, 2^(j - j_min), size=d)``, until ``count`` distinct
    cubes are seen.  For a range r <= 2^32 numpy's bounded draw (Lemire 2019,
    *Fast Random Integer Generation in an Interval*) takes no word when
    r == 1; otherwise it takes a 32-bit word w, rejects it while
    (w * r) mod 2^32 < (2^32 - r) mod r, and returns (w * r) >> 32.  A power
    of two never rejects, so each coordinate of k takes one word, or none at
    j == j_min.  That rule is replayed here on words taken in blocks (see
    ``_Words``), so a family costs a few numpy calls instead of two per
    attempt.  Wider ranges, which numpy draws from 64-bit words, are drawn
    by numpy itself after a sync.  The cubes and the generator's state
    afterwards are those of the per-attempt calls, so every instance drawn
    after this family is unchanged too.
    """
    if j_max < j_min:
        raise ContractViolationError("need j_min <= j_max")
    if d < 1:
        raise ContractViolationError("cube position vector must be non-empty")
    j_range = j_max - j_min + 1
    threshold = (_WORD - j_range) % j_range
    block = _Words(rng, 2 * (d + 1) * count + 32)
    words = block.words
    used = 0
    seen: set[tuple[int, tuple[int, ...]]] = set()
    attempts = 0
    try:
        while len(seen) < count:
            attempts += 1
            if attempts > 200 * count + 1000:
                raise ContractViolationError(
                    "cube window too small for the requested count"
                )
            if j_range == 1:
                level = 0
            elif j_range > _WORD:
                block.sync(used)
                used = 0
                level = int(rng.integers(j_min, j_max + 1)) - j_min
            else:
                while True:
                    if used == len(words):
                        block.fetch()
                    m = words[used] * j_range
                    used += 1
                    if m % _WORD >= threshold:
                        break
                level = m >> 32
            if level == 0:
                k = (0,) * d
            elif level > 32:
                block.sync(used)
                used = 0
                k = tuple(rng.integers(0, 1 << level, size=d).tolist())
            else:
                while used + d > len(words):
                    block.fetch()
                shifts = itertools.repeat(32 - level, d)
                k = tuple(map(operator.rshift, words[used : used + d], shifts))
                used += d
            seen.add((j_min + level, k))
    finally:
        block.sync(used)
    return [Cube(j, k) for j, k in sorted(seen)]


def admissible_spread(
    case: DemocracyCase,
    rng: np.random.Generator,
    n_sets: int,
    cube_count: int,
    j_min: int = -3,
    j_max: int = 6,
) -> tuple[float, float]:
    """(min, max) of the normalized ratio over random cube families."""
    ratios = []
    for _ in range(n_sets):
        cubes = random_cube_set(rng, cube_count, case.d, j_min, j_max)
        value = democracy_value(cubes, case)
        mass = nu_measure(cubes, case.measure)
        ratios.append(value / mass ** (1.0 / case.f1.p))
    return min(ratios), max(ratios)
