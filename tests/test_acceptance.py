"""Top-level acceptance checks, one per shipped guarantee.

Each test runs its check with the default seed, prints the one-line verdict,
and fails if the verdict is not a pass.  Run with ``pytest
tests/test_acceptance.py -s`` to see the verdict lines on the terminal.
"""

from __future__ import annotations

import math

import pytest

from restapprox import (
    ApproxParams,
    CoeffSeq,
    Cube,
    DemocracyCase,
    GammaFamily,
    MeasureSpec,
    SpaceParams,
    sigma_profile,
    verify,
)
from restapprox.verify import DEFAULT_SEED

_CRITERIA = [
    verify.criterion_1,
    verify.criterion_2,
    verify.criterion_3,
    verify.criterion_4,
    verify.criterion_5,
    verify.criterion_6,
    verify.criterion_7,
    verify.criterion_8,
    verify.criterion_9,
    verify.criterion_10,
]


# Details strings recorded at DEFAULT_SEED.  Criterion 3's depend on every
# cube family it draws (d = 1 and 2, 30 and 60 cubes), so they pin the random
# stream of ``random_cube_set`` where the goldens do not reach.
_PINNED_DETAILS = {
    3: "20 matched draws: worst spread growth x1.000 (< 1.5); "
    "3 mismatched fits: worst exponent error 0.0000 (<= 0.05)",
    5: "50 instances, 0 support ties resolved differently, "
    "0 error disagreements beyond 1e-12, 0 uncertified",
}


@pytest.mark.parametrize(
    "criterion", _CRITERIA, ids=[f"criterion_{k}" for k in range(1, 11)]
)
def test_acceptance(criterion):
    result = criterion(DEFAULT_SEED)
    print(result.line())
    assert result.passed, result.line()
    if result.cid in _PINNED_DETAILS:
        assert result.details == _PINNED_DETAILS[result.cid]


def test_criterion_8_greedy_ratios_at_seed_43():
    """Greedy decompositions and greedy profiles read one prefix order, so the
    score ratio stays inside the frozen window where a threshold greedy fell
    to 0.053."""
    result = verify.criterion_8(43)
    assert result.passed, result.line()


def test_injected_drift_is_detected():
    """The suite must fail — and only fail — where a deliberate parameter
    perturbation breaks the checked identity."""
    results = verify.run_all(DEFAULT_SEED, alpha_perturb=0.1)
    failed = [r.cid for r in results if not r.passed]
    assert failed == [2]


def test_shared_checks_decide_at_their_bounds():
    """The drift, sandwich and closed-form checks that the criteria and the
    command-line reports both read."""
    assert verify.drift([2.0, 1.0, 3.5]) == (3.5, True)
    assert verify.drift([1.0, verify.DRIFT_BOUND]) == (verify.DRIFT_BOUND, False)
    assert not verify.drift([1.0, math.inf])[1]
    seq = CoeffSeq({Cube(0, (0,)): 1.0, Cube(2, (1,)): -0.5, Cube(1, (3,)): 0.25})
    space = SpaceParams(0.0, 2.0, 2.0, 1, "tl")
    cases = ((0.5, 2.0, True), (0.5, math.inf, True), (0.3, 2.0, False))
    for xi, mu, guaranteed in cases:
        profile = sigma_profile(seq, ApproxParams(xi, mu, space, MeasureSpec(1.0)))
        check = verify.sandwich(profile, xi, mu)
        assert check.ratio == check.integral / check.dyadic
        assert check.lo < 2.0**-xi < 2.0**xi < check.hi
        assert check.guaranteed == guaranteed
        assert check.ok == (check.lo <= check.ratio <= check.hi)
    fam = GammaFamily("grid", 4, L=2, d=1)
    f1 = SpaceParams(0.3, 1.5, 2.2, 1, "tl")
    f2 = SpaceParams(0.8, 2.5, 3.0, 1, "tl")
    formula = DemocracyCase(f1, f2, 1.0).formula_alpha
    matched = DemocracyCase(f1, f2, formula)
    checks = list(verify.closed_form_checks(fam, matched, formula))
    assert [metric for metric, *_ in checks] == ["value", "mass"]
    assert all(ok for *_, ok in checks)
    # Off the matched exponent the value still meets its closed form, which
    # follows the case, but the mass misses the one at the formula exponent.
    perturbed = DemocracyCase(f1, f2, formula + 0.05)
    checks = list(verify.closed_form_checks(fam, perturbed, formula))
    assert [(metric, ok) for metric, _, _, ok in checks] == [
        ("value", True),
        ("mass", False),
    ]
    assert [m for m, *_ in verify.closed_form_checks(fam, perturbed)] == ["value"]
