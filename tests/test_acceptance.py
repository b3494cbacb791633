"""Top-level acceptance checks, one per shipped guarantee.

Each test runs its check with the default seed, prints the one-line verdict,
and fails if the verdict is not a pass.  Run with ``pytest
tests/test_acceptance.py -s`` to see the verdict lines on the terminal.
"""

from __future__ import annotations

import pytest

from restapprox import verify
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
