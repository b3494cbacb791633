"""Restricted nonlinear approximation over dyadic cube systems.

The package measures coefficient sequences indexed by dyadic cubes in four
interchangeable ways — an aggregated lattice norm, a per-scale norm, a
weighted rearrangement norm, and a budget-weighted approximation norm — and
provides exact small-instance solvers, structured counterexample families,
and a ten-criterion verification suite tying them together.
"""

from .approx import (
    ApproxParams,
    DecomposeResult,
    SigmaProfile,
    SigmaResult,
    approx_norm,
    approx_norm_dyadic,
    bernstein_constant,
    decompose,
    jackson_constant,
    sigma_exact,
    sigma_greedy,
    sigma_profile,
)
from .democracy import (
    Admissibility,
    DemocracyCase,
    GammaFamily,
    admissible_spread,
    democracy_ratio_sweep,
    democracy_value,
    divergence_exponent,
    predicted_admissible,
    random_cube_set,
)
from .dyadic import (
    ContainmentForest,
    Cube,
    MeasureSpec,
    nu_measure,
    pow2,
)
from .errors import (
    CapabilityError,
    ConfigError,
    ContractViolationError,
    DivergenceError,
    QuadratureError,
    ScaleRangeError,
)
from .lorentz import (
    CoeffSeq,
    LorentzParams,
    StepRearrangement,
    lorentz_norm,
    rearrange,
)
from .spaces import (
    AtomWeights,
    SpaceParams,
    besov_norm,
    lorentz_equals_besov_check,
    space_norm,
    suffix_norms,
    tl_norm,
)
from .verify import DEFAULT_SEED, CriterionResult, run_all
from .weights import (
    WeightFn,
    boyd_lower_index,
    geometric_sum_bound,
    smoothed_weight,
    weight_integral,
    weight_integrals,
    weight_sup_on_interval,
    weight_sups,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # dyadic machinery
    "Cube",
    "MeasureSpec",
    "ContainmentForest",
    "pow2",
    "nu_measure",
    # weights
    "WeightFn",
    "geometric_sum_bound",
    "weight_sup_on_interval",
    "weight_sups",
    "weight_integral",
    "weight_integrals",
    "smoothed_weight",
    "boyd_lower_index",
    # sequences and rearrangement norms
    "CoeffSeq",
    "StepRearrangement",
    "LorentzParams",
    "rearrange",
    "lorentz_norm",
    # smoothness-space norms
    "SpaceParams",
    "AtomWeights",
    "tl_norm",
    "besov_norm",
    "space_norm",
    "suffix_norms",
    "lorentz_equals_besov_check",
    # restricted approximation
    "ApproxParams",
    "SigmaResult",
    "SigmaProfile",
    "DecomposeResult",
    "sigma_exact",
    "sigma_greedy",
    "sigma_profile",
    "approx_norm",
    "approx_norm_dyadic",
    "decompose",
    "jackson_constant",
    "bernstein_constant",
    # democracy families
    "DemocracyCase",
    "Admissibility",
    "GammaFamily",
    "democracy_value",
    "predicted_admissible",
    "democracy_ratio_sweep",
    "divergence_exponent",
    "admissible_spread",
    "random_cube_set",
    # verification
    "DEFAULT_SEED",
    "CriterionResult",
    "run_all",
    # errors
    "ScaleRangeError",
    "ContractViolationError",
    "CapabilityError",
    "DivergenceError",
    "QuadratureError",
    "ConfigError",
]
