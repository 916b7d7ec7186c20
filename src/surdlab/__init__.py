"""surdlab: exact continued fractions, Pell equations and power-sum forms.

Everything computes with exact integer/rational arithmetic; floating
point appears only in observational statistics, and every reported
inequality that matters is certified through interval arithmetic with
exact endpoints.
"""

from .forms import (
    FormClass,
    FormSyntaxError,
    PowerSumForm,
    ZERO,
    add,
    classify,
    compose_affine,
    constant,
    dominant,
    dominant_ratio,
    eval_exact,
    eval_int,
    format_form,
    monomial,
    mul,
    normalize,
    parse_form,
    scale,
)
from .intervals import Interval, sqrt_interval
from .surd import (
    CFExpansion,
    Convergent,
    PellSolution,
    ResourceLimitError,
    SquareInputError,
    cf_sqrt,
    cf_stream,
    convergents,
    fundamental_pell,
    is_perfect_square,
    isqrt,
    pell_value_stream,
    period_bound_ratio,
    period_length,
)
from .expansion import (
    FAILS,
    HOLDS,
    HOLDS_TRIVIALLY,
    HypothesisReport,
    HypothesisWitness,
    SqrtApprox,
    decide_hypothesis,
    error_table,
    growth_exponent,
    sqrt_approximation,
    trivial_criterion,
)
from .growth import (
    GrowthRecord,
    MinSolutionGrowth,
    PartialQuotientProfile,
    PellQuery,
    PellScan,
    bounded_pell_solutions,
    denominator_growth,
    least_squares_slope,
    min_solution_growth,
    partial_quotient_profile,
)
from .harness import (
    ExperimentConfig,
    FamilyRecord,
    IdentityReport,
    emit,
    preset_config,
    run_family,
    run_identity_checks,
    suffix_min_periods,
)

__version__ = "0.1.0"
