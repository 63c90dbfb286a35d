"""polystab: mean-square polynomial stability lab for Euler-type SDE schemes.

Simulates explicit (EM) and semi-implicit (BEM) Euler discretizations of SDEs
whose coefficients decay polynomially in time, estimates mean-square decay
exponents from reproducible Monte Carlo ensembles, and verifies the
gamma-function product identities and ratio bounds that the decay envelopes
are built from.
"""

from .analysis import (
    DecayEstimate,
    LowerBoundSequence,
    RecurrenceCheckResult,
    bem_envelope,
    counterexample_lower_bound,
    em_envelope,
    em_recurrence_bound,
    estimate_decay_exponent,
    verify_proof_bounds,
)
from .ensemble import (
    MomentSeries,
    RunRecord,
    SimConfig,
    geometric_checkpoints,
    run_ensemble,
    simulate_ensemble,
)
from .gamma import (
    GammaProductParams,
    log_gamma_ratio,
    product_direct,
    product_via_gamma,
    ratio_power_margin,
    verify_product_identity,
    verify_ratio_signs,
)
from .integrators import (
    ImplicitSolveError,
    StepContext,
    StepError,
    bem_step_batch,
    em_step,
    em_step_batch,
    solve_implicit,
    solve_implicit_batch,
)
from .noise import brownian_increment
from .problems import (
    ConditionAuditReport,
    SdeProblem,
    audit_conditions,
    bem_example,
    cubic_counterexample,
    exact_linear_mean_square,
    linear_example,
    one_sided_decay_max_k1,
    problem_from_label,
)

__version__ = "0.1.0"

__all__ = [
    "DecayEstimate",
    "LowerBoundSequence",
    "RecurrenceCheckResult",
    "bem_envelope",
    "counterexample_lower_bound",
    "em_envelope",
    "em_recurrence_bound",
    "estimate_decay_exponent",
    "verify_proof_bounds",
    "MomentSeries",
    "RunRecord",
    "SimConfig",
    "brownian_increment",
    "geometric_checkpoints",
    "run_ensemble",
    "simulate_ensemble",
    "GammaProductParams",
    "log_gamma_ratio",
    "product_direct",
    "product_via_gamma",
    "ratio_power_margin",
    "verify_product_identity",
    "verify_ratio_signs",
    "ImplicitSolveError",
    "StepContext",
    "StepError",
    "bem_step_batch",
    "em_step",
    "em_step_batch",
    "solve_implicit",
    "solve_implicit_batch",
    "ConditionAuditReport",
    "SdeProblem",
    "audit_conditions",
    "bem_example",
    "cubic_counterexample",
    "exact_linear_mean_square",
    "linear_example",
    "one_sided_decay_max_k1",
    "problem_from_label",
    "__version__",
]
