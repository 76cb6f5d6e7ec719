"""Risk-sensitive control of regime-switching diffusions.

Eigensolver for the coupled Bellman operator on truncated boxes, Monte Carlo
simulation of the switching SDE, and verification checks tying the two
together.
"""

__version__ = "0.1.0"

from .eigen import (EigenPair, NoConvergenceError, NotIrreducibleError,
                    SemilinearSolution, SweepResult, domain_sweep,
                    minimizing_selector, principal_eigenpair, solve_semilinear)
from .expressions import ExpressionError, compile_expression, load_model, model_from_spec
from .grid import GridSpec, grid_for_resolution
from .model import (BUILTIN_MODELS, CertificateMode, LyapunovCertificate,
                    NonFiniteCoefficientError, SwitchingModel, ValidationReport,
                    check_lyapunov, coefficients, make_builtin, validate_model)
from .operator import DiscreteOperator, MonotonicityViolation, assemble, constant_policy
from .simulate import (ControlMap, CostEstimate, Functional,
                       NonFiniteEstimateError, PathConfig, StepSizeError,
                       TrajectoryBatch, estimate_risk_sensitive_rate,
                       estimate_risk_sensitive_rates, feynman_kac_annulus, mean_position_diagnostic, simulate_paths)
from .verify import (GrowthBound, fit_growth_bound, lambda_equals_optimal_value,
                     near_monotone_suite, random_policies, validate_near_monotone,
                     verify_optimality)

__all__ = [
    "BUILTIN_MODELS", "CertificateMode", "ControlMap", "CostEstimate",
    "DiscreteOperator", "EigenPair", "ExpressionError", "Functional",
    "GridSpec", "GrowthBound", "LyapunovCertificate", "MonotonicityViolation",
    "NoConvergenceError", "NonFiniteCoefficientError", "NonFiniteEstimateError",
    "NotIrreducibleError", "PathConfig",
    "SemilinearSolution", "StepSizeError", "SweepResult", "SwitchingModel",
    "TrajectoryBatch", "ValidationReport", "assemble",
    "check_lyapunov", "coefficients", "compile_expression", "constant_policy",
    "domain_sweep", "estimate_risk_sensitive_rate", "estimate_risk_sensitive_rates",
    "feynman_kac_annulus", "fit_growth_bound", "grid_for_resolution",
    "lambda_equals_optimal_value", "load_model", "make_builtin",
    "mean_position_diagnostic", "minimizing_selector", "model_from_spec",
    "near_monotone_suite", "principal_eigenpair", "random_policies",
    "simulate_paths", "solve_semilinear", "validate_model", "validate_near_monotone",
    "verify_optimality",
]
