"""Symbolic and numeric verification of exact and matrix-perturbed
(lambda) symmetries of Hamiltonian and Lagrangian dynamics.

The package is organized as a small expression kernel (`expr`), the
bracket calculus of canonical systems (`mechanics`), exact point
symmetries (`symmetry`), the perturbed machinery with reduction charts
(`lambda_symmetry`), the Lagrangian-side pipeline (`lagrangian`),
deterministic integration and monitoring (`numeric`), and a batch
front end over JSON problem files (`problem`, `runner`, `cli`).
"""

from .expr import (
    DomainBox,
    EvalDomainError,
    Expr,
    ParseError,
    SamplingError,
    Verdicts,
    ZeroTestConfig,
    ZeroVerdict,
    compile_expr,
    compile_exprs,
    differentiate,
    format_expr,
    free_vars,
    is_identically_zero,
    parse,
    simplify,
    substitute,
)
from .mechanics import (
    PhaseSystem,
    PhaseVectorField,
    canonical_equations,
    evolutionary_form,
    hamiltonian_vector_field,
    poisson_bracket,
    scale_field,
    total_time_derivative,
)
from .symmetry import (
    CaseClassification,
    GeneratingFunctionReport,
    NotASymmetryError,
    check_first_integral,
    check_point_symmetry,
    classify_symmetry_case,
    compute_S,
    generating_function_test,
)
from .lambda_symmetry import (
    ChartError,
    LambdaMatrix,
    ReductionChart,
    check_lambda_constant_G,
    check_lambda_constant_S,
    check_lambda_symmetry,
    check_separated_G,
    lambda_prolongation,
    reduced_system,
    scalar_lambda_reduction,
    verify_chart,
)
from .lagrangian import (
    ConfigVectorField,
    LagrangianSystem,
    check_lagrangian_lambda_invariance,
    check_scalar_condition,
    check_noether_lambda,
    config_scalar_reduction,
    conjugate_momenta,
    extend_lambda,
    extend_vector_field,
    hessian_regularity,
    partial_reduction_check,
    verify_legendre,
)
from .numeric import (
    IntegrationError,
    MonitorSeries,
    Trajectory,
    compare_with_scalar_ode,
    integrate_euler_lagrange,
    integrate_first_order,
    integrate_hamiltonian,
    monitor,
    trajectory_to_csv,
)
from .problem import ProblemError, ProblemFile, load_problem
from .runner import CheckRecord, Report, run_checks

__version__ = "0.1.0"
