"""Matrix-perturbed (lambda) symmetries of canonical equations.

A square matrix Lambda of smooth functions modifies the prolongation of
a vector field; the perturbed symmetry condition, the controlled
conservation laws for the quantities G and S, the scalar reduction
Lambda.Phi = lambda.Phi, and the invariant-chart reduction of the
equations are verified here.  Lambda entries may reference the velocity
symbols dq*/dp*, which are always substituted with the equations of
motion before any check.  Each report is an `expr.Verdicts`: its labelled
zero verdicts in one `checks` tuple, plus what the check derived.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from .expr import (
    DomainBox,
    Expr,
    Var,
    Verdicts,
    ZERO,
    ZeroTestConfig,
    add,
    coerce,
    differentiate,
    div,
    free_vars,
    is_identically_zero,
    mul,
    neg,
    simplify,
    substitute,
)
from .mechanics import (
    Coordinates,
    PhaseSystem,
    PhaseVectorField,
    _require_autonomous,
    canonical_equations,
    on_shell_map,
    total_time_derivative,
)
from .symmetry import compute_S, generating_function_test, invariance_residuals

HAMILTONIAN_SIDE = "hamiltonian"
LAGRANGIAN_SIDE = "lagrangian"


class ChartError(ValueError):
    """A reduction chart failed verification or is incomplete."""


@dataclass(frozen=True)
class LambdaMatrix:
    """Square matrix of expressions perturbing the prolongation.

    Hamiltonian-side matrices are 2n x 2n and act on the full phase
    components; Lagrangian-side matrices are n x n and act on the
    configuration coefficients.  `velocity_dependent` is derived: true
    when an entry contains a velocity symbol of the matrix's side.
    """

    entries: tuple
    side: str = HAMILTONIAN_SIDE
    velocity_dependent: bool = field(init=False)

    def __post_init__(self):
        rows = tuple(tuple(coerce(e) for e in row) for row in self.entries)
        object.__setattr__(self, "entries", rows)
        size = len(rows)
        if size == 0 or any(len(r) != size for r in rows):
            raise ValueError("lambda matrix must be square and non-empty")
        if self.side not in (HAMILTONIAN_SIDE, LAGRANGIAN_SIDE):
            raise ValueError(f"unknown side {self.side!r}")
        if self.side == HAMILTONIAN_SIDE and size % 2:
            raise ValueError("hamiltonian-side matrix must have even size")
        lagrangian = self.side == LAGRANGIAN_SIDE
        c = Coordinates(size if lagrangian else size // 2)
        vel = set(c.dq if lagrangian else c.velocities)
        object.__setattr__(self, "velocity_dependent",
                           any(free_vars(e) & vel for row in rows for e in row))

    @property
    def size(self) -> int:
        return len(self.entries)

    @classmethod
    def zeros(cls, size: int, side: str = HAMILTONIAN_SIDE) -> "LambdaMatrix":
        return cls(tuple((ZERO,) * size for _ in range(size)), side)

    @classmethod
    def diagonal(cls, diag: Sequence, side: str = HAMILTONIAN_SIDE) -> "LambdaMatrix":
        d = [coerce(e) for e in diag]
        rows = tuple(tuple(d[i] if i == j else ZERO for j in range(len(d)))
                     for i in range(len(d)))
        return cls(rows, side)

    def vec(self, v: Sequence[Expr]) -> tuple:
        if len(v) != self.size:
            raise ValueError(f"vector length {len(v)} does not match matrix size {self.size}")
        return tuple(add(*[mul(self.entries[i][j], v[j]) for j in range(self.size)])
                     for i in range(self.size))

    def on_shell(self, sys: PhaseSystem) -> "LambdaMatrix":
        """Substitute velocity symbols with the equations of motion."""
        if not self.velocity_dependent:
            return self
        shell = on_shell_map(sys)
        return LambdaMatrix(tuple(tuple(substitute(e, shell) for e in row)
                                  for row in self.entries), self.side)


@dataclass(frozen=True)
class ReductionChart:
    """Invariant coordinates w1..w_{2n-1}, the coordinate z rectifying the
    field (Xz = 1), and the explicit inverse map (t, w, z) -> (q, p)."""

    w: tuple
    z: Expr
    inverse: Mapping[str, Expr]

    def __post_init__(self):
        object.__setattr__(self, "w", tuple(coerce(e) for e in self.w))
        object.__setattr__(self, "z", coerce(self.z))
        object.__setattr__(self, "inverse",
                           {k: coerce(v) for k, v in dict(self.inverse).items()})

    z_name = "z"

    @classmethod
    def variables_for(cls, size: int) -> tuple:
        """(t, w1..w_size, z): the variables of a chart with size invariants."""
        return ("t", *(f"w{j+1}" for j in range(size)), cls.z_name)

    @property
    def w_names(self) -> tuple:
        return self.variables_for(len(self.w))[1:-1]


def _require_shape(lam: LambdaMatrix, side: str, size: int):
    """ValueError unless lam is a side-side matrix of size x size."""
    if lam.side != side or lam.size != size:
        raise ValueError(f"need a {side}-side {size}x{size} matrix, "
                         f"got {lam.side} {lam.size}x{lam.size}")


def _lambda_phi(sys: PhaseSystem, x: PhaseVectorField, lam: LambdaMatrix) -> tuple:
    """Lambda Phi on shell, for a field with tau = 0 and a hamiltonian-side
    matrix of the system's size."""
    _require_autonomous(x)
    _require_shape(lam, HAMILTONIAN_SIDE, 2 * sys.n)
    return lam.on_shell(sys).vec(x.components)


def _scalar_multiple(lam_phi: Sequence[Expr], comps: Sequence[Expr],
                     box: Optional[DomainBox], cfg: Optional[ZeroTestConfig]) -> Optional[Expr]:
    """The scalar lambda with lam_phi = lambda comps, or None.  It is read off
    the first component that does not vanish on the box and cross-validated
    against all others."""
    nonzero = [not is_identically_zero(c, box, cfg).ok for c in comps]
    if not any(nonzero):
        raise ValueError("all components of the field vanish on the box")
    for a in range(len(comps)):
        for b in range(a + 1, len(comps)):
            cross = add(mul(lam_phi[a], comps[b]), neg(mul(lam_phi[b], comps[a])))
            if not is_identically_zero(cross, box, cfg).ok:
                return None
    pivot = nonzero.index(True)
    scalar = simplify(div(lam_phi[pivot], comps[pivot]))
    for b in range(len(comps)):
        resid = add(lam_phi[b], neg(mul(scalar, comps[b])))
        if not is_identically_zero(resid, box, cfg).ok:
            return None
    return scalar


def lambda_prolongation(sys: PhaseSystem, x: PhaseVectorField,
                        lam: LambdaMatrix) -> tuple:
    """Velocity-direction coefficients of the perturbed first prolongation:
    D_t Phi_a + (Lambda Phi)_a, expanded along solutions."""
    lam_phi = _lambda_phi(sys, x, lam)
    return tuple(simplify(add(total_time_derivative(sys, c), lp))
                 for c, lp in zip(x.components, lam_phi))


def check_lambda_symmetry(sys: PhaseSystem, x: PhaseVectorField, lam: LambdaMatrix,
                          box: Optional[DomainBox] = None,
                          cfg: Optional[ZeroTestConfig] = None) -> Verdicts:
    """Perturbed symmetry condition: [F, Phi]_a + dPhi_a/dt = -(Lambda Phi)_a,
    against the normalized F of `canonical_equations`, labelled as in
    `symmetry.check_point_symmetry`."""
    residuals = invariance_residuals(sys, x, canonical_equations(sys), _lambda_phi(sys, x, lam))
    return Verdicts(tuple((v, is_identically_zero(r, box, cfg))
                          for v, r in zip(sys.u, residuals)))


def scalar_lambda_reduction(sys: PhaseSystem, x: PhaseVectorField, lam: LambdaMatrix,
                            box: Optional[DomainBox] = None,
                            cfg: Optional[ZeroTestConfig] = None) -> Optional[Expr]:
    """Return the scalar function lambda with Lambda Phi = lambda Phi, if one
    exists, else None (see `_scalar_multiple`)."""
    return _scalar_multiple(_lambda_phi(sys, x, lam), x.components, box, cfg)


def _apply_j(sys: PhaseSystem, v: Sequence[Expr]) -> tuple:
    n = sys.n
    return tuple(v[n:]) + tuple(neg(c) for c in v[:n])


@dataclass(frozen=True)
class LambdaConstantGReport(Verdicts):
    """Controlled conservation of a generating function G:
    grad(dG/dt along solutions) = J Lambda J grad G, componentwise; when
    Lambda Phi = lambda Phi, `checks` goes on with grad(rate) = -lambda grad G."""

    g: Expr
    rate: Expr
    scalar: Optional[Expr] = None


def check_lambda_constant_G(sys: PhaseSystem, x: PhaseVectorField, lam: LambdaMatrix,
                            g: Expr, box: Optional[DomainBox] = None,
                            cfg: Optional[ZeroTestConfig] = None) -> LambdaConstantGReport:
    """Verify the deviation law for a generating function G of X."""
    _require_autonomous(x)
    _require_shape(lam, HAMILTONIAN_SIDE, 2 * sys.n)
    rep = generating_function_test(sys, x, box, candidate_g=g, cfg=cfg)
    if rep.verified_g is None:
        raise ValueError("the candidate is not a generating function of the field")
    gv = rep.verified_g
    rate = simplify(total_time_derivative(sys, gv))
    grad_g = [differentiate(gv, v) for v in sys.u]
    target = _apply_j(sys, lam.on_shell(sys).vec(_apply_j(sys, grad_g)))
    checks = [
        (f"d(rate)/d{v}", is_identically_zero(
            add(differentiate(rate, v), neg(target[a])), box, cfg))
        for a, v in enumerate(sys.u)]

    scalar = None
    try:
        scalar = scalar_lambda_reduction(sys, x, lam, box, cfg)
    except ValueError:
        pass
    if scalar is not None:
        checks += [
            (f"d(rate)/d{v}+lambda*dG/d{v}", is_identically_zero(
                add(differentiate(rate, v), mul(scalar, grad_g[a])), box, cfg))
            for a, v in enumerate(sys.u)]
    return LambdaConstantGReport(tuple(checks), gv, rate, scalar)


@dataclass(frozen=True)
class LambdaConstantSReport(Verdicts):
    """Controlled conservation of the divergence quantity S:
    dS/dt along solutions = -div(Lambda Phi)."""

    s: Expr
    rate: Expr
    divergence: Expr


def check_lambda_constant_S(sys: PhaseSystem, x: PhaseVectorField, lam: LambdaMatrix,
                            box: Optional[DomainBox] = None,
                            cfg: Optional[ZeroTestConfig] = None) -> LambdaConstantSReport:
    lam_phi = _lambda_phi(sys, x, lam)
    s = compute_S(sys, x)
    rate = simplify(total_time_derivative(sys, s))
    divergence = simplify(add(*[differentiate(c, v) for c, v in zip(lam_phi, sys.u)]))
    verdict = is_identically_zero(add(rate, divergence), box, cfg)
    return LambdaConstantSReport((("dS/dt+div(Lambda Phi)", verdict),), s, rate, divergence)


def verify_chart(sys: PhaseSystem, x: PhaseVectorField, chart: ReductionChart,
                 box: Optional[DomainBox] = None,
                 cfg: Optional[ZeroTestConfig] = None) -> Verdicts:
    """Check X w_j = 0, X z = 1, and that the inverse map really inverts
    the chart (forward after inverse is the identity on (w, z))."""
    _require_autonomous(x)
    if len(chart.w) != 2 * sys.n - 1:
        raise ChartError(f"need {2*sys.n - 1} invariants, got {len(chart.w)}")
    missing = [v for v in sys.u if v not in chart.inverse]
    if missing:
        raise ChartError(f"inverse map misses variables: {missing}")
    checks = [(f"X{name}", is_identically_zero(x.apply(sys, wj), box, cfg))
              for name, wj in zip(chart.w_names, chart.w)]
    rect = add(x.apply(sys, chart.z), coerce(-1))
    checks.append(("Xz=1", is_identically_zero(rect, box, cfg)))
    for name, wj in zip(chart.w_names, chart.w):
        resid = add(substitute(wj, chart.inverse), neg(Var(name)))
        checks.append((f"{name} after inverse", is_identically_zero(resid, box, cfg)))
    resid = add(substitute(chart.z, chart.inverse), neg(Var(chart.z_name)))
    checks.append(("z after inverse", is_identically_zero(resid, box, cfg)))
    return Verdicts(tuple(checks))


@dataclass(frozen=True)
class ReducedSystem(Verdicts):
    """Equations of motion rewritten in chart variables: dw_j/dt = W_j,
    dz/dt = Z, with the z-dependence certificates M: `checks` holds
    d(rate)/dz = M for each, and `z_free` which M vanish."""

    w_rhs: tuple
    z_rhs: Expr
    m: tuple
    z_free: tuple


def reduced_system(sys: PhaseSystem, x: PhaseVectorField, lam: LambdaMatrix,
                   chart: ReductionChart, box: Optional[DomainBox] = None,
                   cfg: Optional[ZeroTestConfig] = None) -> ReducedSystem:
    """Rewrite the flow in chart coordinates and certify that the explicit
    z-dependence of each right-hand side equals the matrix term M."""
    report = verify_chart(sys, x, chart, box, cfg)
    if not report.holds:
        raise ChartError("chart verification failed; reduction is undefined")
    chart_vars = set(chart.variables_for(len(chart.w)))

    def to_chart(e: Expr, what: str) -> Expr:
        out = simplify(substitute(simplify(e), chart.inverse))
        stray = free_vars(out) - chart_vars
        if stray:
            raise ChartError(f"{what} still contains phase variables {sorted(stray)}")
        return out

    lam_phi = _lambda_phi(sys, x, lam)
    names = chart.w_names + (chart.z_name,)
    rates, m_terms = [], []
    for name, f in zip(names, chart.w + (chart.z,)):
        rates.append(to_chart(total_time_derivative(sys, f), f"d{name}/dt"))
        m = add(*[mul(differentiate(f, v), lp) for v, lp in zip(sys.u, lam_phi)])
        m_terms.append(to_chart(m, f"M for {name}"))
    checks = tuple((f"d({name} rate)/dz", is_identically_zero(
        add(differentiate(rate, chart.z_name), neg(m)), box, cfg))
        for name, rate, m in zip(names, rates, m_terms))
    z_free = tuple(is_identically_zero(m, box, cfg).ok for m in m_terms)
    return ReducedSystem(checks, tuple(rates[:-1]), rates[-1], tuple(m_terms), z_free)


@dataclass(frozen=True)
class SeparatedGReport(Verdicts):
    """When Lambda Phi = lambda Phi and G is a chart coordinate, its
    reduced equation closes: dG/dt = gamma(t, G); gamma is None when a
    check failed."""

    gamma: Optional[Expr]


def check_separated_G(sys: PhaseSystem, x: PhaseVectorField, lam: LambdaMatrix,
                      chart: ReductionChart, g_index: int,
                      box: Optional[DomainBox] = None,
                      cfg: Optional[ZeroTestConfig] = None) -> SeparatedGReport:
    """Verify that the reduced equation for the chart coordinate at
    g_index involves only (t, G); returns gamma with G as the variable."""
    if not 0 <= g_index < len(chart.w):
        raise ValueError(f"g_index {g_index} out of range")
    scalar = scalar_lambda_reduction(sys, x, lam, box, cfg)
    if scalar is None:
        raise ValueError("Lambda Phi is not a scalar multiple of Phi; "
                         "no separated equation is implied")
    rs = reduced_system(sys, x, lam, chart, box, cfg)
    rate = rs.w_rhs[g_index]
    checks = []
    for name in chart.w_names:
        if name == chart.w_names[g_index]:
            continue
        checks.append((f"d(G rate)/d{name}", is_identically_zero(
            differentiate(rate, name), box, cfg)))
    checks.append(("d(G rate)/dz", is_identically_zero(
        differentiate(rate, chart.z_name), box, cfg)))
    if not all(v.ok for _, v in checks):
        return SeparatedGReport(tuple(checks), None)
    gamma = simplify(substitute(rate, {chart.w_names[g_index]: Var("G")}))
    return SeparatedGReport(tuple(checks), gamma)

