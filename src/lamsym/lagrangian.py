"""First-order Lagrangians with matrix-perturbed invariance.

Covers: the perturbed invariance condition for a configuration field,
conjugate momenta and verification of user-supplied Legendre data, the
extension of the configuration field and of the n x n matrix to phase
space, the on-shell conservation check for P = phi . p along integrated
trajectories, the scalar condition on the configuration side, and the
partial reduction through first-order differential invariants.  A report
of zero verdicts is an `expr.Verdicts` with its payload fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .expr import (
    DomainBox,
    Expr,
    Var,
    Verdicts,
    ZERO,
    ZeroTestConfig,
    ZeroVerdict,
    add,
    coerce,
    compile_exprs,
    differentiate,
    div,
    free_vars,
    is_identically_zero,
    mul,
    neg,
    simplify,
    substitute,
)
from .lambda_symmetry import (HAMILTONIAN_SIDE, LAGRANGIAN_SIDE, LambdaMatrix,
                              _require_shape, _scalar_multiple)
from .mechanics import Coordinates, PhaseVectorField, hamiltonian_vector_field
from .numeric import (central_residual, integrate_euler_lagrange, integrate_first_order,
                      values_along)

# hessian_regularity samples the velocity Hessian at this many seeded points
# and counts the Lagrangian regular when every |det| exceeds the threshold
HESSIAN_SAMPLES = 25
HESSIAN_DET_THRESHOLD = 1e-8


class LagrangianSystem(Coordinates):
    """A first-order Lagrangian L(t, q, dq) with n degrees of freedom."""

    def __init__(self, n: int, lagrangian: Expr):
        super().__init__(n)
        self.lagrangian = coerce(lagrangian)
        extra = free_vars(self.lagrangian) - set(self.q) - set(self.dq) - {self.t}
        if extra:
            raise ValueError(f"lagrangian contains unknown variables: {sorted(extra)}")
        self._flow: Optional[Callable] = None     # numeric._euler_lagrange_stage of this system

    def __repr__(self):
        return f"LagrangianSystem(n={self.n}, L={self.lagrangian})"

    def velocity_hessian(self) -> list:
        """The entries d2L/ddq_a ddq_b, row-major and not simplified."""
        dv = [differentiate(self.lagrangian, v) for v in self.dq]
        return [differentiate(d, vb) for d in dv for vb in self.dq]


@dataclass(frozen=True)
class ConfigVectorField:
    """phi_alpha(t, q) d/dq_alpha over t and q1..qn, n the length of phi."""

    phi: tuple

    def __post_init__(self):
        object.__setattr__(self, "phi", tuple(coerce(e) for e in self.phi))
        banned = set().union(*map(free_vars, self.phi)) - {"t", *Coordinates(self.n).q}
        if banned:
            raise ValueError(f"configuration field may only use (t, q): {sorted(banned)}")

    @property
    def n(self) -> int:
        return len(self.phi)


def _free_velocity_dt(lag: LagrangianSystem, f: Expr) -> Expr:
    """Total t-derivative with free velocity symbols (no dynamics)."""
    parts = [differentiate(f, lag.t)]
    parts += [mul(Var(dv), differentiate(f, qv)) for qv, dv in zip(lag.q, lag.dq)]
    return add(*parts)


def _prolonged_action(lag: LagrangianSystem, xl: ConfigVectorField,
                      laml: LambdaMatrix, f: Expr) -> Expr:
    """The perturbed prolongation of xl applied to f(t, q, dq), velocities free:
    sum phi_a df/dq_a + (D_t phi_a + (Lambda phi)_a) df/ddq_a."""
    lam_phi = laml.vec(xl.phi)
    parts = [mul(xl.phi[a], differentiate(f, lag.q[a])) for a in range(lag.n)]
    for a in range(lag.n):
        coeff = add(_free_velocity_dt(lag, xl.phi[a]), lam_phi[a])
        parts.append(mul(coeff, differentiate(f, lag.dq[a])))
    return add(*parts)


def hessian_regularity(lag: LagrangianSystem, box: Optional[DomainBox] = None):
    """Numerically check invertibility of the velocity Hessian on the box at
    HESSIAN_SAMPLES seeded points.

    Returns (regular, smallest |det| seen).
    """
    box = box or DomainBox()
    names = (lag.t,) + lag.q + lag.dq
    entries = compile_exprs(lag.velocity_hessian(), names)
    worst = float("inf")
    for point in box.points(names, 0, HESSIAN_SAMPLES):
        m = np.array(entries(*point)).reshape(lag.n, lag.n)
        worst = min(worst, abs(float(np.linalg.det(m))))
    return worst > HESSIAN_DET_THRESHOLD, worst


def _require_regular(lag: LagrangianSystem, box: Optional[DomainBox]) -> float:
    """The smallest sampled |det| of the velocity Hessian; ValueError when
    the Lagrangian is singular on the box."""
    regular, worst = hessian_regularity(lag, box)
    if not regular:
        raise ValueError(f"Lagrangian is singular on the box (|det| down to {worst:.3e})")
    return worst


def check_lagrangian_lambda_invariance(lag: LagrangianSystem, xl: ConfigVectorField,
                                       laml: LambdaMatrix,
                                       box: Optional[DomainBox] = None,
                                       cfg: Optional[ZeroTestConfig] = None) -> ZeroVerdict:
    """Residual of the perturbed invariance condition
    sum phi dL/dq + (D_t phi + Lambda phi) dL/ddq = 0 with free velocities."""
    _require_shape(laml, LAGRANGIAN_SIDE, lag.n)
    if xl.n != lag.n:
        raise ValueError("field dimension does not match the system")
    return is_identically_zero(_prolonged_action(lag, xl, laml, lag.lagrangian), box, cfg)


def conjugate_momenta(lag: LagrangianSystem) -> tuple:
    """dL/ddq_alpha as expressions in (t, q, dq)."""
    return tuple(simplify(differentiate(lag.lagrangian, v)) for v in lag.dq)


@dataclass(frozen=True)
class LegendreReport(Verdicts):
    """The momentum checks, then the energy check H = p.v - L."""

    min_hessian_det: float


def verify_legendre(lag: LagrangianSystem, velocity_map: Sequence[Expr], h_expr: Expr,
                    box: Optional[DomainBox] = None,
                    cfg: Optional[ZeroTestConfig] = None) -> LegendreReport:
    """Verify user-supplied Legendre data: with dq_alpha = v_alpha(t, q, p),
    momenta must satisfy p_alpha = dL/ddq_alpha at dq = v and the
    Hamiltonian must equal p.v - L at dq = v."""
    if len(velocity_map) != lag.n:
        raise ValueError(f"velocity map needs {lag.n} components")
    worst = _require_regular(lag, box)
    vmap = dict(zip(lag.dq, (coerce(v) for v in velocity_map)))
    moms = conjugate_momenta(lag)
    checks = []
    for a in range(lag.n):
        resid = add(Var(lag.p[a]), neg(substitute(moms[a], vmap)))
        checks.append((f"{lag.p[a]} consistency", is_identically_zero(resid, box, cfg)))
    pv = add(*[mul(Var(lag.p[a]), vmap[lag.dq[a]]) for a in range(lag.n)])
    resid = add(coerce(h_expr), neg(pv), substitute(lag.lagrangian, vmap))
    checks.append(("energy", is_identically_zero(resid, box, cfg)))
    return LegendreReport(tuple(checks), worst)


def extend_vector_field(xl: ConfigVectorField, laml: Optional[LambdaMatrix] = None,
                        velocity_map: Optional[Sequence[Expr]] = None):
    """The lift of phi to phase space: the Hamiltonian field of G = phi . p,
    so psi_alpha = -sum_beta p_beta dphi_beta/dq_alpha.

    When the matrix depends on velocities, psi_alpha also gets
    -dLambda_{beta gamma}/ddq_alpha phi_gamma p_beta (the Lagrangian's
    perturbed invariance removes the exact-rate term), and velocities left
    over are rewritten into (t, q, p) through the velocity map.  Returns
    the field and G, or None for G when the matrix depends on velocities.
    """
    coords = Coordinates(xl.n)
    g = simplify(add(*[mul(c, Var(p)) for c, p in zip(xl.phi, coords.p)]))
    x = hamiltonian_vector_field(coords, g)
    if laml is None:
        return x, g
    _require_shape(laml, LAGRANGIAN_SIDE, xl.n)
    if not laml.velocity_dependent:
        return x, g
    n, dq = xl.n, coords.dq
    psi = []
    for a in range(n):
        parts = [x.psi[a]]
        for b in range(n):
            for c in range(n):
                dlam = differentiate(laml.entries[b][c], dq[a])
                if dlam != ZERO:
                    parts.append(neg(mul(dlam, xl.phi[c], Var(coords.p[b]))))
        psi.append(simplify(add(*parts)))
    leftover = set().union(*[free_vars(e) for e in psi]) & set(dq)
    if leftover:
        if velocity_map is None:
            raise ValueError(f"extension still contains {sorted(leftover)}; "
                             "a velocity map (t,q,p) is required")
        vmap = dict(zip(dq, (coerce(v) for v in velocity_map)))
        psi = [simplify(substitute(e, vmap)) for e in psi]
    return PhaseVectorField(x.phi, tuple(psi)), None


@dataclass(frozen=True)
class LambdaExtensionReport(Verdicts):
    """The extended matrix, whose lower-right block was solved or a
    candidate; `checks` are the block constraints."""

    matrix: LambdaMatrix
    solved: bool


def _solve_lambda2(jac, laml: LambdaMatrix, box, cfg):
    """Solve D J^T = J^T (Lambda^L)^T for diagonal or triangular Jacobians;
    None when the shape is not handled (caller then needs a candidate)."""
    n = laml.size
    nonzero = [[not is_identically_zero(jac[a][b], box, cfg).ok for b in range(n)]
               for a in range(n)]
    if not any(any(row) for row in nonzero):
        return [[ZERO] * n for _ in range(n)]  # vacuous constraint
    lower = all(not nonzero[a][b] for a in range(n) for b in range(n) if b > a)
    upper = all(not nonzero[a][b] for a in range(n) for b in range(n) if b < a)
    pivots = all(nonzero[a][a] for a in range(n))
    if not (lower and upper or (lower or upper) and pivots):
        return None
    # substitution on D J^T = R, one row of D at a time; equation gamma
    # involves the unknowns D[a][b] with b <= gamma for lower Jacobians.  A
    # zero pivot, which only a diagonal Jacobian may have, leaves its unknown
    # at 0 when its equation already vanishes
    r = [[simplify(add(*[mul(jac[b][a], laml.entries[g][b]) for b in range(n)]))
          for g in range(n)] for a in range(n)]
    d = [[ZERO] * n for _ in range(n)]
    cols = range(n) if lower else range(n - 1, -1, -1)
    for a in range(n):
        for g in cols:
            acc = r[a][g]
            for b in range(n):
                if b != g and (jac[g][b] != ZERO):
                    acc = add(acc, neg(mul(d[a][b], jac[g][b])))
            if nonzero[g][g]:
                d[a][g] = simplify(div(acc, jac[g][g]))
            elif not is_identically_zero(acc, box, cfg).ok:
                raise ValueError(
                    "extension constraint unsatisfiable: zero Jacobian column "
                    f"{g+1} against nonzero right-hand side")
    return d


def extend_lambda(xl: ConfigVectorField, laml: LambdaMatrix,
                  candidate_lambda2: Optional[Sequence[Sequence[Expr]]] = None,
                  box: Optional[DomainBox] = None,
                  cfg: Optional[ZeroTestConfig] = None) -> LambdaExtensionReport:
    """Assemble the 2n x 2n phase-space matrix from the n x n one.

    Block form: upper-left Lambda^L, upper-right zero, lower-left
    -d(Lambda^L)/dq contracted with momenta, lower-right a block solving
    D dphi_gamma/dq_beta = Lambda^L_{gamma beta} dphi_beta/dq_alpha.
    The block is solved for diagonal or triangular dphi/dq, else a
    candidate must be supplied; either way the constraint is verified.
    """
    n = xl.n
    _require_shape(laml, LAGRANGIAN_SIDE, n)
    c = Coordinates(n)
    jac = [[simplify(differentiate(xl.phi[g], c.q[b])) for b in range(n)] for g in range(n)]

    solved = False
    if candidate_lambda2 is not None:
        d = [[coerce(e) for e in row] for row in candidate_lambda2]
        if len(d) != n or any(len(r) != n for r in d):
            raise ValueError(f"candidate block must be {n}x{n}")
    else:
        d = _solve_lambda2(jac, laml, box, cfg)
        if d is None:
            raise ValueError("Jacobian dphi/dq is neither diagonal nor triangular with a "
                             "nonzero diagonal; supply a candidate lower-right block")
        solved = True

    checks = []
    for a in range(n):
        for g in range(n):
            lhs = add(*[mul(d[a][b], jac[g][b]) for b in range(n)])
            rhs = add(*[mul(laml.entries[g][b], jac[b][a]) for b in range(n)])
            checks.append((f"block constraint ({a+1},{g+1})",
                           is_identically_zero(add(lhs, neg(rhs)), box, cfg)))

    c_block = [[simplify(neg(add(*[mul(differentiate(laml.entries[g][b], c.q[a]), Var(c.p[g]))
                                   for g in range(n)])))
                for b in range(n)] for a in range(n)]
    rows = []
    for a in range(n):
        rows.append(tuple(laml.entries[a]) + (ZERO,) * n)
    for a in range(n):
        rows.append(tuple(c_block[a]) + tuple(d[a]))
    return LambdaExtensionReport(tuple(checks), LambdaMatrix(tuple(rows), HAMILTONIAN_SIDE),
                                 solved)


def config_scalar_reduction(xl: ConfigVectorField, laml: LambdaMatrix,
                            box: Optional[DomainBox] = None,
                            cfg: Optional[ZeroTestConfig] = None) -> Optional[Expr]:
    """Scalar function lambda with Lambda^L phi = lambda phi, or None."""
    _require_shape(laml, LAGRANGIAN_SIDE, xl.n)
    return _scalar_multiple(laml.vec(xl.phi), xl.phi, box, cfg)


@dataclass(frozen=True)
class NoetherReport:
    """Trajectory residuals of d/dt(phi . p) + (Lambda phi) . p = 0."""

    residuals: tuple
    tol: float

    @property
    def max_residual(self) -> float:
        return max(self.residuals)

    @property
    def holds(self) -> bool:
        return self.max_residual <= self.tol


def check_noether_lambda(lag: LagrangianSystem, xl: ConfigVectorField,
                         laml: LambdaMatrix, box: Optional[DomainBox] = None,
                         initial_conditions: Sequence[Sequence[float]] = (),
                         t1: float = 0.5, h: float = 1e-3,
                         tol: float = 1e-5) -> NoetherReport:
    """Integrate variational trajectories from each (q0..., dq0...) row and
    bound |d/dt(phi . p) + (Lambda phi) . p| along them; the time derivative
    uses central differences on the stored grid."""
    _require_shape(laml, LAGRANGIAN_SIDE, lag.n)
    if not initial_conditions:
        raise ValueError("need at least one initial condition (q..., dq...)")
    _require_regular(lag, box)
    moms = conjugate_momenta(lag)
    p_expr = add(*[mul(xl.phi[a], moms[a]) for a in range(lag.n)])
    lam_phi = laml.vec(xl.phi)
    rate_expr = add(*[mul(lam_phi[a], moms[a]) for a in range(lag.n)])
    p_and_rate = compile_exprs([simplify(p_expr), simplify(rate_expr)], ("t",) + lag.q + lag.dq)

    residuals = []
    for ic in initial_conditions:
        if len(ic) != 2 * lag.n:
            raise ValueError(f"initial condition needs {2*lag.n} values (q..., dq...)")
        traj = integrate_euler_lagrange(lag, ic[:lag.n], ic[lag.n:], 0.0, t1, h)
        p_vals, rates = values_along(traj, p_and_rate, "Noether rate").T
        residuals.append(central_residual(p_vals, -rates, h))
    return NoetherReport(tuple(residuals), tol)


@dataclass(frozen=True)
class ScalarConditionReport(Verdicts):
    """Scalar condition on the configuration side and its consequence for
    the extended matrix when the scalar is a constant c: Lambda Phi = c Phi,
    in `checks`, empty unless the constant branch is asserted."""

    scalar: Optional[Expr]
    is_constant: bool
    note: str = ""

    @property
    def holds(self) -> bool:
        return self.scalar is not None and super().holds


def check_scalar_condition(xl: ConfigVectorField, laml: LambdaMatrix,
                              box: Optional[DomainBox] = None,
                              cfg: Optional[ZeroTestConfig] = None) -> ScalarConditionReport:
    """Detect Lambda^L phi = lambda phi; when lambda is a constant c,
    assert Lambda Phi = c Phi on the extended field and matrix."""
    scalar = config_scalar_reduction(xl, laml, box, cfg)
    if scalar is None:
        return ScalarConditionReport((), None, False, "no scalar reduction")
    constant = all(is_identically_zero(differentiate(scalar, v), box, cfg).ok
                   for v in free_vars(scalar))
    if not constant:
        return ScalarConditionReport((), scalar, False,
                                     "scalar is not constant; extension not asserted")
    x, _g = extend_vector_field(xl)
    try:
        ext = extend_lambda(xl, laml, box=box, cfg=cfg)
    except ValueError as err:
        return ScalarConditionReport((), scalar, True, f"extension unavailable: {err}")
    lam_phi = ext.matrix.vec(x.components)
    checks = tuple(
        (f"(Lambda Phi - c Phi)_{a+1}", is_identically_zero(
            add(lam_phi[a], neg(mul(scalar, x.components[a]))), box, cfg))
        for a in range(2 * xl.n))
    return ScalarConditionReport(checks, scalar, True)


@dataclass(frozen=True)
class PartialReductionReport(Verdicts):
    """Verdicts for a reduction through differential invariants:
    invariance of each invariant under the perturbed prolongation, equality
    of the rewritten Lagrangian with the original ("composition"),
    annihilation of d(reduced L)/d(theta) by the particular solution
    ("annihilation"), and the trajectory residual of the full variational
    equations under the constraint flow, which must not exceed tol."""

    el_residual: float
    tol: float

    @property
    def holds(self) -> bool:
        return super().holds and self.el_residual <= self.tol


def reduced_variables(n: int) -> tuple:
    """The variables of a reduced Lagrangian besides t: theta, the
    invariants eta1..eta_{n-1} and their velocities deta1..deta_{n-1}."""
    eta = tuple(f"eta{r+1}" for r in range(n - 1))
    return "theta", eta, tuple("d" + v for v in eta)


def partial_reduction_check(lag: LagrangianSystem, xl: ConfigVectorField,
                            laml: LambdaMatrix, eta: Sequence[Expr], theta: Expr,
                            reduced_l: Expr, particular: Sequence[Expr],
                            box: Optional[DomainBox] = None,
                            cfg: Optional[ZeroTestConfig] = None,
                            t1: float = 1.0, h: float = 1e-3,
                            tol: float = 1e-5) -> PartialReductionReport:
    _require_shape(laml, LAGRANGIAN_SIDE, lag.n)
    if len(eta) != lag.n - 1:
        raise ValueError(f"need {lag.n - 1} zero-order invariants")
    if len(particular) != lag.n:
        raise ValueError(f"particular solution needs {lag.n} components dq = f(t, q)")
    eta = [coerce(e) for e in eta]
    theta = coerce(theta)
    reduced_l = coerce(reduced_l)
    particular = [coerce(e) for e in particular]

    def invariant(label: str, f: Expr) -> tuple:
        return label, is_identically_zero(_prolonged_action(lag, xl, laml, f), box, cfg)

    theta_name, eta_names, deta_names = reduced_variables(lag.n)
    checks = []
    subs = {theta_name: theta}
    for er, name, dname in zip(eta, eta_names, deta_names):
        der = _free_velocity_dt(lag, er)
        checks += [invariant(f"X {name}", er), invariant(f"X {dname}", der)]
        subs[name] = er
        subs[dname] = der
    checks.append(invariant(f"X {theta_name}", theta))

    composed = substitute(reduced_l, subs)
    checks.append(("composition", is_identically_zero(
        add(composed, neg(lag.lagrangian)), box, cfg)))

    constraint = dict(zip(lag.dq, particular))
    dl_dtheta = substitute(differentiate(reduced_l, theta_name), subs)
    checks.append(("annihilation", is_identically_zero(
        substitute(dl_dtheta, constraint), box, cfg)))

    # constraint flow dq = f(t, q) must satisfy the full variational equations
    moms = conjugate_momenta(lag)
    m_constrained = [simplify(substitute(m, constraint)) for m in moms]
    g_constrained = [simplify(substitute(differentiate(lag.lagrangian, qa), constraint))
                     for qa in lag.q]
    m_and_g = compile_exprs(m_constrained + g_constrained, ("t",) + lag.q)
    box = box or DomainBox()
    q0 = [0.5 * (box.interval(v)[0] + box.interval(v)[1]) for v in lag.q]
    traj = integrate_first_order(particular, lag.q, q0, 0.0, t1, h)
    rows = values_along(traj, m_and_g, "constraint-flow residual")
    return PartialReductionReport(tuple(checks),
                                  central_residual(rows[:, :lag.n], rows[:, lag.n:], h), tol)
