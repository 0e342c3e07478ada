"""First-order Lagrangians with matrix-perturbed invariance.

Covers: the perturbed invariance condition for a configuration field,
conjugate momenta and verification of user-supplied Legendre data, the
extension of the configuration field and of the n x n matrix to phase
space, the on-shell conservation check for P = phi . p along integrated
trajectories, the scalar condition on the configuration side, and the
partial reduction through first-order differential invariants.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .expr import (
    DomainBox,
    Expr,
    Var,
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
                              _require_shape, _scalar_multiple, _velocity_names)
from .mechanics import PhaseSystem, PhaseVectorField, hamiltonian_vector_field
from .numeric import integrate_euler_lagrange, integrate_first_order

# hessian_regularity samples the velocity Hessian at this many seeded points
# and counts the Lagrangian regular when every |det| exceeds the threshold
HESSIAN_SAMPLES = 25
HESSIAN_DET_THRESHOLD = 1e-8


class IntegrationFailed(RuntimeError):
    """A required trajectory left the safety box or hit a domain error."""


class LagrangianSystem:
    """A first-order Lagrangian L(t, q, dq) with n degrees of freedom."""

    def __init__(self, n: int, lagrangian: Expr):
        if n < 1:
            raise ValueError("need at least one degree of freedom")
        self.n = n
        self.t = "t"
        self.q = tuple(f"q{i+1}" for i in range(n))
        self.dq = tuple(f"dq{i+1}" for i in range(n))
        self.p = tuple(f"p{i+1}" for i in range(n))
        self.lagrangian = coerce(lagrangian)
        extra = free_vars(self.lagrangian) - set(self.q) - set(self.dq) - {self.t}
        if extra:
            raise ValueError(f"lagrangian contains unknown variables: {sorted(extra)}")

    def __repr__(self):
        return f"LagrangianSystem(n={self.n}, L={self.lagrangian})"

    def velocity_hessian(self) -> list:
        """The entries d2L/ddq_a ddq_b, row-major and not simplified."""
        dv = [differentiate(self.lagrangian, v) for v in self.dq]
        return [differentiate(d, vb) for d in dv for vb in self.dq]


@dataclass(frozen=True)
class ConfigVectorField:
    """phi_alpha(t, q) d/dq_alpha; no momentum or velocity dependence."""

    phi: tuple

    def __post_init__(self):
        object.__setattr__(self, "phi", tuple(coerce(e) for e in self.phi))
        banned = {v for e in self.phi for v in free_vars(e)
                  if v.startswith("p") or v.startswith("dq") or v.startswith("dp")}
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
    rng = random.Random(0)
    worst = float("inf")
    for _ in range(HESSIAN_SAMPLES):
        point = [rng.uniform(*box.interval(v)) for v in names]
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
class LegendreReport:
    momentum_checks: tuple
    energy_check: ZeroVerdict
    min_hessian_det: float

    @property
    def holds(self) -> bool:
        return all(v.ok for _, v in self.momentum_checks) and self.energy_check.ok


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
        checks.append((f"p{a+1} consistency", is_identically_zero(resid, box, cfg)))
    pv = add(*[mul(Var(lag.p[a]), vmap[lag.dq[a]]) for a in range(lag.n)])
    resid = add(coerce(h_expr), neg(pv), substitute(lag.lagrangian, vmap))
    energy = is_identically_zero(resid, box, cfg)
    return LegendreReport(tuple(checks), energy, worst)


def extend_vector_field(xl: ConfigVectorField):
    """Phase-space extension for velocity-free matrices: the Hamiltonian
    field of G = phi . p, so psi_alpha = -sum_beta p_beta dphi_beta/dq_alpha.
    Returns the field and G."""
    coords = PhaseSystem(xl.n, ZERO)    # only its coordinate names are read
    g = simplify(add(*[mul(c, Var(p)) for c, p in zip(xl.phi, coords.p)]))
    return hamiltonian_vector_field(coords, g), g


def extend_vector_field_velocity_dependent(lag: LagrangianSystem, xl: ConfigVectorField,
                                           laml: LambdaMatrix,
                                           velocity_map: Optional[Sequence[Expr]] = None
                                           ) -> PhaseVectorField:
    """Phase-space extension when the matrix depends on velocities.

    Assumes the Lagrangian is invariant under the perturbed prolongation,
    which removes the exact-rate term; what remains is
    psi_alpha = -dLambda_{beta gamma}/ddq_alpha phi_gamma p_beta
                - p_beta dphi_beta/dq_alpha,
    rewritten into (t, q, p) through the supplied velocity map.
    """
    _require_shape(laml, LAGRANGIAN_SIDE, lag.n)
    n = lag.n
    psi = []
    for a in range(n):
        parts = []
        for b in range(n):
            for c in range(n):
                dlam = differentiate(laml.entries[b][c], lag.dq[a])
                if dlam == ZERO:
                    continue
                parts.append(neg(mul(dlam, xl.phi[c], Var(lag.p[b]))))
            parts.append(neg(mul(Var(lag.p[b]), differentiate(xl.phi[b], lag.q[a]))))
        psi.append(simplify(add(*parts)))
    leftover = set().union(*[free_vars(e) for e in psi]) & set(lag.dq)
    if leftover:
        if velocity_map is None:
            raise ValueError(f"extension still contains {sorted(leftover)}; "
                             "a velocity map (t,q,p) is required")
        vmap = dict(zip(lag.dq, (coerce(v) for v in velocity_map)))
        psi = [simplify(substitute(e, vmap)) for e in psi]
    return PhaseVectorField(xl.phi, tuple(psi))


@dataclass(frozen=True)
class LambdaExtensionReport:
    matrix: LambdaMatrix
    constraint_checks: tuple
    solved: bool

    @property
    def holds(self) -> bool:
        return all(v.ok for _, v in self.constraint_checks)


def _jacobian(xl: ConfigVectorField, qn) -> list:
    return [[simplify(differentiate(xl.phi[g], qn[b])) for b in range(xl.n)]
            for g in range(xl.n)]


def _solve_lambda2(jac, laml: LambdaMatrix, box, cfg):
    """Solve D J^T = J^T (Lambda^L)^T for diagonal or triangular Jacobians;
    None when the shape is not handled (caller then needs a candidate)."""
    n = laml.size
    nonzero = [[not is_identically_zero(jac[a][b], box, cfg).ok for b in range(n)]
               for a in range(n)]
    if not any(any(row) for row in nonzero):
        return [[ZERO] * n for _ in range(n)]  # vacuous constraint
    diagonal = all(not nonzero[a][b] for a in range(n) for b in range(n) if a != b)
    if diagonal:
        d = [[ZERO] * n for _ in range(n)]
        for a in range(n):
            for g in range(n):
                rhs = simplify(mul(jac[a][a], laml.entries[g][a]))
                if nonzero[g][g]:
                    d[a][g] = simplify(div(rhs, jac[g][g]))
                elif not is_identically_zero(rhs, box, cfg).ok:
                    raise ValueError(
                        "extension constraint unsatisfiable: zero Jacobian column "
                        f"{g+1} against nonzero right-hand side")
        return d
    lower = all(not nonzero[a][b] for a in range(n) for b in range(n) if b > a)
    upper = all(not nonzero[a][b] for a in range(n) for b in range(n) if b < a)
    if (lower or upper) and all(nonzero[a][a] for a in range(n)):
        # substitution on D J^T = R, one row of D at a time; equation gamma
        # involves the unknowns D[a][b] with b <= gamma for lower Jacobians
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
                d[a][g] = simplify(div(acc, jac[g][g]))
        return d
    return None


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
    qn = tuple(f"q{i+1}" for i in range(n))
    pn = tuple(f"p{i+1}" for i in range(n))
    jac = _jacobian(xl, qn)

    solved = False
    if candidate_lambda2 is not None:
        d = [[coerce(e) for e in row] for row in candidate_lambda2]
        if len(d) != n or any(len(r) != n for r in d):
            raise ValueError(f"candidate block must be {n}x{n}")
    else:
        d = _solve_lambda2(jac, laml, box, cfg)
        if d is None:
            raise ValueError("Jacobian dphi/dq is neither diagonal nor triangular; "
                             "supply a candidate lower-right block")
        solved = True

    checks = []
    for a in range(n):
        for g in range(n):
            lhs = add(*[mul(d[a][b], jac[g][b]) for b in range(n)])
            rhs = add(*[mul(laml.entries[g][b], jac[b][a]) for b in range(n)])
            checks.append((f"block constraint ({a+1},{g+1})",
                           is_identically_zero(add(lhs, neg(rhs)), box, cfg)))

    c_block = [[simplify(neg(add(*[mul(differentiate(laml.entries[g][b], qn[a]), Var(pn[g]))
                                   for g in range(n)])))
                for b in range(n)] for a in range(n)]
    rows = []
    for a in range(n):
        rows.append(tuple(laml.entries[a]) + (ZERO,) * n)
    for a in range(n):
        rows.append(tuple(c_block[a]) + tuple(d[a]))
    vel = set(_velocity_names(HAMILTONIAN_SIDE, 2 * n))
    velocity_dependent = any(free_vars(e) & vel for row in rows for e in row)
    full = LambdaMatrix(tuple(rows), HAMILTONIAN_SIDE,
                        velocity_dependent=velocity_dependent)
    return LambdaExtensionReport(full, tuple(checks), solved)


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
    names = ("t",) + lag.q + lag.dq
    p_and_rate = compile_exprs([simplify(p_expr), simplify(rate_expr)], names)

    residuals = []
    for ic in initial_conditions:
        if len(ic) != 2 * lag.n:
            raise ValueError(f"initial condition needs {2*lag.n} values (q..., dq...)")
        traj = integrate_euler_lagrange(lag, ic[:lag.n], ic[lag.n:], 0.0, t1, h)
        if traj.truncated:
            raise IntegrationFailed(traj.reason)
        p_vals, rates = zip(*[p_and_rate(t, *row)
                              for t, row in zip(traj.times.tolist(), traj.states.tolist())])
        worst_here = 0.0
        for k in range(1, len(p_vals) - 1):
            dpdt = (p_vals[k + 1] - p_vals[k - 1]) / (2 * h)
            resid = abs(dpdt + rates[k])
            worst_here = max(worst_here, resid)
        residuals.append(worst_here)
    return NoetherReport(tuple(residuals), tol)


@dataclass(frozen=True)
class ScalarConditionReport:
    """Scalar condition on the configuration side and its consequence for
    the extended matrix when the scalar is a constant c: Lambda Phi = c Phi."""

    scalar: Optional[Expr]
    is_constant: bool
    extended_checks: tuple
    note: str = ""

    @property
    def holds(self) -> bool:
        if self.scalar is None:
            return False
        if not self.is_constant:
            return True  # scalar exists; the constant branch is simply not asserted
        return all(v.ok for _, v in self.extended_checks)


def check_scalar_condition(xl: ConfigVectorField, laml: LambdaMatrix,
                              box: Optional[DomainBox] = None,
                              cfg: Optional[ZeroTestConfig] = None) -> ScalarConditionReport:
    """Detect Lambda^L phi = lambda phi; when lambda is a constant c,
    assert Lambda Phi = c Phi on the extended field and matrix."""
    scalar = config_scalar_reduction(xl, laml, box, cfg)
    if scalar is None:
        return ScalarConditionReport(None, False, (), "no scalar reduction")
    constant = all(is_identically_zero(differentiate(scalar, v), box, cfg).ok
                   for v in free_vars(scalar))
    if not constant:
        return ScalarConditionReport(scalar, False, (),
                                     "scalar is not constant; extension not asserted")
    x, _g = extend_vector_field(xl)
    try:
        ext = extend_lambda(xl, laml, box=box, cfg=cfg)
    except ValueError as err:
        return ScalarConditionReport(scalar, True, (),
                                     f"extension unavailable: {err}")
    lam_phi = ext.matrix.vec(x.components)
    checks = tuple(
        (f"(Lambda Phi - c Phi)_{a+1}", is_identically_zero(
            add(lam_phi[a], neg(mul(scalar, x.components[a]))), box, cfg))
        for a in range(2 * xl.n))
    return ScalarConditionReport(scalar, True, checks)


@dataclass(frozen=True)
class PartialReductionReport:
    """Verdicts for a reduction through differential invariants:
    invariance of each invariant under the perturbed prolongation, equality
    of the rewritten Lagrangian with the original, annihilation of
    d(reduced L)/d(theta) by the particular solution, and the trajectory
    residual of the full variational equations under the constraint flow."""

    invariance: tuple
    composition: ZeroVerdict
    annihilation: ZeroVerdict
    el_residual: float
    tol: float

    @property
    def holds(self) -> bool:
        return (all(v.ok for _, v in self.invariance)
                and self.composition.ok and self.annihilation.ok
                and self.el_residual <= self.tol)


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

    invariance = []
    subs = {"theta": theta}
    for r, er in enumerate(eta):
        der = _free_velocity_dt(lag, er)
        invariance += [invariant(f"X eta{r+1}", er), invariant(f"X deta{r+1}", der)]
        subs[f"eta{r+1}"] = er
        subs[f"deta{r+1}"] = der
    invariance.append(invariant("X theta", theta))

    composed = substitute(reduced_l, subs)
    composition = is_identically_zero(add(composed, neg(lag.lagrangian)), box, cfg)

    constraint = dict(zip(lag.dq, particular))
    dl_dtheta = substitute(differentiate(reduced_l, "theta"), subs)
    annihilation = is_identically_zero(
        substitute(dl_dtheta, constraint), box, cfg)

    # constraint flow dq = f(t, q) must satisfy the full variational equations
    moms = conjugate_momenta(lag)
    m_constrained = [simplify(substitute(m, constraint)) for m in moms]
    g_constrained = [simplify(substitute(differentiate(lag.lagrangian, qa), constraint))
                     for qa in lag.q]
    names = ("t",) + lag.q
    m_and_g = compile_exprs(m_constrained + g_constrained, names)
    box = box or DomainBox()
    q0 = [0.5 * (box.interval(v)[0] + box.interval(v)[1]) for v in lag.q]
    traj = integrate_first_order(particular, lag.q, q0, 0.0, t1, h)
    if traj.truncated:
        raise IntegrationFailed(traj.reason)
    rows = [m_and_g(t, *row) for t, row in zip(traj.times.tolist(), traj.states.tolist())]
    worst = 0.0
    for a in range(lag.n):
        for k in range(1, len(rows) - 1):
            dmdt = (rows[k + 1][a] - rows[k - 1][a]) / (2 * h)
            worst = max(worst, abs(dmdt - rows[k][lag.n + a]))
    return PartialReductionReport(tuple(invariance), composition, annihilation,
                                  worst, tol)
