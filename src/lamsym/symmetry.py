"""Exact Lie point symmetries of canonical equations of motion.

A field X = phi.d/dq + psi.d/dp + tau.d/dt is a symmetry when the 2n
linearized invariance residuals vanish along solutions.  Every verified
symmetry yields the divergence-type quantity S (a first integral when
non-constant); fields that are gradients of a generating function G are
handled separately, including the closedness conditions for G to exist.
A check of several residuals returns their labelled zero verdicts as an
`expr.Verdicts`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .expr import (
    DomainBox,
    Expr,
    Verdicts,
    ZERO,
    ZeroTestConfig,
    ZeroVerdict,
    add,
    differentiate,
    free_vars,
    is_identically_zero,
    mul,
    neg,
    simplify,
)
from .mechanics import (
    PhaseSystem,
    PhaseVectorField,
    bracket,
    evolutionary_form,
    total_time_derivative,
)


class NotASymmetryError(ValueError):
    """Raised when an operation requires a verified symmetry."""


@dataclass(frozen=True)
class GeneratingFunctionReport(Verdicts):
    """Result of testing whether X is generated by a function G.

    checks: the mixed-partial closedness conditions on (phi, psi), present
        only when tau is a function of t alone, then the componentwise
        candidate checks grad_p G = phi~, grad_q G = -psi~.
    closed: every closedness condition holds.
    sign_flipped: the candidate verified only after negation (the sign of
        a generating function is conventional).
    gradient_rate: the 2n checks that grad(dG/dt along solutions) = 0,
        i.e. the rate of change of G depends on t alone.
    """

    closed: bool
    sign_flipped: bool
    verified_g: Optional[Expr]
    gradient_rate: tuple

    @property
    def rate_is_time_only(self) -> Optional[bool]:
        if not self.gradient_rate:
            return None
        return all(v.ok for _, v in self.gradient_rate)

    @property
    def holds(self) -> bool:
        """Full pass: integrability, a verified G, and conservation of G
        up to a purely time-dependent term (tested on a verified G only)."""
        return super().holds and bool(self.rate_is_time_only)


CASE_GENERATING_FUNCTION = "generating-function"
CASE_CONSTANT_S = "constant-divergence"
CASE_S_INTEGRAL = "divergence-first-integral"


@dataclass(frozen=True)
class CaseClassification:
    tag: str
    s: Expr
    g: Optional[Expr] = None
    s_conservation: Optional[ZeroVerdict] = None


def invariance_residuals(sys: PhaseSystem, x: PhaseVectorField, f: Sequence[Expr],
                         lam_phi: Sequence[Expr] = ()) -> tuple:
    """The 2n residuals dPhi_a/dt + (Lambda Phi)_a + [F, Phi]_a of the
    linearized invariance condition of du/dt = F, not normalized; without
    lam_phi, Lambda = 0 and this is the exact condition.  A field with
    tau != 0 also gets -F_a D_t tau - tau dF_a/dt, D_t along solutions."""
    comps = x.components
    out = tuple(add(differentiate(c, sys.t), *lam_phi[a:a + 1], br)
                for a, (c, br) in enumerate(zip(comps, bracket(sys, f, comps))))
    if x.tau == ZERO:
        return out
    dtau = total_time_derivative(sys, x.tau)
    return tuple(add(r, neg(mul(fa, dtau)), neg(mul(x.tau, differentiate(fa, sys.t))))
                 for r, fa in zip(out, f))


def check_point_symmetry(sys: PhaseSystem, x: PhaseVectorField,
                         box: Optional[DomainBox] = None,
                         cfg: Optional[ZeroTestConfig] = None) -> Verdicts:
    """Verify the exact symmetry condition componentwise, each residual
    labelled with its phase variable, against F as differentiated,
    (dH/dp, -dH/dq); the normalizer is not confluent, and the normalized F
    of `check_lambda_symmetry` moves example 3's residual."""
    h = sys.hamiltonian
    f = ([differentiate(h, v) for v in sys.p]
         + [neg(differentiate(h, v)) for v in sys.q])
    return Verdicts(tuple((v, is_identically_zero(r, box, cfg))
                          for v, r in zip(sys.u, invariance_residuals(sys, x, f))))


def compute_S(sys: PhaseSystem, x: PhaseVectorField) -> Expr:
    """Divergence-type quantity attached to X:
    sum d(phi)/dq + sum d(psi)/dp - dtau/dt|on-shell + dtau/dt(partial)."""
    parts = [differentiate(c, v) for c, v in zip(x.phi, sys.q)]
    parts += [differentiate(c, v) for c, v in zip(x.psi, sys.p)]
    if x.tau != ZERO:
        parts.append(neg(total_time_derivative(sys, x.tau)))
        parts.append(differentiate(x.tau, sys.t))
    return simplify(add(*parts))


def check_first_integral(sys: PhaseSystem, f: Expr,
                         box: Optional[DomainBox] = None,
                         cfg: Optional[ZeroTestConfig] = None) -> ZeroVerdict:
    """Zero verdict on the total time derivative of f along solutions."""
    return is_identically_zero(total_time_derivative(sys, f), box, cfg)


def generating_function_test(sys: PhaseSystem, x: PhaseVectorField,
                             box: Optional[DomainBox] = None,
                             candidate_g: Optional[Expr] = None,
                             cfg: Optional[ZeroTestConfig] = None) -> GeneratingFunctionReport:
    """Test whether X is the gradient field of a generating function.

    Without a candidate, only the mixed-partial closedness conditions are
    checked (and only for tau depending on t alone).  With a candidate G,
    grad_p G = phi~ and grad_q G = -psi~ are verified componentwise; the
    sign of G is conventional, so -G is accepted and flagged.  On a
    verified G the 2n components of grad(dG/dt along solutions) are
    tested, deciding whether G is conserved up to a function of t.
    """
    xt = evolutionary_form(sys, x)
    tau_general = bool(free_vars(x.tau) & set(sys.u))
    if tau_general and candidate_g is None:
        raise ValueError(
            "tau depends on the phase variables; a candidate generating "
            "function is required in this configuration")

    closedness = []
    if not tau_general:
        # G exists iff its gradient over u = (p, q), (phi, -psi), has a
        # symmetric Jacobian: with f = (phi, psi), df_i/du_j = +-df_j/du_i
        # for i < j, minus when u_i and u_j are both momenta or both positions
        n, f, u = sys.n, x.phi + x.psi, sys.p + sys.q
        fn = [f"phi{a+1}" for a in range(n)] + [f"psi{a+1}" for a in range(n)]
        for i in range(2 * n):
            for j in range(i + 1, 2 * n):
                same, dj = (i < n) == (j < n), differentiate(f[j], u[i])
                r = add(differentiate(f[i], u[j]), neg(dj) if same else dj)
                closedness.append((f"d{fn[i]}/d{u[j]}={'' if same else '-'}d{fn[j]}/d{u[i]}",
                                   is_identically_zero(r, box, cfg)))

    candidate = ()
    sign_flipped = False
    verified_g = None
    if candidate_g is not None:
        def gradient_match(g):
            out = []
            for a in range(sys.n):
                out.append((f"dG/d{sys.p[a]}=phi~{a+1}",
                            is_identically_zero(
                                add(differentiate(g, sys.p[a]), neg(xt.phi[a])), box, cfg)))
                out.append((f"dG/d{sys.q[a]}=-psi~{a+1}",
                            is_identically_zero(
                                add(differentiate(g, sys.q[a]), xt.psi[a]), box, cfg)))
            return tuple(out)

        candidate = gradient_match(candidate_g)
        if not all(v.ok for _, v in candidate):
            flipped = gradient_match(neg(candidate_g))
            if all(v.ok for _, v in flipped):
                candidate = flipped
                sign_flipped = True
                verified_g = simplify(neg(candidate_g))
        else:
            verified_g = simplify(candidate_g)

    gradient_rate = ()
    closed = all(v.ok for _, v in closedness)
    if verified_g is not None and (tau_general or closed):
        rate = total_time_derivative(sys, verified_g)
        gradient_rate = tuple(
            (f"d(dG/dt)/d{v}", is_identically_zero(differentiate(rate, v), box, cfg))
            for v in sys.u)

    return GeneratingFunctionReport(tuple(closedness) + candidate, closed, sign_flipped,
                                    verified_g, gradient_rate)


def classify_symmetry_case(sys: PhaseSystem, x: PhaseVectorField,
                           box: Optional[DomainBox] = None,
                           candidate_g: Optional[Expr] = None,
                           cfg: Optional[ZeroTestConfig] = None) -> CaseClassification:
    """Classify a verified symmetry by what conserved structure it carries.

    generating-function: a verified G exists and is conserved up to g(t).
    constant-divergence: S is constant, no generating function; no first
        integral comes from this field.
    divergence-first-integral: S is non-constant and is itself a first
        integral (verified here).
    """
    if not check_point_symmetry(sys, x, box, cfg).holds:
        raise NotASymmetryError("the field does not satisfy the symmetry condition")
    s = compute_S(sys, x)
    report = generating_function_test(sys, x, box, candidate_g, cfg)
    if report.holds:
        return CaseClassification(CASE_GENERATING_FUNCTION, s, g=report.verified_g)
    s_derivs = [differentiate(s, v) for v in sys.u] + [differentiate(s, sys.t)]
    constant = all(is_identically_zero(d, box, cfg).ok for d in s_derivs)
    if constant:
        return CaseClassification(CASE_CONSTANT_S, s)
    conservation = check_first_integral(sys, s, box, cfg)
    if not conservation.ok:
        raise ValueError(
            "inconsistent inputs: S is non-constant but not conserved "
            f"(residual {conservation.max_residual:.3e})")
    return CaseClassification(CASE_S_INTEGRAL, s, s_conservation=conservation)
