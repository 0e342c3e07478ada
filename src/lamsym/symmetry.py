"""Exact Lie point symmetries of canonical equations of motion.

A field X = phi.d/dq + psi.d/dp + tau.d/dt is a symmetry when the 2n
linearized invariance residuals vanish along solutions.  Every verified
symmetry yields the divergence-type quantity S (a first integral when
non-constant); fields that are gradients of a generating function G are
handled separately, including the closedness conditions for G to exist.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .expr import (
    DomainBox,
    Expr,
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
    evolutionary_form,
    total_time_derivative,
)


class NotASymmetryError(ValueError):
    """Raised when an operation requires a verified symmetry."""


@dataclass(frozen=True)
class SymmetryVerdict:
    """Componentwise zero verdicts of the 2n symmetry-condition residuals."""

    components: tuple

    @property
    def holds(self) -> bool:
        return all(v.ok for v in self.components)

    def worst(self) -> ZeroVerdict:
        bad = [v for v in self.components if not v.ok]
        return bad[0] if bad else self.components[0]


@dataclass(frozen=True)
class GeneratingFunctionReport:
    """Result of testing whether X is generated by a function G.

    closedness: mixed-partial symmetry conditions on (phi, psi), present
        only when tau is a function of t alone.
    candidate: componentwise checks grad_p G = phi~, grad_q G = -psi~.
    sign_flipped: the candidate verified only after negation (the sign of
        a generating function is conventional).
    gradient_rate: the 2n checks that grad(dG/dt along solutions) = 0,
        i.e. the rate of change of G depends on t alone.
    """

    closedness: tuple = ()
    candidate: tuple = ()
    sign_flipped: bool = False
    verified_g: Optional[Expr] = None
    gradient_rate: tuple = ()

    @property
    def closed(self) -> bool:
        return all(v.ok for _, v in self.closedness)

    @property
    def g_verified(self) -> bool:
        return self.verified_g is not None

    @property
    def rate_is_time_only(self) -> Optional[bool]:
        if not self.gradient_rate:
            return None
        return all(v.ok for _, v in self.gradient_rate)

    @property
    def holds(self) -> bool:
        """Full pass: integrability, a verified G, and conservation of G
        up to a purely time-dependent term."""
        return self.closed and self.g_verified and bool(self.rate_is_time_only)


CASE_GENERATING_FUNCTION = "generating-function"
CASE_CONSTANT_S = "constant-divergence"
CASE_S_INTEGRAL = "divergence-first-integral"


@dataclass(frozen=True)
class CaseClassification:
    tag: str
    s: Expr
    g: Optional[Expr] = None
    s_conservation: Optional[ZeroVerdict] = None


def _condition_sums(sys: PhaseSystem, x: PhaseVectorField) -> tuple:
    """The 2n residuals of the linearized invariance condition, with total
    time derivatives expanded along solutions, not normalized."""
    h = sys.hamiltonian
    dt = lambda f: total_time_derivative(sys, f)
    dtau = dt(x.tau)
    tau_dt = x.tau != ZERO
    res_q, res_p = [], []
    for a in range(sys.n):
        qa, pa = sys.q[a], sys.p[a]
        h_pa = differentiate(h, pa)
        h_qa = differentiate(h, qa)
        r1 = [dt(x.phi[a]), neg(mul(h_pa, dtau))]
        r2 = [dt(x.psi[a]), mul(h_qa, dtau)]
        for b in range(sys.n):
            qb, pb = sys.q[b], sys.p[b]
            r1.append(neg(mul(x.phi[b], differentiate(h_pa, qb))))
            r1.append(neg(mul(x.psi[b], differentiate(h_pa, pb))))
            r2.append(mul(x.phi[b], differentiate(h_qa, qb)))
            r2.append(mul(x.psi[b], differentiate(h_qa, pb)))
        if tau_dt:
            r1.append(neg(mul(x.tau, differentiate(h_pa, sys.t))))
            r2.append(mul(x.tau, differentiate(h_qa, sys.t)))
        res_q.append(add(*r1))
        res_p.append(add(*r2))
    return tuple(res_q + res_p)


def check_point_symmetry(sys: PhaseSystem, x: PhaseVectorField,
                         box: Optional[DomainBox] = None,
                         cfg: Optional[ZeroTestConfig] = None) -> SymmetryVerdict:
    """Verify the exact symmetry condition componentwise."""
    residuals = _condition_sums(sys, x)
    return SymmetryVerdict(tuple(is_identically_zero(r, box, cfg) for r in residuals))


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
        for a in range(sys.n):
            for b in range(a, sys.n):
                qa, pa = sys.q[a], sys.p[a]
                qb, pb = sys.q[b], sys.p[b]
                if b > a:
                    r = add(differentiate(x.phi[a], pb), neg(differentiate(x.phi[b], pa)))
                    closedness.append((f"dphi{a+1}/dp{b+1}=dphi{b+1}/dp{a+1}",
                                       is_identically_zero(r, box, cfg)))
                    r = add(differentiate(x.psi[a], qb), neg(differentiate(x.psi[b], qa)))
                    closedness.append((f"dpsi{a+1}/dq{b+1}=dpsi{b+1}/dq{a+1}",
                                       is_identically_zero(r, box, cfg)))
                r = add(differentiate(x.phi[a], qb), differentiate(x.psi[b], pa))
                closedness.append((f"dphi{a+1}/dq{b+1}=-dpsi{b+1}/dp{a+1}",
                                   is_identically_zero(r, box, cfg)))
                if b > a:
                    r = add(differentiate(x.phi[b], qa), differentiate(x.psi[a], pb))
                    closedness.append((f"dphi{b+1}/dq{a+1}=-dpsi{a+1}/dp{b+1}",
                                       is_identically_zero(r, box, cfg)))

    candidate = ()
    sign_flipped = False
    verified_g = None
    if candidate_g is not None:
        def gradient_match(g):
            out = []
            for a in range(sys.n):
                out.append((f"dG/dp{a+1}=phi~{a+1}",
                            is_identically_zero(
                                add(differentiate(g, sys.p[a]), neg(xt.phi[a])), box, cfg)))
                out.append((f"dG/dq{a+1}=-psi~{a+1}",
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
    closed_ok = all(v.ok for _, v in closedness)
    if verified_g is not None and (tau_general or closed_ok):
        rate = total_time_derivative(sys, verified_g)
        gradient_rate = tuple(
            (f"d(dG/dt)/d{v}", is_identically_zero(differentiate(rate, v), box, cfg))
            for v in sys.u)

    return GeneratingFunctionReport(tuple(closedness), candidate, sign_flipped,
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
