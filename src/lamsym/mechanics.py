"""Phase-space structures and bracket calculus for canonical systems.

Conventions: a system with n degrees of freedom uses variables
t, q1..qn, p1..pn.  The equations of motion are du/dt = F(u, t) with
F = (dH/dp, -dH/dq).  Velocity symbols dq1..dqn, dp1..dpn are ordinary
variables; on-shell substitution (velocity -> F component) is owned by
the modules that need it.  `Coordinates` is the one place these names
are formatted; every other module reads them there.
"""

from __future__ import annotations

from typing import Sequence

from .expr import (
    Expr,
    Record,
    ZERO,
    add,
    coerce,
    differentiate,
    free_vars,
    mul,
    neg,
    simplify,
    simplify_memo,
)


class Coordinates:
    """The variables of n degrees of freedom: t, u = (q1..qn, p1..pn), and
    the velocity symbols (dq1..dqn, dp1..dpn) of u."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("need at least one degree of freedom")
        self.n = n
        self.t = "t"
        self.q = tuple(f"q{i+1}" for i in range(n))
        self.p = tuple(f"p{i+1}" for i in range(n))
        self.u = self.q + self.p
        self.velocities = tuple("d" + v for v in self.u)
        self.dq = self.velocities[:n]


class PhaseSystem(Coordinates):
    """A Hamiltonian H(t, q, p) with n degrees of freedom."""

    def __init__(self, n: int, hamiltonian: Expr):
        super().__init__(n)
        self.hamiltonian = coerce(hamiltonian)
        extra = free_vars(self.hamiltonian) - set(self.u) - {self.t}
        if extra:
            raise ValueError(f"hamiltonian contains unknown variables: {sorted(extra)}")

    def __repr__(self):
        return f"PhaseSystem(n={self.n}, H={self.hamiltonian})"


class PhaseVectorField(Record):
    """Lie point vector field phi.d/dq + psi.d/dp + tau.d/dt on phase space."""

    __slots__ = ("phi", "psi", "tau")

    def __init__(self, phi: tuple, psi: tuple, tau: Expr = ZERO):
        phi, psi, tau = tuple(map(coerce, phi)), tuple(map(coerce, psi)), coerce(tau)
        if len(phi) != len(psi):
            raise ValueError("phi and psi must have the same length")
        Record.__init__(self, phi, psi, tau)

    @property
    def n(self) -> int:
        return len(self.phi)

    @property
    def components(self) -> tuple:
        """The 2n phase components (phi, psi), written Phi throughout."""
        return self.phi + self.psi

    def apply(self, sys: PhaseSystem, f: Expr) -> Expr:
        """Directional derivative X f = phi.grad_q f + psi.grad_p f + tau df/dt."""
        parts = [mul(c, differentiate(f, v))
                 for c, v in zip(self.components, sys.u)]
        if self.tau != ZERO:
            parts.append(mul(self.tau, differentiate(f, sys.t)))
        return add(*parts)


def canonical_equations(sys: PhaseSystem) -> tuple:
    """Right-hand side F of the equations of motion, (dH/dp, -dH/dq): the field
    H generates, answered from the memo inside a `simplify_memo()` scope."""
    with simplify_memo():
        return hamiltonian_vector_field(sys, sys.hamiltonian).components


def on_shell_map(sys: PhaseSystem) -> dict:
    """Substitution map sending each velocity symbol to its F component."""
    return dict(zip(sys.velocities, canonical_equations(sys)))


def total_time_derivative(sys: PhaseSystem, f: Expr) -> Expr:
    """df/dt along solutions: partial df/dt + {f, H}."""
    return add(differentiate(f, sys.t), poisson_bracket(sys, f, sys.hamiltonian))


def poisson_bracket(sys: PhaseSystem, f: Expr, g: Expr) -> Expr:
    """{f, g} = sum over alpha of df/dq dg/dp - df/dp dg/dq."""
    parts = []
    for qa, pa in zip(sys.q, sys.p):
        parts.append(mul(differentiate(f, qa), differentiate(g, pa)))
        parts.append(neg(mul(differentiate(f, pa), differentiate(g, qa))))
    return add(*parts)


def hamiltonian_vector_field(sys: Coordinates, k: Expr) -> PhaseVectorField:
    """The field generated by k: phi = grad_p k, psi = -grad_q k, tau = 0."""
    k = coerce(k)
    phi = tuple(simplify(differentiate(k, v)) for v in sys.p)
    psi = tuple(simplify(neg(differentiate(k, v))) for v in sys.q)
    return PhaseVectorField(phi, psi)


def _require_autonomous(x: PhaseVectorField):
    if simplify(x.tau) != ZERO:
        raise ValueError("operation requires tau = 0 (use evolutionary_form first)")


def bracket(sys: PhaseSystem, xc: Sequence[Expr], yc: Sequence[Expr]) -> tuple:
    """The 2n components of the commutator [X, Y] of the phase components xc
    and yc, sum over b of X_b dY_a/du_b - Y_b dX_a/du_b, not normalized."""
    return tuple(add(*[part for b, v in enumerate(sys.u)
                       for part in (mul(xc[b], differentiate(yc[a], v)),
                                    neg(mul(yc[b], differentiate(xc[a], v))))])
                 for a in range(2 * sys.n))


def evolutionary_form(sys: PhaseSystem, x: PhaseVectorField) -> PhaseVectorField:
    """Equivalent field with tau = 0: phi - tau dH/dp, psi + tau dH/dq."""
    if x.tau == ZERO:
        return x
    h = sys.hamiltonian
    phi = tuple(simplify(add(c, neg(mul(x.tau, differentiate(h, pa)))))
                for c, pa in zip(x.phi, sys.p))
    psi = tuple(simplify(add(c, mul(x.tau, differentiate(h, qa))))
                for c, qa in zip(x.psi, sys.q))
    return PhaseVectorField(phi, psi)


def scale_field(x: PhaseVectorField, k: Expr) -> PhaseVectorField:
    """Multiply all phase components by the function k (requires tau = 0)."""
    _require_autonomous(x)
    k = coerce(k)
    return PhaseVectorField(tuple(mul(k, c) for c in x.phi),
                            tuple(mul(k, c) for c in x.psi))
