"""Phase-space structures and bracket calculus for canonical systems.

Conventions: a system with n degrees of freedom uses variables
t, q1..qn, p1..pn.  The equations of motion are du/dt = F(u, t) with
F = (dH/dp, -dH/dq).  Velocity symbols dq1..dqn, dp1..dpn are ordinary
variables; on-shell substitution (velocity -> F component) is owned by
the modules that need it.  `Coordinates` is the one place these names
are formatted; every other module reads them there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .expr import (
    Expr,
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
        self._rhs: Optional[tuple] = None
        self._flow: Optional[Callable] = None     # compiled by numeric.integrate_hamiltonian

    def __repr__(self):
        return f"PhaseSystem(n={self.n}, H={self.hamiltonian})"


@dataclass(frozen=True)
class PhaseVectorField:
    """Lie point vector field phi.d/dq + psi.d/dp + tau.d/dt on phase space."""

    phi: tuple
    psi: tuple
    tau: Expr = ZERO

    def __post_init__(self):
        object.__setattr__(self, "phi", tuple(coerce(e) for e in self.phi))
        object.__setattr__(self, "psi", tuple(coerce(e) for e in self.psi))
        object.__setattr__(self, "tau", coerce(self.tau))
        if len(self.phi) != len(self.psi):
            raise ValueError("phi and psi must have the same length")

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
    """Right-hand side F of the equations of motion: (dH/dp, -dH/dq)."""
    if sys._rhs is None:
        h = sys.hamiltonian
        with simplify_memo():
            f_q = tuple(simplify(differentiate(h, v)) for v in sys.p)
            f_p = tuple(simplify(neg(differentiate(h, v))) for v in sys.q)
        sys._rhs = f_q + f_p
    return sys._rhs


def on_shell_map(sys: PhaseSystem) -> dict:
    """Substitution map sending each velocity symbol to its F component."""
    rhs = canonical_equations(sys)
    return dict(zip(sys.velocities, rhs))


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


def _require_autonomous(*fields: PhaseVectorField):
    for x in fields:
        if simplify(x.tau) != ZERO:
            raise ValueError("operation requires tau = 0 (use evolutionary_form first)")


def bracket(sys: PhaseSystem, xc: Sequence[Expr], yc: Sequence[Expr]) -> tuple:
    """The 2n components of the commutator [X, Y] of the phase components xc
    and yc, sum over b of X_b dY_a/du_b - Y_b dX_a/du_b, not normalized."""
    return tuple(add(*[part for b, v in enumerate(sys.u)
                       for part in (mul(xc[b], differentiate(yc[a], v)),
                                    neg(mul(yc[b], differentiate(xc[a], v))))])
                 for a in range(2 * sys.n))


def lie_bracket(sys: PhaseSystem, x: PhaseVectorField, y: PhaseVectorField) -> PhaseVectorField:
    """Commutator [X, Y] of two phase-space fields with tau = 0."""
    _require_autonomous(x, y)
    out = [simplify(c) for c in bracket(sys, x.components, y.components)]
    return PhaseVectorField(tuple(out[:sys.n]), tuple(out[sys.n:]))


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
