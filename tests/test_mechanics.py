import random

import pytest

from lamsym.expr import (
    Const,
    DomainBox,
    Var,
    add,
    is_identically_zero,
    mul,
    neg,
    parse,
    simplify,
)
from lamsym.mechanics import (
    PhaseSystem,
    PhaseVectorField,
    bracket,
    canonical_equations,
    evolutionary_form,
    hamiltonian_vector_field,
    poisson_bracket,
    scale_field,
    total_time_derivative,
)
from fractions import Fraction

from gen import random_polynomial


def oscillator():
    return PhaseSystem(1, parse("(p1^2+q1^2)/2"))


def example4_system(eps="1/10"):
    h = parse(f"-q1*p1 + ({eps})*q1*p1 - ({eps})*q1*p1*log(p1)")
    return PhaseSystem(1, h)


def zero(e, box=None):
    return is_identically_zero(e, box)


# ---------------------------------------------------------- canonical eqs

def test_canonical_equations_oscillator():
    f = canonical_equations(oscillator())
    assert f == (Var("p1"), simplify(neg(Var("q1"))))


def test_canonical_equations_example_with_log():
    f = canonical_equations(example4_system(eps="1/10"))
    # dq/dt = -eps q log p - q, dp/dt = eps p log p + p - eps p
    assert zero(f[0] - parse("-(1/10)*q1*log(p1) - q1")).ok
    assert zero(f[1] - parse("(1/10)*p1*log(p1) + p1 - (1/10)*p1")).ok


def test_canonical_equations_constant_hamiltonian():
    sys = PhaseSystem(2, Const(Fraction(3)))
    assert canonical_equations(sys) == (Const(Fraction(0)),) * 4


def test_phase_system_rejects_stray_variables():
    with pytest.raises(ValueError, match="unknown"):
        PhaseSystem(1, parse("q1*p2"))


# ---------------------------------------------------------- poisson bracket

def test_poisson_canonical_pair():
    sys = PhaseSystem(1, parse("q1*p1"))
    assert simplify(poisson_bracket(sys, Var("q1"), Var("p1"))) == Const(Fraction(1))


def test_poisson_self_bracket_vanishes():
    sys = oscillator()
    assert simplify(poisson_bracket(sys, sys.hamiltonian, sys.hamiltonian)) == Const(Fraction(0))


def test_poisson_squares():
    sys = PhaseSystem(1, parse("q1*p1"))
    b = poisson_bracket(sys, parse("q1^2"), parse("p1^2"))
    assert simplify(b) == simplify(parse("4*q1*p1"))


def test_poisson_axioms_on_random_polynomials():
    sys = PhaseSystem(2, parse("q1*p1+q2*p2"))
    rng = random.Random(17)
    names = sys.u
    for _ in range(25):
        f = random_polynomial(rng, names)
        g = random_polynomial(rng, names)
        h = random_polynomial(rng, names)
        pb = lambda a, b: poisson_bracket(sys, a, b)
        assert zero(add(pb(f, g), pb(g, f))).ok
        leibniz = add(pb(mul(f, g), h), neg(mul(f, pb(g, h))), neg(mul(g, pb(f, h))))
        assert zero(leibniz).ok
        jacobi = add(pb(f, pb(g, h)), pb(g, pb(h, f)), pb(h, pb(f, g)))
        assert zero(jacobi).ok


# ---------------------------------------------------------- time derivative

def test_total_time_derivative_conserves_energy():
    sys = oscillator()
    assert zero(total_time_derivative(sys, sys.hamiltonian)).ok


def test_total_time_derivative_perturbed_example():
    sys = example4_system()
    rate = total_time_derivative(sys, parse("2*q1*p1"))
    assert zero(rate - parse("-2*(1/10)*q1*p1")).ok


def test_total_time_derivative_time_dependent_integral():
    # crossed-momenta system: (q1+q2)*exp(t) is conserved
    sys = PhaseSystem(2, parse("-(q1*p2+q2*p1) + (p1-p2)^2/2"))
    rate = total_time_derivative(sys, parse("(q1+q2)*exp(t)"))
    assert zero(rate).ok


def test_product_rule_for_time_derivative():
    sys = example4_system()
    f, g = parse("q1^2+p1"), parse("q1*p1+log(p1)")
    lhs = total_time_derivative(sys, mul(f, g))
    rhs = add(mul(f, total_time_derivative(sys, g)), mul(g, total_time_derivative(sys, f)))
    assert zero(lhs - rhs).ok


# ---------------------------------------------------------- generated fields

def test_hamiltonian_vector_field_reproduces_flow():
    sys = oscillator()
    x = hamiltonian_vector_field(sys, sys.hamiltonian)
    assert x.components == canonical_equations(sys)


def test_hamiltonian_vector_field_of_qp():
    sys = oscillator()
    x = hamiltonian_vector_field(sys, parse("q1*p1"))
    assert x.phi == (Var("q1"),)
    assert simplify(x.psi[0]) == simplify(parse("-p1"))


# ---------------------------------------------------------- lie bracket

def lie_bracket(sys, xc, yc):
    """The normalized commutator [X, Y] of two fields' phase components."""
    return tuple(map(simplify, bracket(sys, xc, yc)))


def test_lie_bracket_antisymmetry_on_self():
    sys = oscillator()
    x = (Var("q1"), Var("p1"))
    b = lie_bracket(sys, x, x)
    assert all(c == Const(Fraction(0)) for c in b)


def test_lie_bracket_jacobi_identity():
    sys = PhaseSystem(1, parse("q1*p1"))
    rng = random.Random(5)
    names = sys.u
    for _ in range(8):
        x, y, z = [(random_polynomial(rng, names, 2), random_polynomial(rng, names, 2))
                   for _ in range(3)]
        br = lambda a, b: lie_bracket(sys, a, b)
        total = [br(x, br(y, z)), br(y, br(z, x)), br(z, br(x, y))]
        for a in range(2):
            assert zero(add(*[t[a] for t in total])).ok


# ---------------------------------------------------------- evolutionary form

def test_evolutionary_form_identity_when_tau_zero():
    sys = oscillator()
    x = PhaseVectorField((Var("q1"),), (Var("p1"),))
    assert evolutionary_form(sys, x) is x


def test_evolutionary_form_of_time_translation():
    # time translation is generated by -H: components (-dH/dp, +dH/dq)
    sys = oscillator()
    x = PhaseVectorField((Const(Fraction(0)),), (Const(Fraction(0)),), Const(Fraction(1)))
    xt = evolutionary_form(sys, x)
    assert xt.tau == Const(Fraction(0))
    assert simplify(xt.phi[0]) == simplify(parse("-p1"))
    assert simplify(xt.psi[0]) == simplify(parse("q1"))


def test_a_field_with_a_time_part_differentiates_along_t():
    # X f = phi df/dq1 + psi df/dp1 + tau df/dt for f = t*q1*p1
    x = PhaseVectorField((Var("q1"),), (Var("p1"),), parse("t^2"))
    got = x.apply(oscillator(), parse("t*q1*p1"))
    assert simplify(got) == simplify(parse("2*t*q1*p1 + t^2*q1*p1"))


# ---------------------------------------------------------- scaling

def test_scale_field_by_one_and_zero():
    x = PhaseVectorField((Var("q1"),), (Var("p1"),))
    same = scale_field(x, Const(Fraction(1)))
    assert [simplify(c) for c in same.components] == list(x.components)
    null = scale_field(x, Const(Fraction(0)))
    assert all(simplify(c) == Const(Fraction(0)) for c in null.components)


def test_scale_field_matches_worked_scaling_example():
    # scaling field times twice the oscillator energy
    x = PhaseVectorField((Var("q1"),), (Var("p1"),))
    x1 = scale_field(x, parse("2*((p1^2+q1^2)/2)"))
    assert simplify(x1.phi[0]) == simplify(parse("q1^3+q1*p1^2"))
    assert simplify(x1.psi[0]) == simplify(parse("q1^2*p1+p1^3"))


def test_first_integral_candidate_residuals():
    # the rate of a candidate along the flow minus its expected rate
    sys = example4_system()
    exact = add(total_time_derivative(sys, parse("2*q1*p1")), neg(parse("-2*(1/10)*q1*p1")))
    assert zero(exact).ok
    assert zero(total_time_derivative(sys, sys.hamiltonian)).ok
    assert not zero(total_time_derivative(sys, parse("2*q1*p1"))).ok
