import pytest

from lamsym.expr import Const, Var, is_identically_zero, neg, parse, simplify
from lamsym.mechanics import (
    PhaseSystem,
    PhaseVectorField,
    bracket,
    hamiltonian_vector_field,
    poisson_bracket,
    scale_field,
)
from lamsym.symmetry import (
    CASE_CONSTANT_S,
    CASE_GENERATING_FUNCTION,
    CASE_S_INTEGRAL,
    NotASymmetryError,
    check_first_integral,
    check_point_symmetry,
    classify_symmetry_case,
    compute_S,
    generating_function_test,
)
from fractions import Fraction


def oscillator():
    return PhaseSystem(1, parse("(p1^2+q1^2)/2"))


def oscillator2():
    return PhaseSystem(2, parse("(p1^2+q1^2)/2 + (p2^2+q2^2)/2"))


def scaling_field():
    return PhaseVectorField((Var("q1"),), (Var("p1"),))


def crossed_system():
    # n=2 with H0 = 1, H' = (p1-p2)^2/2
    return PhaseSystem(2, parse("-(q1*p2+q2*p1) + (p1-p2)^2/2"))


# ---------------------------------------------------------- point symmetry

def test_scaling_symmetry_of_oscillator():
    assert check_point_symmetry(oscillator(), scaling_field()).holds


def test_two_dof_opposite_scaling_is_symmetry():
    x = PhaseVectorField((Var("q1"), neg(Var("q2"))), (Var("p1"), neg(Var("p2"))))
    assert check_point_symmetry(oscillator2(), x).holds


def test_half_scaling_is_not_a_symmetry():
    x = PhaseVectorField((Var("q1"),), (Const(Fraction(0)),))
    verdict = check_point_symmetry(oscillator(), x)
    assert not verdict.holds
    assert next(v for _, v in verdict.checks if not v.ok).witness is not None


# ---------------------------------------------------------- the quantity S

def test_divergence_of_scaling_field_is_two():
    s = compute_S(oscillator(), scaling_field())
    assert s == Const(Fraction(2))


def test_divergence_of_opposite_scaling_vanishes():
    x = PhaseVectorField((Var("q1"), neg(Var("q2"))), (Var("p1"), neg(Var("p2"))))
    assert compute_S(oscillator2(), x) == Const(Fraction(0))


def test_divergence_of_energy_scaled_field_is_8h():
    sys = oscillator()
    x1 = scale_field(scaling_field(), parse("2*((p1^2+q1^2)/2)"))
    s1 = compute_S(sys, x1)
    assert simplify(s1 - parse("8*(p1^2+q1^2)/2")) == Const(Fraction(0))
    assert check_first_integral(sys, s1).ok


def test_s_includes_tau_terms():
    # time translation: S = -dtau/dt|on-shell + dtau/dt = 0 for tau = 1
    sys = oscillator()
    x = PhaseVectorField((Const(Fraction(0)),), (Const(Fraction(0)),), Const(Fraction(1)))
    assert compute_S(sys, x) == Const(Fraction(0))


# ---------------------------------------------------------- first integrals

def test_autonomous_hamiltonian_is_conserved():
    sys = oscillator()
    assert check_first_integral(sys, sys.hamiltonian).ok


def test_time_dependent_integral_on_crossed_system():
    assert check_first_integral(crossed_system(), parse("(q1+q2)*exp(t)")).ok


def test_broken_integral_is_rejected():
    v = check_first_integral(oscillator(), parse("q1^2"))
    assert not v.ok


# ---------------------------------------------------------- generating function

def test_momentum_shift_candidate_verifies_up_to_sign():
    sys = crossed_system()
    x = PhaseVectorField((Const(Fraction(0)), Const(Fraction(0))),
                         (Const(Fraction(1)), Const(Fraction(1))))
    rep = generating_function_test(sys, x, candidate_g=parse("q1+q2"))
    assert rep.closed
    assert rep.verified_g is not None
    assert rep.sign_flipped
    assert rep.rate_is_time_only is False  # dG/dt = -G, not a pure function of t
    assert not rep.holds


def test_opposite_scaling_fails_closedness():
    x = PhaseVectorField((Var("q1"), neg(Var("q2"))), (Var("p1"), neg(Var("p2"))))
    rep = generating_function_test(oscillator2(), x)
    assert not rep.closed
    bad = [lbl for lbl, v in rep.checks if not v.ok]
    assert "dphi1/dq1=-dpsi1/dp1" in bad


def test_velocity_extended_field_fails_closedness():
    # H for the 1-dof exponential system; X = q d/dq - (qp+p) d/dp
    sys = PhaseSystem(1, parse("q1^2*p1^2*exp(2*q1)/2 - q1*p1"))
    x = PhaseVectorField((Var("q1"),), (parse("-(q1*p1+p1)"),))
    rep = generating_function_test(sys, x)
    assert not rep.closed


def test_oscillator_flow_is_generated_by_energy():
    sys = oscillator()
    x = hamiltonian_vector_field(sys, sys.hamiltonian)
    rep = generating_function_test(sys, x, candidate_g=sys.hamiltonian)
    assert rep.holds and not rep.sign_flipped


def test_time_translation_generated_by_minus_energy():
    sys = oscillator()
    x = PhaseVectorField((Const(Fraction(0)),), (Const(Fraction(0)),), Const(Fraction(1)))
    rep = generating_function_test(sys, x, candidate_g=neg(sys.hamiltonian))
    assert rep.holds


def test_phase_dependent_tau_needs_candidate():
    sys = oscillator()
    x = PhaseVectorField((Var("q1"),), (Var("p1"),), Var("q1"))
    with pytest.raises(ValueError, match="candidate"):
        generating_function_test(sys, x)


# ---------------------------------------------------------- classification

def test_scaling_field_classifies_as_constant_divergence():
    c = classify_symmetry_case(oscillator(), scaling_field())
    assert c.tag == CASE_CONSTANT_S
    assert c.s == Const(Fraction(2))


def test_opposite_scaling_classifies_as_constant_divergence():
    x = PhaseVectorField((Var("q1"), neg(Var("q2"))), (Var("p1"), neg(Var("p2"))))
    c = classify_symmetry_case(oscillator2(), x)
    assert c.tag == CASE_CONSTANT_S
    assert c.s == Const(Fraction(0))


def test_energy_scaled_field_classifies_with_integral():
    sys = oscillator()
    x1 = scale_field(scaling_field(), parse("p1^2+q1^2"))
    c = classify_symmetry_case(sys, x1)
    assert c.tag == CASE_S_INTEGRAL
    assert simplify(c.s - parse("4*(p1^2+q1^2)")) == Const(Fraction(0))
    assert c.s_conservation.ok


def test_flow_field_classifies_as_generating_function():
    sys = oscillator()
    x = hamiltonian_vector_field(sys, sys.hamiltonian)
    c = classify_symmetry_case(sys, x, candidate_g=sys.hamiltonian)
    assert c.tag == CASE_GENERATING_FUNCTION
    assert c.g == simplify(sys.hamiltonian)


def test_classification_requires_symmetry():
    x = PhaseVectorField((Var("q1"),), (Const(Fraction(0)),))
    with pytest.raises(NotASymmetryError):
        classify_symmetry_case(oscillator(), x)


# ---------------------------------------------------------- scaled-field identities

def test_scaled_field_divergence_equals_bracket_of_factors():
    # X generated by G = q sin t + p cos t, scaled by the first integral K = H
    sys = oscillator()
    g = parse("q1*sin(t) + p1*cos(t)")
    x = hamiltonian_vector_field(sys, g)
    assert check_point_symmetry(sys, x).holds
    k = sys.hamiltonian
    x1 = scale_field(x, k)
    s1 = compute_S(sys, x1)
    assert is_identically_zero(s1 - poisson_bracket(sys, k, g)).ok


def test_scaled_field_bracket_identity():
    sys = oscillator()
    g = parse("q1*sin(t) + p1*cos(t)")
    x = hamiltonian_vector_field(sys, g)
    k = sys.hamiltonian
    x1 = scale_field(x, k)
    s1 = compute_S(sys, x1)
    y1 = hamiltonian_vector_field(sys, s1)
    yb = [simplify(c) for c in bracket(sys, x.components,
                                       hamiltonian_vector_field(sys, k).components)]
    for a, b in zip(y1.components, yb):
        assert is_identically_zero(a - b).ok


def test_time_translation_is_a_symmetry_of_autonomous_systems():
    x = PhaseVectorField((Const(Fraction(0)),), (Const(Fraction(0)),),
                         Const(Fraction(1)))
    assert check_point_symmetry(oscillator(), x).holds
    # explicit time dependence breaks it through the mixed t-derivative
    driven = PhaseSystem(1, parse("(p1^2+q1^2)/2 + t*q1"))
    assert not check_point_symmetry(driven, x).holds


@pytest.mark.parametrize("h, tags", [("p1^2/2 + 1/q1^2", ["ProvenZero"] * 2),
                                     ("p1^2/2 + 1/q1^2 + q1", ["ProvenZero", "NonZero"])])
def test_dilation_with_time_component(h, tags):
    # q -> c q, p -> p/c, t -> c^2 t leaves only the inverse-square potential
    x = PhaseVectorField((parse("q1"),), (parse("-p1"),), parse("2*t"))
    verdict = check_point_symmetry(PhaseSystem(1, parse(h)), x)
    assert [v.tag for _, v in verdict.checks] == tags


def test_divergence_quantity_matches_evolutionary_form():
    # S computed with tau present equals the plain divergence of the
    # equivalent tau = 0 field
    from lamsym.mechanics import evolutionary_form
    sys = crossed_system()
    x = PhaseVectorField((parse("q1*t"), parse("q2")),
                         (parse("p2"), parse("p1")), parse("q1*p1"))
    xt = evolutionary_form(sys, x)
    assert is_identically_zero(compute_S(sys, x) - compute_S(sys, xt)).ok


# ---------------------------------------------------------- known answers
# Textbook first integrals at the default zero-test seed: every verdict is
# ok and each mutant is NonZero.  Kepler's LRL components are
# NumericallyZero today (max about 1.5e-16): their normal forms keep sums of
# quotients over powers of r that the normalizer does not combine.

_R = "(q1^2+q2^2)^(1/2)"
_L3 = "(q1*p2-q2*p1)"


def test_kepler_angular_momentum_and_lrl_vector_are_conserved():
    # Goldstein, Classical Mechanics, 3.9: H = |p|^2/2 - 1/r in the plane
    kepler = PhaseSystem(2, parse(f"(p1^2+p2^2)/2 - 1/{_R}"))
    assert check_first_integral(kepler, parse(_L3)).tag == "ProvenZero"
    assert check_point_symmetry(kepler, hamiltonian_vector_field(kepler, parse(_L3))).holds
    for lrl in (f"p2*{_L3} - q1/{_R}", f"-p1*{_L3} - q2/{_R}"):
        assert check_first_integral(kepler, parse(lrl)).ok, lrl
    flipped = check_first_integral(kepler, parse(f"p2*{_L3} + q1/{_R}"))
    assert flipped.tag == "NonZero"


_R3 = "(q1^2+q2^2+q3^2)^(1/2)"
_L = ("(q2*p3-q3*p2)", "(q3*p1-q1*p3)", "(q1*p2-q2*p1)")


def test_kepler_in_space_angular_momentum_and_lrl_vector_are_conserved():
    # the same in space, n = 3: each X_Li has 2 NumericallyZero components
    # (max 2.4e-16) and the LRL components A = p x L - q/r are NumericallyZero
    # (max 2.1e-16)
    kepler = PhaseSystem(3, parse(f"(p1^2+p2^2+p3^2)/2 - 1/{_R3}"))
    for li in _L:
        assert check_first_integral(kepler, parse(li)).tag == "ProvenZero", li
        assert check_point_symmetry(kepler, hamiltonian_vector_field(kepler, parse(li))).holds
    lrl = (f"p2*{_L[2]} - p3*{_L[1]} - q1/{_R3}", f"p3*{_L[0]} - p1*{_L[2]} - q2/{_R3}",
           f"p1*{_L[1]} - p2*{_L[0]} - q3/{_R3}")
    for a in lrl:
        assert check_first_integral(kepler, parse(a)).ok, a
    for mutant in (lrl[0].replace("- q1/", "+ q1/"), "q2*p3+q3*p2"):
        assert check_first_integral(kepler, parse(mutant)).tag == "NonZero", mutant


_TODA_I3 = "p1*p2*p3 - p1*exp(q2-q3) - p2*exp(q3-q1) - p3*exp(q1-q2)"


def test_periodic_toda_momentum_and_cubic_integral_are_proven():
    # Henon and Flaschka, Phys. Rev. B 9 (1974): the periodic lattice, n = 3
    toda = PhaseSystem(3, parse("(p1^2+p2^2+p3^2)/2 + exp(q1-q2) + exp(q2-q3) + exp(q3-q1)"))
    for integral in ("p1+p2+p3", _TODA_I3):
        assert check_first_integral(toda, parse(integral)).tag == "ProvenZero", integral
    assert check_point_symmetry(toda, hamiltonian_vector_field(toda, parse(_TODA_I3))).holds
    doubled = check_first_integral(toda, parse(_TODA_I3 + " - p3*exp(q1-q2)"))
    assert doubled.tag == "NonZero"


def test_isotropic_oscillator_u4_generators_are_proven():
    # the n^2 = 16 generators q_i q_j + p_i p_j (i <= j) and q_i p_j - q_j p_i
    # (i < j) of U(4); unequal weights break the symmetry
    osc = PhaseSystem(4, parse("(p1^2+q1^2+p2^2+q2^2+p3^2+q3^2+p4^2+q4^2)/2"))
    pairs = [(i, j) for i in range(1, 5) for j in range(i, 5)]
    generators = ([f"q{i}*q{j}+p{i}*p{j}" for i, j in pairs]
                  + [f"q{i}*p{j}-q{j}*p{i}" for i, j in pairs if i < j])
    assert len(generators) == 16
    for g in generators:
        assert check_first_integral(osc, parse(g)).tag == "ProvenZero", g
        assert check_point_symmetry(osc, hamiltonian_vector_field(osc, parse(g))).holds, g
    assert check_first_integral(osc, parse("q1*q2+2*p1*p2")).tag == "NonZero"
