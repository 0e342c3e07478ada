import math
import random
from functools import partial
from importlib import resources

import numpy as np
import pytest

from lamsym.expr import (
    Const,
    Func,
    SamplingError,
    Var,
    add,
    compile_exprs,
    differentiate,
    div,
    format_expr,
    is_identically_zero,
    mul,
    neg,
    parse,
    simplify,
)
from lamsym.mechanics import (
    PhaseSystem,
    PhaseVectorField,
    canonical_equations,
    scale_field,
    total_time_derivative,
)
from lamsym.numeric import integrate_first_order, integrate_hamiltonian
from lamsym.problem import load_problem
from lamsym.symmetry import check_first_integral, check_point_symmetry, compute_S
from lamsym.lambda_symmetry import (
    LAGRANGIAN_SIDE,
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
from fractions import Fraction
from gen import random_polynomial, random_tree

ZERO = Const(Fraction(0))
ONE = Const(Fraction(1))


def crossed_system():
    # two crossed degrees of freedom, momentum-difference coupling
    return PhaseSystem(2, parse("-(q1*p2+q2*p1) + (p1-p2)^2/2"))


def crossed_field():
    return PhaseVectorField((ZERO, ZERO), (ONE, ONE))


def crossed_lambda():
    return LambdaMatrix.diagonal([0, 0, 1, 1])


def crossed_chart():
    return ReductionChart(
        w=(parse("q1-q2"), parse("p1-p2"), parse("q1+q2")),
        z=parse("(p1+p2)/2"),
        inverse={
            "q1": parse("(w1+w3)/2"), "q2": parse("(w3-w1)/2"),
            "p1": parse("z+w2/2"), "p2": parse("z-w2/2"),
        })


def log_scaling_system():
    h = ("q1^2*p1^2*log(q1)/2 + q2^2*p2^2*log(q2)/2"
         " + log(q1/q2)*(q1*p1+q2*p2)")
    return PhaseSystem(2, parse(h))


def log_scaling_field():
    return PhaseVectorField((Var("q1"), Var("q2")),
                            (neg(Var("p1")), neg(Var("p2"))))


def log_scaling_lambda():
    return LambdaMatrix.diagonal(
        [parse("q1*p1"), parse("q2*p2"), parse("q1*p1"), parse("q2*p2")])


def log_scaling_chart():
    return ReductionChart(
        w=(parse("q1*p1"), parse("q2*p2"), parse("q1/q2")),
        z=parse("log(q1)"),
        inverse={
            "q1": parse("exp(z)"), "q2": parse("exp(z)/w3"),
            "p1": parse("w1*exp(-z)"), "p2": parse("w2*w3*exp(-z)"),
        })


def perturbed_rotation_system(eps="1/10"):
    return PhaseSystem(1, parse(f"-q1*p1 + ({eps})*q1*p1 - ({eps})*q1*p1*log(p1)"))


def exponential_system():
    return PhaseSystem(1, parse("q1^2*p1^2*exp(2*q1)/2 - q1*p1"))


# ------------------------------------------------------------ prolongation

def on_shell_prolongation(sys, x, lam):
    """The first perturbed prolongation of x along solutions, normalized."""
    return tuple(map(simplify, lambda_prolongation(
        partial(total_time_derivative, sys), x.components, lam.on_shell(sys))))


def test_prolongation_of_momentum_shift():
    coeffs = on_shell_prolongation(crossed_system(), crossed_field(), crossed_lambda())
    assert coeffs == (ZERO, ZERO, ONE, ONE)


def test_prolongation_with_zero_matrix_is_standard():
    sys = crossed_system()
    x = crossed_field()
    lam0 = LambdaMatrix.zeros(4)
    coeffs = on_shell_prolongation(sys, x, lam0)
    expected = tuple(simplify(total_time_derivative(sys, c)) for c in x.components)
    assert coeffs == expected


def test_prolongation_log_scaling_matches_displayed_coefficients():
    sys = log_scaling_system()
    coeffs = on_shell_prolongation(sys, log_scaling_field(), log_scaling_lambda())
    f = canonical_equations(sys)
    # velocity-direction coefficients (dq + q^2 p, -(dp + q p^2)) with the
    # velocity symbols replaced by the equations of motion
    expected = (
        add(f[0], parse("q1^2*p1")),
        add(f[1], parse("q2^2*p2")),
        add(neg(f[2]), neg(parse("q1*p1^2"))),
        add(neg(f[3]), neg(parse("q2*p2^2"))),
    )
    for got, want in zip(coeffs, expected):
        assert is_identically_zero(got - want).ok


def test_prolongation_dimension_mismatch():
    with pytest.raises(ValueError, match="matrix"):
        on_shell_prolongation(crossed_system(), crossed_field(), LambdaMatrix.zeros(2))


def test_second_prolongation_is_the_step_applied_twice():
    # phi = q1 with Lambda = (c): psi1 = dq1 + c*q1, and
    # psi2 = D_t psi1 + c*psi1 = ddq1 + 2*c*dq1 + c^2*q1
    def dt(f):
        return add(differentiate(f, "t"), mul(Var("dq1"), differentiate(f, "q1")),
                   mul(Var("ddq1"), differentiate(f, "dq1")))

    lam = LambdaMatrix(((Var("c"),),), LAGRANGIAN_SIDE)
    psi1 = lambda_prolongation(dt, (Var("q1"),), lam)
    psi2 = lambda_prolongation(dt, psi1, lam)
    assert is_identically_zero(psi1[0] - parse("dq1 + c*q1")).tag == "ProvenZero"
    assert is_identically_zero(psi2[0] - parse("ddq1 + 2*c*dq1 + c^2*q1")).tag == "ProvenZero"


# ------------------------------------------------------------ lambda symmetry

def test_momentum_shift_is_lambda_symmetric_not_symmetric():
    sys = crossed_system()
    x = crossed_field()
    assert check_lambda_symmetry(sys, x, crossed_lambda()).holds
    assert not check_point_symmetry(sys, x).holds
    assert not check_lambda_symmetry(sys, x, LambdaMatrix.zeros(4)).holds


def test_log_scaling_lambda_symmetry():
    assert check_lambda_symmetry(
        log_scaling_system(), log_scaling_field(), log_scaling_lambda()).holds


def test_perturbed_rotation_lambda_symmetry():
    sys = perturbed_rotation_system()
    x = PhaseVectorField((parse("q1^2*p1"),), (ZERO,))
    lam = LambdaMatrix.diagonal([parse("1/10"), ZERO])
    assert check_lambda_symmetry(sys, x, lam).holds


# Since [F, g F] = (D_t g) F, the field Phi = g F is a lambda symmetry of
# every autonomous H with Lambda = -(D_t g / g) I, for any g that does not
# vanish: the condition's residuals are known to be zero.

Q = ("q1", "q2")


def _scaled_flow(rng, potential):
    """H = (p1^2+p2^2)/2 + potential, Phi = g F with g the exp of a random
    2-term polynomial in q and p, and the diagonal entry -(D_t g / g)."""
    sys = PhaseSystem(2, add(parse("(p1^2+p2^2)/2"), potential))
    g = Func("exp", random_polynomial(rng, Q + ("p1", "p2"), 2))
    f = canonical_equations(sys)
    x = scale_field(PhaseVectorField(f[:2], f[2:]), g)
    return sys, x, neg(div(total_time_derivative(sys, g), g))


def _tags(verdict):
    return [v.tag for _, v in verdict.checks]


def test_generated_lambda_symmetries_of_polynomial_potentials():
    rng = random.Random(2010)
    for _ in range(40):
        sys, x, entry = _scaled_flow(rng, random_polynomial(rng, Q))
        lam = LambdaMatrix.diagonal([entry] * 4)
        assert _tags(check_lambda_symmetry(sys, x, lam)) == ["ProvenZero"] * 4
        # 1/7 more on the diagonal entry of a component of F that is not 0
        k = rng.choice([a for a, c in enumerate(canonical_equations(sys)) if c != ZERO])
        mutant = [add(entry, Const(Fraction(1, 7))) if a == k else entry for a in range(4)]
        assert "NonZero" in _tags(check_lambda_symmetry(sys, x, LambdaMatrix.diagonal(mutant)))


def test_generated_lambda_symmetries_of_random_tree_potentials():
    rng = random.Random(1004)
    nonzero = []
    for _ in range(30):
        potential = random_tree(rng, 3, Q)
        sys, x, entry = _scaled_flow(rng, potential)
        try:
            verdict = check_lambda_symmetry(sys, x, LambdaMatrix.diagonal([entry] * 4))
        except SamplingError:
            # only where H itself cannot be sampled on the box
            with pytest.raises(SamplingError):
                is_identically_zero(sys.hamiltonian)
            continue
        if "NonZero" in _tags(verdict):
            nonzero.append(format_expr(potential))
    # A known false NonZero: the pole q1 + q2 = 5/4 lies inside the box, the
    # normal form keeps the square and the fourth power of 1-4/5*q1-4/5*q2
    # expanded as two unrelated denominators, and near the pole those
    # expanded sums cancel to a relative error of 3e-4 in float arithmetic.
    assert nonzero == ["-4/5*q2^4/(1-4/5*q1-4/5*q2)"]


def test_zero_matrix_degenerates_to_point_symmetry():
    # tag for tag on a symmetry, a non-symmetry and generated flows, with
    # Phi = F: the residual dF/dt is zero unless the potential depends on t
    cases = [
        (PhaseSystem(1, parse("(p1^2+q1^2)/2")),
         PhaseVectorField((Var("q1"),), (Var("p1"),))),
        (PhaseSystem(1, parse("(p1^2+q1^2)/2")),
         PhaseVectorField((Var("q1"),), (ZERO,))),
    ]
    rng = random.Random(300)
    for _ in range(20):
        sys = PhaseSystem(2, add(parse("(p1^2+p2^2)/2"), random_polynomial(rng, Q + ("t",))))
        f = canonical_equations(sys)
        cases.append((sys, PhaseVectorField(f[:2], f[2:])))
    for sys, x in cases:
        a = check_lambda_symmetry(sys, x, LambdaMatrix.zeros(2 * sys.n))
        assert _tags(a) == _tags(check_point_symmetry(sys, x))


@pytest.mark.parametrize("name, tags", [
    ("example2.json", ["ProvenZero"] * 4),
    ("example3.json", ["ProvenZero"] * 2 + ["NumericallyZero"] * 2),
    ("example4.json", ["ProvenZero"] * 2),
])
def test_a_scaled_field_keeps_the_verdicts_of_the_bundled_lambda_symmetries(name, tags):
    # g X with Lambda - (D_t g / g) I has residuals g times those of X with Lambda
    with resources.as_file(resources.files("lamsym").joinpath("problems", name)) as path:
        problem = load_problem(str(path))
    sys, x, lam, box = problem.phase_system(), problem.vector_field(), problem.lam, problem.box
    g = Func("exp", Var("q1"))
    shift = neg(div(total_time_derivative(sys, g), g))
    scaled = scale_field(x, g)
    shifted = LambdaMatrix(tuple(tuple(add(e, shift) if a == b else e for b, e in enumerate(row))
                                 for a, row in enumerate(lam.entries)))
    assert _tags(check_lambda_symmetry(sys, x, lam, box)) == tags
    assert _tags(check_lambda_symmetry(sys, scaled, shifted, box)) == tags


def test_velocity_dependence_is_derived_from_entries():
    # dp1 is not a velocity of the configuration side
    cases = [("q1+dq1", "hamiltonian", True), ("p1*dp1", "hamiltonian", True),
             ("q1*p1+t", "hamiltonian", False), ("exp(dq1)", "lagrangian", True),
             ("q1+dp1", "lagrangian", False)]
    for entry, side, dependent in cases:
        size = 2 if side == "hamiltonian" else 1
        lam = LambdaMatrix.diagonal([parse(entry)] + [ZERO] * (size - 1), side)
        assert lam.velocity_dependent is dependent, entry
    # the flag is no constructor argument
    with pytest.raises(TypeError):
        LambdaMatrix(((parse("dq1"),),), "lagrangian", True)
    with pytest.raises(TypeError):
        LambdaMatrix.diagonal([parse("dq1")], "lagrangian", True)


# ------------------------------------------------------------ scalar reduction

def test_scalar_reduction_of_momentum_shift():
    lam = scalar_lambda_reduction(crossed_system(), crossed_field(), crossed_lambda())
    assert lam == ONE


def test_scalar_reduction_absent_for_log_scaling():
    assert scalar_lambda_reduction(
        log_scaling_system(), log_scaling_field(), log_scaling_lambda()) is None


def test_scalar_reduction_of_scaled_identity():
    sys = crossed_system()
    x = PhaseVectorField((Var("q1"), Var("q2")), (Var("p1"), Var("p2")))
    lam = LambdaMatrix.diagonal([parse("3/2")] * 4)
    assert scalar_lambda_reduction(sys, x, lam) == Const(Fraction(3, 2))


def test_scalar_reduction_needs_nonvanishing_field():
    sys = crossed_system()
    x = PhaseVectorField((ZERO, ZERO), (ZERO, ZERO))
    with pytest.raises(ValueError, match="vanish"):
        scalar_lambda_reduction(sys, x, crossed_lambda())


# ------------------------------------------------------------ G deviation law

def test_momentum_shift_g_deviation():
    sys = crossed_system()
    rep = check_lambda_constant_G(sys, crossed_field(), crossed_lambda(), parse("q1+q2"))
    assert rep.holds
    # dG/dt = -G for the verified generating function
    assert is_identically_zero(add(rep.rate, rep.g)).ok
    assert rep.scalar == ONE
    # the 2n scalar-law checks follow the 2n gradient checks
    assert [lbl for lbl, _ in rep.checks[4:]] == [
        f"d(rate)/d{v}+lambda*dG/d{v}" for v in sys.u]


def test_log_scaling_g_deviation_not_separated():
    sys = log_scaling_system()
    rep = check_lambda_constant_G(sys, log_scaling_field(), log_scaling_lambda(),
                                  parse("q1*p1+q2*p2"))
    assert rep.holds
    assert rep.scalar is None
    expected = parse("-((q1*p1)^2+(q2*p2)^2)/2")
    assert is_identically_zero(rep.rate - expected).ok


def test_zero_matrix_gives_exact_conservation_of_g():
    sys = PhaseSystem(1, parse("(p1^2+q1^2)/2"))
    from lamsym.mechanics import hamiltonian_vector_field
    x = hamiltonian_vector_field(sys, sys.hamiltonian)
    rep = check_lambda_constant_G(sys, x, LambdaMatrix.zeros(2), sys.hamiltonian)
    assert rep.holds
    assert simplify(rep.rate) == ZERO


def test_g_deviation_rejects_non_generating_candidate():
    sys = crossed_system()
    with pytest.raises(ValueError, match="generating"):
        check_lambda_constant_G(sys, crossed_field(), crossed_lambda(), parse("q1*p1"))


# ------------------------------------------------------------ S deviation law

def test_perturbed_rotation_s_deviation():
    sys = perturbed_rotation_system()
    x = PhaseVectorField((parse("q1^2*p1"),), (ZERO,))
    lam = LambdaMatrix.diagonal([parse("1/10"), ZERO])
    rep = check_lambda_constant_S(sys, x, lam)
    assert rep.holds
    assert simplify(rep.s - parse("2*q1*p1")) == ZERO
    assert is_identically_zero(rep.rate - parse("-2*(1/10)*q1*p1")).ok


def test_exponential_system_s_deviation_velocity_dependent():
    sys = exponential_system()
    x = PhaseVectorField((Var("q1"),), (parse("-(q1*p1+p1)"),))
    lam = LambdaMatrix(
        ((parse("q1+dq1"), ZERO),
         (parse("-p1"), parse("q1+dq1"))))
    rep = check_lambda_constant_S(sys, x, lam)
    assert rep.holds
    assert simplify(rep.s - parse("-q1")) == ZERO


def test_zero_matrix_s_deviation_reduces_to_conservation():
    sys = PhaseSystem(1, parse("(p1^2+q1^2)/2"))
    x = PhaseVectorField((Var("q1"),), (Var("p1"),))
    rep = check_lambda_constant_S(sys, x, LambdaMatrix.zeros(2))
    assert rep.holds
    assert simplify(rep.divergence) == ZERO


# ------------------------------------------------------------ charts

def test_crossed_chart_verifies():
    assert verify_chart(crossed_system(), crossed_field(), crossed_chart()).holds


def test_log_scaling_chart_verifies():
    assert verify_chart(log_scaling_system(), log_scaling_field(),
                        log_scaling_chart()).holds


def test_chart_with_wrong_scale_fails_rectification():
    chart = crossed_chart()
    bad = ReductionChart(chart.w, parse("p1+p2"), chart.inverse)
    rep = verify_chart(crossed_system(), crossed_field(), bad)
    assert not dict(rep.checks)["Xz=1"].ok


def test_chart_requires_full_inverse():
    chart = crossed_chart()
    partial = dict(chart.inverse)
    del partial["p2"]
    with pytest.raises(ChartError, match="misses"):
        verify_chart(crossed_system(), crossed_field(),
                     ReductionChart(chart.w, chart.z, partial))


# ------------------------------------------------------------ reduced systems

def test_crossed_reduced_system_matches_displayed_equations():
    sys = crossed_system()
    rs = reduced_system(sys, crossed_field(), crossed_lambda(), crossed_chart())
    assert rs.holds
    expected_w = [parse("w1+2*w2"), parse("-w2"), parse("-w3")]
    for got, want in zip(rs.w_rhs, expected_w):
        assert is_identically_zero(got - want).ok
    assert is_identically_zero(rs.z_rhs - parse("z")).ok
    # the three invariant equations are z-free, the z equation is not
    assert rs.z_free == (True, True, True, False)


def test_log_scaling_reduced_system_flags():
    sys = log_scaling_system()
    rs = reduced_system(sys, log_scaling_field(), log_scaling_lambda(),
                        log_scaling_chart())
    assert rs.holds
    assert rs.z_free[0] and rs.z_free[1]
    assert not rs.z_free[2]
    assert is_identically_zero(rs.m[2] - parse("w3*(w1-w2)")).ok
    # dG/dt = -(w1^2+w2^2)/2 summed from the first two equations
    g_rate = add(rs.w_rhs[0], rs.w_rhs[1])
    assert is_identically_zero(g_rate - parse("-(w1^2+w2^2)/2")).ok


def test_zero_matrix_reduction_is_fully_z_free():
    # hyperbolic system dq/dt = q, dp/dt = -p with its exact scaling symmetry
    sys = PhaseSystem(1, parse("q1*p1"))
    x = PhaseVectorField((Var("q1"),), (ZERO,))
    assert check_point_symmetry(sys, x).holds
    chart = ReductionChart(
        w=(Var("p1"),), z=parse("log(q1)"),
        inverse={"q1": parse("exp(z)"), "p1": Var("w1")})
    rs = reduced_system(sys, x, LambdaMatrix.zeros(2), chart)
    assert rs.holds
    assert all(rs.z_free)
    assert is_identically_zero(rs.w_rhs[0] - parse("-w1")).ok


def test_reduced_system_requires_verified_chart():
    chart = crossed_chart()
    bad = ReductionChart(chart.w, parse("p1+p2"), chart.inverse)
    with pytest.raises(ChartError):
        reduced_system(crossed_system(), crossed_field(), crossed_lambda(), bad)


_STEPS = (1e-2, 5e-3, 2.5e-3)


def _chart_gaps(name, u0, added=None):
    """At each step of _STEPS, the largest gap over the grid to t = 1 between
    the chart image (w, z) of the full Hamiltonian flow from u0 and the flow
    of the reduced system from the image of u0; `added` is added to W1.  A
    Lagrangian example flows by its H_for_legendre, with the lifted field and
    the extended matrix."""
    from lamsym.lagrangian import extend_lambda, extend_vector_field
    with resources.as_file(resources.files("lamsym").joinpath("problems", name)) as path:
        problem = load_problem(str(path))
    chart = problem.chart
    if problem.kind == "hamiltonian":
        sys, x, lam = problem.phase_system(), problem.vector_field(), problem.lam
    else:
        c, xl = problem.candidates, problem.config_field()
        sys = PhaseSystem(problem.n, c["H_for_legendre"])
        x, _g = extend_vector_field(xl, problem.lam, c.get("velocity_map"))
        lam = extend_lambda(xl, problem.lam, c.get("lambda2_candidate"), problem.box).matrix
    rs = reduced_system(sys, x, lam, chart, problem.box)
    assert rs.holds
    rhs = [*rs.w_rhs, rs.z_rhs]
    if added is not None:
        rhs[0] = add(rhs[0], parse(added))
    to_chart = compile_exprs([*chart.w, chart.z], ("t", *sys.u))
    gaps = []
    for h in _STEPS:
        full = integrate_hamiltonian(sys, u0, 0.0, 1.0, h)
        image = np.array([to_chart(t, *map(float, u)) for t, u in zip(full.times, full.states)])
        reduced = integrate_first_order(rhs, (*chart.w_names, chart.z_name), image[0],
                                        0.0, 1.0, h)
        assert not full.truncated and not reduced.truncated
        gaps.append(float(np.max(np.abs(reduced.states - image))))
    return gaps


def _orders(gaps):
    return [math.log2(a / b) for a, b in zip(gaps, gaps[1:])]


def test_reduced_system_of_example2_is_its_flow_to_rounding():
    # W and Z are linear in (w, z): both flows take the same steps
    assert max(_chart_gaps("example2.json", [0.4, 0.3, 0.2, 0.1])) <= 8.9e-16


def test_reduced_system_of_example3_converges_to_its_flow_at_order_4():
    # measured 9.1e-11, 5.7e-12, 3.5e-13: the two RK4 flows agree up to
    # their own error
    gaps = _chart_gaps("example3.json", [0.8, 0.6, 0.5, 0.4])
    assert gaps[0] < 1e-10
    assert all(3.8 < k < 4.2 for k in _orders(gaps))


def test_a_reduced_system_with_an_added_term_does_not_converge_to_the_flow():
    gaps = _chart_gaps("example3.json", [0.8, 0.6, 0.5, 0.4], added="1/1000000")
    assert min(gaps) > 1e-7
    assert all(abs(k) < 0.1 for k in _orders(gaps))


@pytest.mark.parametrize("name, u0, first", [
    # measured 3.1e-10, 1.9e-11, 1.2e-12 and 2.7e-11, 1.7e-12, 1.1e-13
    ("example6.json", [1.1, 0.8, 0.5, 0.4], 4e-10),
    ("example7.json", [0.5, 0.3], 4e-11)])
def test_reduced_system_of_a_lagrangian_example_converges_to_its_flow_at_order_4(name, u0, first):
    gaps = _chart_gaps(name, u0)
    assert gaps[0] < first
    assert all(3.9 < k < 4.1 for k in _orders(gaps))


@pytest.mark.parametrize("name, u0, gap", [
    # measured 1.18e-6 and 8.4e-7 at every step
    ("example6.json", [1.1, 0.8, 0.5, 0.4], 1.1e-6),
    ("example7.json", [0.5, 0.3], 8e-7)])
def test_a_lagrangian_reduced_system_with_an_added_term_does_not_converge(name, u0, gap):
    gaps = _chart_gaps(name, u0, added="1/1000000")
    assert min(gaps) > gap
    assert all(abs(k) < 1e-3 for k in _orders(gaps))


# ------------------------------------------------------------ separated G

def test_crossed_separated_equation():
    rep = check_separated_G(crossed_system(), crossed_field(), crossed_lambda(),
                            crossed_chart(), g_index=2)
    assert rep.holds
    assert is_identically_zero(rep.gamma - parse("-G")).ok


def test_log_scaling_has_no_separated_equation():
    with pytest.raises(ValueError, match="scalar"):
        check_separated_G(log_scaling_system(), log_scaling_field(),
                          log_scaling_lambda(), log_scaling_chart(), g_index=0)


# ------------------------------------------------------------ time-dependent integrals

def test_exponential_damping_integral():
    sys = crossed_system()
    assert check_first_integral(sys, parse("(q1+q2)*exp(t)")).ok


def test_undamped_candidate_is_rejected():
    sys = crossed_system()
    v = check_first_integral(sys, parse("q1+q2"))
    assert not v.ok


def test_scaled_identity_integral_on_oscillating_system():
    # lambda = 1 constant: G * exp(t) is a time-dependent integral
    sys = crossed_system()
    assert check_first_integral(sys, parse("(q1+q2)*exp(1*t)")).ok


def test_two_scale_chart_reduction_certificates():
    # chart for the two-scale chain; the matrix comes from the extension
    from lamsym.lagrangian import ConfigVectorField, extend_lambda, extend_vector_field
    from lamsym.lambda_symmetry import LAGRANGIAN_SIDE
    h = ("q1^2*p1^2/2 + q1^2*p1 + q1*p1*p2 + q1*p2 + p2^2/2"
         " + p2^2*exp(2*q2)/(2*q1^2) - q1*exp(-q2)")
    sys = PhaseSystem(2, parse(h))
    xl = ConfigVectorField((parse("q1"), parse("1")))
    laml = LambdaMatrix.diagonal([parse("q1"), parse("q1")], LAGRANGIAN_SIDE)
    x, _g = extend_vector_field(xl)
    lam = extend_lambda(xl, laml).matrix
    chart = ReductionChart(
        w=(parse("q1*exp(-q2)"), parse("q1*p1"), parse("p2")),
        z=parse("q2"),
        inverse={"q1": parse("w1*exp(z)"), "q2": parse("z"),
                 "p1": parse("w2*exp(-z)/w1"), "p2": parse("w3")})
    assert verify_chart(sys, x, chart).holds
    rs = reduced_system(sys, x, lam, chart)
    assert rs.holds
