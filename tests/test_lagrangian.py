import inspect
import random
from importlib import resources

import pytest

from lamsym.expr import (
    Const,
    Var,
    add,
    is_identically_zero,
    mul,
    neg,
    parse,
    simplify,
)
from lamsym.lambda_symmetry import (
    LAGRANGIAN_SIDE,
    LambdaMatrix,
    check_lambda_constant_G,
    check_lambda_constant_S,
    check_lambda_symmetry,
)
from lamsym.lagrangian import (
    ConfigVectorField,
    LagrangianSystem,
    check_lagrangian_lambda_invariance,
    check_scalar_condition,
    check_noether_lambda,
    config_scalar_reduction,
    conjugate_momenta,
    extend_lambda,
    extend_vector_field,
    hessian_regularity,
    partial_reduction_check,
    verify_legendre,
)
from lamsym.mechanics import PhaseSystem, canonical_equations, hamiltonian_vector_field
from lamsym import expr, lagrangian, runner
from lamsym.problem import load_problem
from fractions import Fraction
from gen import in_order

ZERO = Const(Fraction(0))


def two_scale_lagrangian():
    return LagrangianSystem(
        2, parse("(dq1/q1 - q1)^2/2 + (dq1 - q1*dq2)^2*exp(-2*q2)/2 + q1*exp(-q2)"))


def two_scale_field():
    return ConfigVectorField((parse("q1"), parse("1")))


def two_scale_matrix():
    return LambdaMatrix.diagonal([parse("q1"), parse("q1")], LAGRANGIAN_SIDE)


TWO_SCALE_H = parse(
    "q1^2*p1^2/2 + q1^2*p1 + q1*p1*p2 + q1*p2 + p2^2/2"
    " + p2^2*exp(2*q2)/(2*q1^2) - q1*exp(-q2)")
TWO_SCALE_VMAP = (parse("q1^2*p1+q1^2+q1*p2"),
                  parse("q1*p1+q1+p2+p2*exp(2*q2)/q1^2"))


def log_pair_lagrangian():
    return LagrangianSystem(
        2, parse("(dq1/q1 - log(q1))^2/2 + (dq1/q1 + dq2/q2)^2/2"))


def log_pair_field():
    return ConfigVectorField((parse("q1"), parse("-q2")))


def log_pair_matrix():
    return LambdaMatrix.diagonal([parse("1"), parse("1")], LAGRANGIAN_SIDE)


LOG_PAIR_H = parse(
    "q1^2*p1^2/2 + q2^2*p2^2 + (q1*p1-q2*p2)*log(q1) - q1*q2*p1*p2")
LOG_PAIR_VMAP = (parse("q1*(q1*p1 - q2*p2 + log(q1))"),
                 parse("q2*(2*q2*p2 - q1*p1 - log(q1))"))


def exponential_lagrangian():
    return LagrangianSystem(1, parse("(dq1/q1 + 1)^2*exp(-2*q1)/2"))


def exponential_field():
    return ConfigVectorField((parse("q1"),))


def exponential_matrix():
    return LambdaMatrix(((parse("q1+dq1"),),), LAGRANGIAN_SIDE)


EXPONENTIAL_H = parse("q1^2*p1^2*exp(2*q1)/2 - q1*p1")
EXPONENTIAL_VMAP = (parse("q1^2*p1*exp(2*q1) - q1"),)


# ------------------------------------------------------------- invariance

def test_two_scale_lagrangian_is_matrix_invariant():
    assert check_lagrangian_lambda_invariance(
        two_scale_lagrangian(), two_scale_field(), two_scale_matrix()).ok


def test_exponential_lagrangian_velocity_dependent_invariance():
    assert check_lagrangian_lambda_invariance(
        exponential_lagrangian(), exponential_field(), exponential_matrix()).ok


def test_log_pair_is_not_exactly_invariant():
    v = check_lagrangian_lambda_invariance(
        log_pair_lagrangian(), log_pair_field(),
        LambdaMatrix.zeros(2, LAGRANGIAN_SIDE))
    assert not v.ok


def test_log_pair_is_matrix_invariant():
    assert check_lagrangian_lambda_invariance(
        log_pair_lagrangian(), log_pair_field(), log_pair_matrix()).ok


@pytest.mark.parametrize("name", ["q7", "q2", "z", "w1", "theta", "pi", "p1", "dq1", "dp1"])
def test_a_configuration_field_uses_only_t_and_its_own_positions(name):
    # q7 on n = 1 would be a constant to the invariance check, which would
    # then read phi = q7 as a symmetry of L = dq1^2/2
    with pytest.raises(ValueError, match=rf"may only use \(t, q\): \['{name}'\]$"):
        ConfigVectorField((parse(f"t*q1 + {name}"),))


def test_a_field_with_two_components_may_use_q2():
    assert ConfigVectorField((parse("t*q1"), parse("q2"))).n == 2


# ------------------------------------------------------------- momenta

def test_free_particle_momentum():
    lag = LagrangianSystem(1, parse("dq1^2/2"))
    assert conjugate_momenta(lag) == (Var("dq1"),)


def test_exponential_momentum_formula_and_finite_differences():
    lag = exponential_lagrangian()
    mom = conjugate_momenta(lag)[0]
    assert is_identically_zero(mom - parse("(dq1/q1 + 1)*exp(-2*q1)/q1")).ok
    rng = random.Random(2)
    for _ in range(5):
        point = {"q1": rng.uniform(0.3, 1.1), "dq1": rng.uniform(0.3, 1.1)}
        h = 1e-6
        up = in_order(lag.lagrangian, {**point, "dq1": point["dq1"] + h})
        dn = in_order(lag.lagrangian, {**point, "dq1": point["dq1"] - h})
        assert abs((up - dn) / (2 * h) - in_order(mom, point)) < 1e-7


def test_missing_velocity_gives_zero_momentum_and_singular_hessian():
    lag = LagrangianSystem(2, parse("dq1^2/2 + q2^2"))
    moms = conjugate_momenta(lag)
    assert moms[1] == ZERO
    regular, _ = hessian_regularity(lag)
    assert not regular


# ------------------------------------------------------------- legendre

def test_free_particle_legendre():
    lag = LagrangianSystem(1, parse("dq1^2/2"))
    rep = verify_legendre(lag, [Var("p1")], parse("p1^2/2"))
    assert rep.holds


def test_log_pair_legendre_against_printed_hamiltonian():
    rep = verify_legendre(log_pair_lagrangian(), LOG_PAIR_VMAP, LOG_PAIR_H)
    assert rep.holds


def test_two_scale_legendre_and_canonical_equations():
    rep = verify_legendre(two_scale_lagrangian(), TWO_SCALE_VMAP, TWO_SCALE_H)
    assert rep.holds
    f = canonical_equations(PhaseSystem(2, TWO_SCALE_H))
    displayed = (
        "q1^2*p1+q1^2+q1*p2",
        "p2*exp(2*q2)/q1^2 + q1*p1 + q1 + p2",
        "-q1*p1^2 - 2*q1*p1 + p2^2*exp(2*q2)/q1^3 - p1*p2 - p2 + exp(-q2)",
        "-p2^2*exp(2*q2)/q1^2 - q1*exp(-q2)",
    )
    for got, want in zip(f, displayed):
        assert is_identically_zero(got - parse(want)).ok


def test_legendre_rejects_wrong_hamiltonian():
    lag = LagrangianSystem(1, parse("dq1^2/2"))
    rep = verify_legendre(lag, [Var("p1")], parse("p1^2"))
    assert not rep.holds


def test_legendre_rejects_singular_lagrangian():
    lag = LagrangianSystem(1, parse("q1*dq1"))
    with pytest.raises(ValueError, match="singular"):
        verify_legendre(lag, [Var("p1")], parse("p1^2/2"))


# ------------------------------------------------------------- extensions

def test_two_scale_field_extension():
    x, g = extend_vector_field(two_scale_field())
    assert [simplify(c) for c in x.components] == [
        parse("q1"), Const(Fraction(1)), simplify(parse("-p1")), ZERO]
    assert g == simplify(parse("q1*p1+p2"))


@pytest.mark.parametrize("number, smallest", [(5, "0x1.8098c05ec0382p-4"),
                                              (6, "0x1.292c82a812cfdp-1"),
                                              (7, "0x1.22df87658576cp-4")])
def test_hessian_regularity_samples_the_same_points(number, smallest):
    # the points come from DomainBox.points, shared with the zero test; the
    # pinned values are those of per-coordinate random.Random(0).uniform draws
    path = resources.files("lamsym").joinpath("problems", f"example{number}.json")
    with resources.as_file(path) as p:
        problem = load_problem(str(p))
    regular, worst = hessian_regularity(problem.lagrangian_system(), problem.box)
    assert regular and worst.hex() == smallest


def test_a_full_order_run_samples_the_hessian_once(monkeypatch):
    # leg and gl both require a regular Hessian; a run's scope samples it once
    # per system, and leg prints the smallest |det| of that sampling
    path = resources.files("lamsym").joinpath("problems", "example6.json")
    with resources.as_file(path) as p:
        problem = load_problem(str(p))
    calls = []
    sample = lagrangian._sampled_hessian_regularity
    monkeypatch.setattr(lagrangian, "_sampled_hessian_regularity",
                        lambda *args: calls.append(args) or sample(*args))
    report = runner.run_checks(problem)
    assert len(calls) == 1
    leg = next(r for r in report.checks if r.name == "leg")
    smallest = float.fromhex("0x1.292c82a812cfdp-1")   # pinned above
    assert leg.detail.endswith(f"min |Hessian det| sampled: {smallest:.3e}")


@pytest.mark.parametrize("number", [5, 6, 7])
def test_extension_is_the_hamiltonian_field_of_g(number):
    # the lift of phi to phase space is the field generated by G = phi . p
    path = resources.files("lamsym").joinpath("problems", f"example{number}.json")
    with resources.as_file(path) as p:
        problem = load_problem(str(p))
    sys = PhaseSystem(problem.n, problem.candidates["H_for_legendre"])
    x, g = extend_vector_field(problem.config_field())
    assert g is simplify(add(*[mul(c, Var(p)) for c, p in zip(problem.phi, sys.p)]))
    y = hamiltonian_vector_field(sys, g)
    assert all(a is b for a, b in zip(x.components, y.components))
    assert x == y


@pytest.mark.parametrize("field, matrix", [
    (log_pair_field, log_pair_matrix),
    (exponential_field, lambda: LambdaMatrix.diagonal([parse("q1*exp(t)")], LAGRANGIAN_SIDE))])
def test_velocity_free_matrix_lift_is_the_hamiltonian_field_of_g(field, matrix):
    xl = field()
    coords = PhaseSystem(xl.n, ZERO)
    g = simplify(add(*[mul(c, Var(p)) for c, p in zip(xl.phi, coords.p)]))
    x, g_out = extend_vector_field(xl, matrix())
    assert g_out is g
    assert x == hamiltonian_vector_field(coords, g)


def test_log_pair_field_extension():
    x, g = extend_vector_field(log_pair_field())
    assert [simplify(c) for c in x.components] == [
        parse("q1"), simplify(parse("-q2")), simplify(parse("-p1")), Var("p2")]
    assert g == simplify(parse("q1*p1-q2*p2"))


def test_constant_field_extension_has_zero_momentum_part():
    x, g = extend_vector_field(ConfigVectorField((Const(Fraction(1)), Const(Fraction(2)))))
    assert x.psi == (ZERO, ZERO)
    assert g == simplify(parse("p1+2*p2"))


def test_velocity_dependent_extension_exponential():
    x, g = extend_vector_field(exponential_field(), exponential_matrix(),
                               velocity_map=EXPONENTIAL_VMAP)
    assert is_identically_zero(x.psi[0] - parse("-q1*p1-p1")).ok
    assert g is None


def test_velocity_free_matrix_extension_agrees_with_plain_extension():
    x1, g1 = extend_vector_field(two_scale_field(), two_scale_matrix())
    x2, g2 = extend_vector_field(two_scale_field())
    assert x1 == x2 and g1 is g2


def test_two_scale_matrix_extension_entrywise():
    rep = extend_lambda(two_scale_field(), two_scale_matrix())
    assert rep.solved and rep.holds
    displayed = (
        ("q1", "0", "0", "0"),
        ("0", "q1", "0", "0"),
        ("-p1", "-p2", "q1", "0"),
        ("0", "0", "0", "0"),
    )
    for row, want_row in zip(rep.matrix.entries, displayed):
        for e, want in zip(row, want_row):
            assert is_identically_zero(e - parse(want)).ok


def test_log_pair_matrix_extension_is_identity():
    rep = extend_lambda(log_pair_field(), log_pair_matrix())
    assert rep.solved and rep.holds
    for i, row in enumerate(rep.matrix.entries):
        for j, e in enumerate(row):
            assert simplify(e) == (Const(Fraction(1)) if i == j else ZERO)


def test_zero_matrix_extension_is_zero():
    rep = extend_lambda(two_scale_field(), LambdaMatrix.zeros(2, LAGRANGIAN_SIDE))
    assert all(simplify(e) == ZERO for row in rep.matrix.entries for e in row)


def test_a_zero_pivot_is_solved_on_a_diagonal_jacobian_only():
    # dphi/dq = diag(1, 0): the zero pivot's unknowns stay 0 when its
    # equations vanish (Lambda_21 = 0) and are unsatisfiable when they do not;
    # the triangular [[1, 0], [1, 0]] with the same zero pivot needs a candidate
    lam = LambdaMatrix(((parse("q1"), ZERO), (parse("q2"), parse("q1"))), LAGRANGIAN_SIDE)
    with pytest.raises(ValueError, match="^extension constraint unsatisfiable: zero "
                                         "Jacobian column 2 against nonzero right-hand side$"):
        extend_lambda(two_scale_field(), lam)
    rep = extend_lambda(two_scale_field(), two_scale_matrix())
    assert rep.solved and rep.holds and simplify(rep.matrix.entries[3][3]) == ZERO
    with pytest.raises(ValueError, match="^Jacobian dphi/dq is neither diagonal nor "
                                         "triangular with a nonzero diagonal; supply a "
                                         "candidate lower-right block$"):
        extend_lambda(ConfigVectorField((parse("q1"), parse("q1"))), two_scale_matrix())


def test_matrix_extension_accepts_verified_candidate():
    rep = extend_lambda(two_scale_field(), two_scale_matrix(),
                        candidate_lambda2=[[parse("q1"), ZERO], [ZERO, ZERO]])
    assert rep.holds and not rep.solved


def test_matrix_extension_rejects_bad_candidate():
    rep = extend_lambda(two_scale_field(), two_scale_matrix(),
                        candidate_lambda2=[[parse("q2"), ZERO], [ZERO, ZERO]])
    assert not rep.holds


# ------------------------------------------------------------- noether check

def test_two_scale_noether_rate_along_trajectories():
    rep = check_noether_lambda(
        two_scale_lagrangian(), two_scale_field(), two_scale_matrix(),
        initial_conditions=[(0.8, 0.4, 0.3, 0.2), (1.0, 0.6, -0.2, 0.1),
                            (0.9, 0.3, 0.1, -0.3)])
    assert rep.holds
    assert max(v.max_residual for v in dict(rep.checks).values()) < 1e-5
    # central differences compare the 499 interior points of 500 steps
    assert [(lbl, v.samples) for lbl, v in rep.checks] == [
        ("trajectory 1", 499), ("trajectory 2", 499), ("trajectory 3", 499)]


def test_exact_invariance_conserves_momentum():
    lag = LagrangianSystem(2, parse("dq1^2/2 + dq2^2/2 + q2^2/2"))
    xl = ConfigVectorField((Const(Fraction(1)), ZERO))
    rep = check_noether_lambda(lag, xl, LambdaMatrix.zeros(2, LAGRANGIAN_SIDE),
                               initial_conditions=[(0.5, 0.5, 0.3, -0.2)])
    assert dict(rep.checks)["trajectory 1"].max_residual < 1e-10


def test_exponential_noether_rate():
    rep = check_noether_lambda(
        exponential_lagrangian(), exponential_field(), exponential_matrix(),
        initial_conditions=[(0.5, 0.1), (0.8, -0.2)])
    assert rep.holds


def test_the_noether_check_requires_initial_conditions():
    # its old default, (), could only raise
    param = inspect.signature(check_noether_lambda).parameters["initial_conditions"]
    assert param.default is inspect.Parameter.empty
    with pytest.raises(TypeError, match="initial_conditions"):
        check_noether_lambda(two_scale_lagrangian(), two_scale_field(), two_scale_matrix())
    with pytest.raises(ValueError, match="at least one initial condition"):
        check_noether_lambda(two_scale_lagrangian(), two_scale_field(), two_scale_matrix(), ())


# ------------------------------------------------------------- scalar condition

def test_log_pair_scalar_is_constant_and_extends():
    rep = check_scalar_condition(log_pair_field(), log_pair_matrix())
    assert rep.scalar == Const(Fraction(1))
    assert rep.is_constant
    assert rep.holds
    assert len(rep.checks) == 4


def test_two_scale_scalar_is_not_constant():
    rep = check_scalar_condition(two_scale_field(), two_scale_matrix())
    assert rep.scalar == Var("q1")
    assert not rep.is_constant
    assert rep.checks == expr.UNTESTED


def test_zero_matrix_scalar_is_zero():
    rep = check_scalar_condition(two_scale_field(),
                                    LambdaMatrix.zeros(2, LAGRANGIAN_SIDE))
    assert rep.scalar == ZERO
    assert rep.is_constant
    assert rep.holds


def test_non_proportional_matrix_has_no_scalar():
    laml = LambdaMatrix.diagonal([parse("q1"), parse("q2")], LAGRANGIAN_SIDE)
    assert config_scalar_reduction(log_pair_field(), laml) is None
    # the one verdict is NonZero with no residual, and it prints
    (label, verdict), = check_scalar_condition(log_pair_field(), laml).checks
    assert (label, verdict.max_residual, str(verdict)) == ("scalar reduction", None, "NonZero")


# ------------------------------------------------------------- partial reduction

def test_log_pair_partial_reduction():
    rep = partial_reduction_check(
        log_pair_lagrangian(), log_pair_field(), log_pair_matrix(),
        eta=[parse("q1*q2")], theta=parse("dq1/q1 - log(q1)"),
        reduced_l=parse("theta^2/2 + deta1^2/(2*eta1^2)"),
        particular=[parse("q1*log(q1)"), parse("q2*(1/2 - log(q1))")])
    assert rep.holds
    assert dict(rep.checks)["constraint flow"].max_residual < 1e-5
    assert dict(rep.checks)["constraint flow"].samples == 999    # of 1000 steps


def test_exponential_partial_reduction_consistent_branch():
    rep = partial_reduction_check(
        exponential_lagrangian(), exponential_field(), exponential_matrix(),
        eta=[], theta=parse("(dq1/q1)*exp(-q1) + exp(-q1)"),
        reduced_l=parse("theta^2/2"),
        particular=[parse("-q1")])
    assert rep.holds


def test_exponential_partial_reduction_opposite_branch():
    # the opposite sign satisfies the full equations numerically but does
    # not come from the first-order condition d(reduced L)/d(theta) = 0
    rep = partial_reduction_check(
        exponential_lagrangian(), exponential_field(), exponential_matrix(),
        eta=[], theta=parse("(dq1/q1)*exp(-q1) + exp(-q1)"),
        reduced_l=parse("theta^2/2"),
        particular=[parse("q1")])
    assert not dict(rep.checks)["annihilation"].ok
    assert dict(rep.checks)["constraint flow"].max_residual < 1e-5
    assert not rep.holds


def test_partial_reduction_rejects_non_invariant_theta():
    rep = partial_reduction_check(
        log_pair_lagrangian(), log_pair_field(), log_pair_matrix(),
        eta=[parse("q1*q2")], theta=parse("dq1/q1 - log(q1) + q1"),
        reduced_l=parse("theta^2/2 + deta1^2/(2*eta1^2)"),
        particular=[parse("q1*log(q1)"), parse("q2*(1/2 - log(q1))")])
    bad = [lbl for lbl, v in rep.checks if not v.ok]
    assert "X theta" in bad
    assert not rep.holds


# ------------------------------------------------------------- end to end

def test_extension_chain_two_scale():
    # matrix-invariant Lagrangian -> extended field and matrix make the
    # canonical equations matrix-symmetric, and G = phi . p obeys the
    # deviation law with rate -q1 G
    sys = PhaseSystem(2, TWO_SCALE_H)
    x, g = extend_vector_field(two_scale_field())
    ext = extend_lambda(two_scale_field(), two_scale_matrix())
    assert check_lambda_symmetry(sys, x, ext.matrix).holds
    rep = check_lambda_constant_G(sys, x, ext.matrix, g)
    assert rep.holds
    assert is_identically_zero(rep.rate + parse("q1") * rep.g).ok


def test_extension_chain_log_pair():
    sys = PhaseSystem(2, LOG_PAIR_H)
    x, g = extend_vector_field(log_pair_field())
    ext = extend_lambda(log_pair_field(), log_pair_matrix())
    assert check_lambda_symmetry(sys, x, ext.matrix).holds
    rep = check_lambda_constant_G(sys, x, ext.matrix, g)
    assert rep.holds
    assert is_identically_zero(rep.rate + rep.g).ok
    assert rep.scalar == Const(Fraction(1))


def test_extension_chain_exponential_velocity_dependent():
    sys = PhaseSystem(1, EXPONENTIAL_H)
    x, _g = extend_vector_field(exponential_field(), exponential_matrix(),
                                velocity_map=EXPONENTIAL_VMAP)
    ext = extend_lambda(exponential_field(), exponential_matrix(),
                        candidate_lambda2=[[parse("q1+dq1")]])
    assert check_lambda_symmetry(sys, x, ext.matrix).holds
    rep = check_lambda_constant_S(sys, x, ext.matrix)
    assert rep.holds
    assert simplify(rep.s) == simplify(parse("-q1"))


def test_extension_generating_function_regenerates_the_field():
    sys = PhaseSystem(2, TWO_SCALE_H)
    from lamsym.mechanics import hamiltonian_vector_field
    x, g = extend_vector_field(two_scale_field())
    regenerated = hamiltonian_vector_field(sys, g)
    for a, b in zip(regenerated.components, x.components):
        assert is_identically_zero(a - b).ok


# ------------------------------------------------------------- matrix shape

TWO_SCALE_PHASE = PhaseSystem(2, TWO_SCALE_H)

# each entry point that takes a matrix, with the side and size it needs
SHAPED = [
    ("check_lambda_symmetry", "hamiltonian", 4, lambda lam: check_lambda_symmetry(
        TWO_SCALE_PHASE, extend_vector_field(two_scale_field())[0], lam)),
    ("check_lagrangian_lambda_invariance", "lagrangian", 2,
     lambda lam: check_lagrangian_lambda_invariance(
         two_scale_lagrangian(), two_scale_field(), lam)),
    ("extend_lambda", "lagrangian", 2, lambda lam: extend_lambda(two_scale_field(), lam)),
    ("config_scalar_reduction", "lagrangian", 2,
     lambda lam: config_scalar_reduction(two_scale_field(), lam)),
]


@pytest.mark.parametrize("name, side, size, call", SHAPED, ids=[s[0] for s in SHAPED])
def test_matrix_of_the_wrong_side_or_size_is_rejected(name, side, size, call):
    other = "hamiltonian" if side == "lagrangian" else "lagrangian"
    with pytest.raises(ValueError, match=f"^need a {side}-side {size}x{size} matrix, "
                                         f"got {other} {size}x{size}$"):
        call(LambdaMatrix.zeros(size, other))
    wrong = size + 2
    with pytest.raises(ValueError, match=f"^need a {side}-side {size}x{size} matrix, "
                                         f"got {side} {wrong}x{wrong}$"):
        call(LambdaMatrix.zeros(wrong, side))
