"""Acceptance suite: eight worked-example criteria plus property suites and
a determinism criterion, each printing one PASS/FAIL line (run with -s to
see them live)."""

import json
import math
import random
from importlib import resources

import numpy as np
import pytest

from lamsym.cli import main as cli_main
from lamsym.expr import (
    Const,
    EvalDomainError,
    Var,
    add,
    differentiate,
    format_expr,
    free_vars,
    is_identically_zero,
    mul,
    neg,
    parse,
    simplify,
    substitute,
)
from lamsym.lagrangian import (
    check_lagrangian_lambda_invariance,
    check_scalar_condition,
    check_noether_lambda,
    extend_lambda,
    extend_vector_field,
    partial_reduction_check,
    verify_legendre,
)
from lamsym.lambda_symmetry import (
    LambdaMatrix,
    ReductionChart,
    check_lambda_constant_G,
    check_lambda_constant_S,
    check_lambda_symmetry,
    check_separated_G,
    reduced_system,
    scalar_lambda_reduction,
    verify_chart,
)
from lamsym.mechanics import (
    PhaseSystem,
    PhaseVectorField,
    canonical_equations,
    hamiltonian_vector_field,
    lie_bracket,
    poisson_bracket,
    scale_field,
    total_time_derivative,
)
from lamsym.numeric import integrate_hamiltonian, monitor
from lamsym.problem import load_problem
from lamsym.symmetry import (
    CASE_CONSTANT_S,
    CASE_S_INTEGRAL,
    check_first_integral,
    check_point_symmetry,
    classify_symmetry_case,
    compute_S,
    generating_function_test,
)
from lamsym.runner import RunConfig, run_checks

from gen import in_order, random_polynomial, random_tree, well_conditioned

ZERO = Const(0)


def bundled(name: str) -> str:
    with resources.as_file(resources.files("lamsym").joinpath("problems", name)) as p:
        return str(p)


def conclude(num: int, description: str, items: list):
    failed = [label for label, ok in items if not ok]
    status = "PASS" if not failed else "FAIL"
    print(f"\nACCEPTANCE {num}: {status} - {description}"
          + (f" (failed: {', '.join(failed)})" if failed else ""))
    assert not failed, f"criterion {num}: failed {failed}"


# -------------------------------------------------------------- criterion 1

def test_criterion_1_oscillator_suite():
    items = []
    sys1 = PhaseSystem(1, parse("(p1^2+q1^2)/2"))
    x = PhaseVectorField((Var("q1"),), (Var("p1"),))
    s = compute_S(sys1, x)
    items.append(("S=2 proven", is_identically_zero(s - 2).tag == "ProvenZero"))
    items.append(("scaling classifies constant-S",
                  classify_symmetry_case(sys1, x).tag == CASE_CONSTANT_S))

    sys2 = PhaseSystem(2, parse("(p1^2+q1^2)/2 + (p2^2+q2^2)/2"))
    x2 = PhaseVectorField((Var("q1"), neg(Var("q2"))), (Var("p1"), neg(Var("p2"))))
    items.append(("opposite scaling S=0", compute_S(sys2, x2) == ZERO))
    rep = generating_function_test(sys2, x2)
    items.append(("closedness fails", not rep.closed))
    items.append(("classifies constant-S",
                  classify_symmetry_case(sys2, x2).tag == CASE_CONSTANT_S))

    x1 = scale_field(x, parse("2*(p1^2+q1^2)/2"))
    s1 = compute_S(sys1, x1)
    items.append(("S1=8H symbolically",
                  simplify(s1 - parse("8*(p1^2+q1^2)/2")) == ZERO))
    items.append(("S1 conserved", check_first_integral(sys1, s1).ok))
    c = classify_symmetry_case(sys1, x1)
    items.append(("classifies divergence-integral", c.tag == CASE_S_INTEGRAL))
    conclude(1, "oscillator scaling suite", items)


# -------------------------------------------------------------- criterion 2

def test_criterion_2_crossed_momentum_shift():
    problem = load_problem(bundled("example2.json"))
    sys = problem.phase_system()
    x = problem.vector_field()
    lam = problem.lam
    items = []
    items.append(("perturbed symmetry", check_lambda_symmetry(sys, x, lam).holds))
    rep = check_lambda_constant_G(sys, x, lam, problem.candidates["G"])
    items.append(("deviation law", rep.holds))
    items.append(("dG/dt=-G", is_identically_zero(rep.rate + rep.g).ok))

    rs = reduced_system(sys, x, lam, problem.chart)
    items.append(("reduction certificates", rs.holds))
    expected = (parse("w1+2*w2"), parse("-w2"), parse("-w3"))
    for j, want in enumerate(expected):
        items.append((f"w{j+1} equation",
                      is_identically_zero(rs.w_rhs[j] - want).ok))
    items.append(("z equation", is_identically_zero(rs.z_rhs - Var("z")).ok))

    items.append(("time-dependent integral",
                  check_first_integral(sys, parse("(q1+q2)*exp(t)")).ok))
    traj = integrate_hamiltonian(sys, [0.4, 0.3, 0.2, 0.1], 0.0, 1.0, 1e-3)
    series = monitor(traj, [parse("(q1+q2)*exp(t)")])[0]
    drift = float(np.max(np.abs(series.values - series.values[0])))
    items.append(("monitored drift < 1e-6", drift < 1e-6))
    conclude(2, "crossed momentum-shift suite", items)


# -------------------------------------------------------------- criterion 3

def test_criterion_3_log_scaling():
    problem = load_problem(bundled("example3.json"))
    sys = problem.phase_system()
    x = problem.vector_field()
    lam = problem.lam
    items = []
    items.append(("perturbed symmetry", check_lambda_symmetry(sys, x, lam).holds))
    items.append(("no scalar reduction",
                  scalar_lambda_reduction(sys, x, lam) is None))
    g = problem.candidates["G"]
    rate = total_time_derivative(sys, g)
    items.append(("dG/dt + (w1^2+w2^2)/2 = 0",
                  is_identically_zero(rate + parse("((q1*p1)^2+(q2*p2)^2)/2")).ok))

    rs = reduced_system(sys, x, lam, problem.chart)
    items.append(("certificates hold", rs.holds))
    items.append(("M1 = 0", is_identically_zero(rs.m[0]).ok and rs.z_free[0]))
    items.append(("M2 = 0", is_identically_zero(rs.m[1]).ok and rs.z_free[1]))
    items.append(("M3 != 0", not is_identically_zero(rs.m[2]).ok and not rs.z_free[2]))
    conclude(3, "log-scaling suite", items)


# -------------------------------------------------------------- criterion 4

def test_criterion_4_perturbed_rotation():
    problem = load_problem(bundled("example4.json"))
    sys = problem.phase_system()
    x = problem.vector_field()
    lam = problem.lam
    items = []
    items.append(("perturbed symmetry", check_lambda_symmetry(sys, x, lam).holds))
    rep = check_lambda_constant_S(sys, x, lam)
    items.append(("S deviation law", rep.holds))
    items.append(("S = 2 q p", simplify(rep.s - parse("2*q1*p1")) == ZERO))
    items.append(("dS/dt = -2 eps q p",
                  is_identically_zero(rep.rate + parse("2*(1/10)*q1*p1")).ok))
    items.append(("divergence matches",
                  is_identically_zero(rep.divergence - parse("2*(1/10)*q1*p1")).ok))

    # unperturbed limit: exact symmetry with conserved S
    sys0 = PhaseSystem(1, parse("-q1*p1"))
    items.append(("eps=0 exact symmetry", check_point_symmetry(sys0, x).holds))
    items.append(("eps=0 S conserved",
                  check_first_integral(sys0, parse("2*q1*p1")).ok))
    traj = integrate_hamiltonian(sys0, [0.8, 0.9], 0.0, 1.0, 1e-3)
    series = monitor(traj, [parse("2*q1*p1")])[0]
    drift = float(np.max(np.abs(series.values - series.values[0])))
    items.append(("eps=0 numeric drift < 1e-8", drift < 1e-8))
    conclude(4, "perturbed rotation suite", items)


# -------------------------------------------------------------- criterion 5

def test_criterion_5_two_scale_chain():
    problem = load_problem(bundled("example5.json"))
    lag = problem.lagrangian_system()
    xl = problem.config_field()
    laml = problem.lam
    items = []
    items.append(("perturbed invariance",
                  check_lagrangian_lambda_invariance(lag, xl, laml).ok))

    x, g = extend_vector_field(xl)
    displayed_x = (parse("q1"), parse("1"), parse("-p1"), parse("0"))
    for a, (got, want) in enumerate(zip(x.components, displayed_x)):
        items.append((f"X component {a+1}", is_identically_zero(got - want).ok))
    ext = extend_lambda(xl, laml)
    displayed_lam = (
        ("q1", "0", "0", "0"), ("0", "q1", "0", "0"),
        ("-p1", "-p2", "q1", "0"), ("0", "0", "0", "0"))
    entry_ok = all(
        is_identically_zero(e - parse(w)).ok
        for row, wrow in zip(ext.matrix.entries, displayed_lam)
        for e, w in zip(row, wrow))
    items.append(("matrix entrywise", entry_ok))

    h = problem.candidates["H_for_legendre"]
    items.append(("legendre data",
                  verify_legendre(lag, problem.candidates["velocity_map"], h).holds))
    sys = PhaseSystem(2, h)
    f = canonical_equations(sys)
    displayed_f = (
        "q1^2*p1+q1^2+q1*p2",
        "p2*exp(2*q2)/q1^2 + q1*p1 + q1 + p2",
        "-q1*p1^2 - 2*q1*p1 + p2^2*exp(2*q2)/q1^3 - p1*p2 - p2 + exp(-q2)",
        "-p2^2*exp(2*q2)/q1^2 - q1*exp(-q2)")
    items.append(("canonical equations match displayed",
                  all(is_identically_zero(got - parse(want)).ok
                      for got, want in zip(f, displayed_f))))

    rep = check_lambda_constant_G(sys, x, ext.matrix, g)
    items.append(("deviation law", rep.holds))
    items.append(("dG/dt = -q1 G", is_identically_zero(rep.rate + parse("q1") * rep.g).ok))

    noe = check_noether_lambda(lag, xl, laml,
                               initial_conditions=problem.candidates["initial_conditions"])
    items.append(("on-shell rate residual < 1e-5",
                  len(noe.residuals) == 3 and noe.max_residual < 1e-5))
    conclude(5, "two-scale chain suite", items)


# -------------------------------------------------------------- criterion 6

def test_criterion_6_log_pair_full_pipeline():
    problem = load_problem(bundled("example6.json"))
    lag = problem.lagrangian_system()
    xl = problem.config_field()
    laml = problem.lam
    items = []
    items.append(("perturbed invariance",
                  check_lagrangian_lambda_invariance(lag, xl, laml).ok))
    lala = check_scalar_condition(xl, laml)
    items.append(("scalar c=1", lala.scalar == Const(1) and lala.is_constant))
    items.append(("extended matrix scales the field", lala.holds))

    h = problem.candidates["H_for_legendre"]
    items.append(("legendre against printed H",
                  verify_legendre(lag, problem.candidates["velocity_map"], h).holds))

    sys = PhaseSystem(2, h)
    x, g = extend_vector_field(xl)
    ext = extend_lambda(xl, laml)
    items.append(("chart verification (bundled)",
                  verify_chart(sys, x, problem.chart).holds))

    # chart carrying the three basic invariants; the displayed reduced system
    display_chart = ReductionChart(
        w=(parse("q1*q2"), parse("q1*p1"), parse("q2*p2")),
        z=parse("log(q1)"),
        inverse={"q1": parse("exp(z)"), "q2": parse("w1*exp(-z)"),
                 "p1": parse("w2*exp(-z)"), "p2": parse("w3*exp(z)/w1")})
    items.append(("chart verification (displayed)",
                  verify_chart(sys, x, display_chart).holds))
    rs = reduced_system(sys, x, ext.matrix, display_chart)
    items.append(("certificates hold", rs.holds))
    items.append(("dw1/dt = w1 w3", is_identically_zero(rs.w_rhs[0] - parse("w1*w3")).ok))
    items.append(("dw2/dt = w3 - w2", is_identically_zero(rs.w_rhs[1] - parse("w3-w2")).ok))
    g_rate = add(rs.w_rhs[1], neg(rs.w_rhs[2]))  # G = w2 - w3
    items.append(("dG/dt = -G", is_identically_zero(g_rate + parse("w2-w3")).ok))
    items.append(("dz/dt = z + w2 - w3",
                  is_identically_zero(rs.z_rhs - parse("z+w2-w3")).ok))

    # the bundled chart has G itself as third coordinate: separated equation
    sep = check_separated_G(sys, x, ext.matrix, problem.chart, g_index=2)
    items.append(("separated dG/dt = -G",
                  sep.holds and is_identically_zero(sep.gamma + Var("G")).ok))

    lz = partial_reduction_check(
        lag, xl, laml, eta=problem.candidates["eta"],
        theta=problem.candidates["theta"],
        reduced_l=problem.candidates["reduced_L"],
        particular=problem.candidates["particular_solution"])
    items.append(("partial reduction accepted", lz.holds))
    items.append(("constraint flow satisfies full equations to 1e-5",
                  lz.el_residual <= 1e-5))
    conclude(6, "log-pair full pipeline", items)


# -------------------------------------------------------------- criterion 7

def test_criterion_7_velocity_dependent_matrix():
    problem = load_problem(bundled("example7.json"))
    lag = problem.lagrangian_system()
    xl = problem.config_field()
    laml = problem.lam
    items = []
    items.append(("perturbed invariance",
                  check_lagrangian_lambda_invariance(lag, xl, laml).ok))
    x, g = extend_vector_field(xl, laml, problem.candidates["velocity_map"])
    items.append(("no generating function", g is None))
    items.append(("psi = -q p - p",
                  is_identically_zero(x.psi[0] - parse("-q1*p1-p1")).ok))

    h = problem.candidates["H_for_legendre"]
    sys = PhaseSystem(1, h)
    rep = generating_function_test(sys, x)
    items.append(("closedness fails", not rep.closed))

    ext = extend_lambda(xl, laml,
                        candidate_lambda2=problem.candidates["lambda2_candidate"])
    items.append(("extension constraint verified", ext.holds))
    items.append(("perturbed symmetry", check_lambda_symmetry(sys, x, ext.matrix).holds))
    dts = check_lambda_constant_S(sys, x, ext.matrix)
    items.append(("S deviation law with S=-q",
                  dts.holds and simplify(dts.s - parse("-q1")) == ZERO))

    # reduced equations in the frame w = q p exp(q), z = q
    inv = {"q1": Var("z"), "p1": parse("w*exp(-z)/z")}
    w_rate = simplify(substitute(total_time_derivative(sys, parse("q1*p1*exp(q1)")), inv))
    z_rate = simplify(substitute(total_time_derivative(sys, Var("q1")), inv))
    items.append(("dw/dt = -z w", is_identically_zero(w_rate + parse("z*w")).ok))
    items.append(("dz/dt = -z + z w exp(z)",
                  is_identically_zero(z_rate - parse("-z + z*w*exp(z)")).ok))

    # both sign branches of the first-order reduction
    branch_reports = {}
    for label, rhs in (("dq=-q", "-q1"), ("dq=+q", "q1")):
        branch_reports[label] = partial_reduction_check(
            lag, xl, laml, eta=[], theta=problem.candidates["theta"],
            reduced_l=problem.candidates["reduced_L"], particular=[parse(rhs)])
    minus, plus = branch_reports["dq=-q"], branch_reports["dq=+q"]
    items.append(("dq=-q branch fully consistent", minus.holds))
    items.append(("dq=+q branch rejected by d(reduced L)/d(theta)=0",
                  not dict(plus.checks)["annihilation"].ok))
    for label, rep_b in branch_reports.items():
        satisfied = "satisfies" if rep_b.el_residual <= rep_b.tol else "violates"
        print(f"  branch {label}: {satisfied} the full equations "
              f"(residual {rep_b.el_residual:.3e}); "
              f"first-order condition {'holds' if dict(rep_b.checks)['annihilation'].ok else 'fails'}")
    conclude(7, "velocity-dependent matrix suite", items)


# -------------------------------------------------------------- criterion 8

def test_criterion_8_property_suites():
    items = []

    # bracket axioms on 50 seeded random polynomial triples
    sys = PhaseSystem(2, parse("q1*p1+q2*p2"))
    rng = random.Random(88)
    ok = True
    for _ in range(50):
        f = random_polynomial(rng, sys.u)
        g = random_polynomial(rng, sys.u)
        h = random_polynomial(rng, sys.u)
        pb = lambda a, b: poisson_bracket(sys, a, b)
        ok &= is_identically_zero(add(pb(f, g), pb(g, f))).ok
        ok &= is_identically_zero(
            add(pb(mul(f, g), h), neg(mul(f, pb(g, h))), neg(mul(g, pb(f, h))))).ok
        ok &= is_identically_zero(
            add(pb(f, pb(g, h)), pb(g, pb(h, f)), pb(h, pb(f, g)))).ok
    items.append(("bracket axioms on 50 triples", ok))

    # derivative vs central finite differences on 200 seeded expressions
    rng = random.Random(4242)
    checked = 0
    ok = True
    while checked < 200:
        e = random_tree(rng, 4, ("q", "p", "w"))
        names = sorted(free_vars(e))
        if not names:
            continue
        v = rng.choice(names)
        d = differentiate(e, v)
        point = {n: rng.uniform(0.3, 1.1) for n in names}
        if not (well_conditioned(e, point, 1e4) and well_conditioned(d, point, 1e4)):
            continue
        step = 1e-5
        try:
            up = in_order(e, {**point, v: point[v] + step})
            dn = in_order(e, {**point, v: point[v] - step})
            exact = in_order(d, point)
        except EvalDomainError:
            continue
        fd = (up - dn) / (2 * step)
        if abs(fd - exact) > 1e-5 * (1 + abs(exact)):
            ok = False
            break
        checked += 1
    items.append(("derivative vs finite differences on 200 expressions", ok))

    # parser round trip on 1000 seeded trees
    rng = random.Random(99)
    ok = True
    for _ in range(1000):
        e = random_tree(rng, 4, ("q1", "p1", "w1", "t"))
        if parse(format_expr(e)) != simplify(e):
            ok = False
            break
    items.append(("round trip on 1000 trees", ok))

    # integrator convergence order on the oscillator
    osc = PhaseSystem(1, parse("(p1^2+q1^2)/2"))
    errs = []
    for k in (6, 7, 8, 9):
        h = 2 * math.pi / 2 ** k
        traj = integrate_hamiltonian(osc, [1.0, 0.0], 0.0, 2 * math.pi, h)
        errs.append(abs(traj.states[-1][0] - 1.0) + abs(traj.states[-1][1]))
    orders = [math.log(errs[i] / errs[i + 1], 2) for i in range(len(errs) - 1)]
    items.append(("convergence order >= 3.8", min(orders) >= 3.8))

    # scaled-field identities on the oscillator with a generating function
    g = parse("q1*sin(t) + p1*cos(t)")
    x = hamiltonian_vector_field(osc, g)
    k = osc.hamiltonian
    x1 = scale_field(x, k)
    s1 = compute_S(osc, x1)
    items.append(("S1 equals the bracket of the factors",
                  is_identically_zero(s1 - poisson_bracket(osc, k, g)).ok))
    y1 = hamiltonian_vector_field(osc, s1)
    yb = lie_bracket(osc, x, hamiltonian_vector_field(osc, k))
    items.append(("field of S1 equals the commutator",
                  all(is_identically_zero(a - b).ok
                      for a, b in zip(y1.components, yb.components))))
    conclude(8, "property suites", items)


# -------------------------------------------------------------- criterion 9

def test_criterion_9_determinism(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    code_a = cli_main(["corpus", "--seed", "7", "--report", "json", "--out", str(a)])
    code_b = cli_main(["corpus", "--seed", "7", "--report", "json", "--out", str(b)])
    items = [
        ("both runs exit 0", code_a == 0 and code_b == 0),
        ("byte-identical output", a.read_bytes() == b.read_bytes()),
    ]
    conclude(9, "corpus determinism", items)
