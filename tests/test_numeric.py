import io
import math
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lamsym import numeric
from lamsym.cli import main
from lamsym.expr import Const, EvalDomainError, Var, compile_expr, differentiate, parse
from lamsym.mechanics import PhaseSystem, canonical_equations
from lamsym.numeric import (
    HESSIAN_CONDITION_LIMIT,
    IntegrationError,
    _hessian_condition,
    _solve,
    _solve_errstate,
    compare_with_scalar_ode,
    integrate_euler_lagrange,
    integrate_first_order,
    integrate_hamiltonian,
    monitor,
    trajectory_to_csv,
)
from lamsym.lagrangian import LagrangianSystem, conjugate_momenta
from lamsym.problem import load_problem
from fractions import Fraction
from gen import in_order

GOLDEN_CORPUS = Path(__file__).resolve().parents[1] / "perfbench" / "expected" / "corpus_seed0.json"


def oscillator():
    return PhaseSystem(1, parse("(p1^2+q1^2)/2"))


# ------------------------------------------------------------- hamiltonian

def test_oscillator_full_period_accuracy():
    traj = integrate_hamiltonian(oscillator(), [1.0, 0.0], 0.0, 2 * math.pi, 1e-3)
    t_end = traj.times[-1]
    assert abs(traj.states[-1][0] - math.cos(t_end)) < 1e-9
    assert abs(traj.states[-1][1] + math.sin(t_end)) < 1e-9


def test_constant_hamiltonian_freezes_the_state():
    sys = PhaseSystem(1, Const(Fraction(5)))
    traj = integrate_hamiltonian(sys, [0.3, 0.7], 0.0, 1.0, 1e-2)
    assert np.allclose(traj.states, [0.3, 0.7])


def test_crossed_system_exponential_integral_is_flat():
    sys = PhaseSystem(2, parse("-(q1*p2+q2*p1) + (p1-p2)^2/2"))
    traj = integrate_hamiltonian(sys, [0.4, 0.3, 0.2, 0.1], 0.0, 1.0, 1e-3)
    series = monitor(traj, [parse("(q1+q2)*exp(t)")])[0]
    assert np.max(np.abs(series.values - series.values[0])) < 1e-8


def test_convergence_order_of_the_integrator():
    errs = []
    for k in (6, 7, 8, 9):
        h = 2 * math.pi / 2 ** k
        traj = integrate_hamiltonian(oscillator(), [1.0, 0.0], 0.0, 2 * math.pi, h)
        errs.append(abs(traj.states[-1][0] - 1.0) + abs(traj.states[-1][1]))
    orders = [math.log(errs[i] / errs[i + 1], 2) for i in range(len(errs) - 1)]
    assert min(orders) >= 3.8


def test_grid_is_exact():
    traj = integrate_hamiltonian(oscillator(), [1.0, 0.0], 0.0, 0.01, 1e-3)
    assert np.array_equal(traj.times, traj.t0 + traj.h * np.arange(11))


def test_safety_box_truncates_blowup():
    traj = integrate_first_order([parse("y1^2")], ["y1"], [2.0], 0.0, 5.0, 1e-3)
    assert traj.truncated
    assert "safety box" in traj.reason
    assert len(traj.states) < 5001


def test_domain_error_truncates_with_diagnostic():
    traj = integrate_first_order([parse("log(y1)")], ["y1"], [0.5], 0.0, 5.0, 1e-2)
    assert traj.truncated
    assert "domain error" in traj.reason


# ------------------------------------------------------------- euler-lagrange

def test_free_particle_is_a_straight_line():
    lag = LagrangianSystem(1, parse("dq1^2/2"))
    traj = integrate_euler_lagrange(lag, [0.2], [0.5], 0.0, 1.0, 1e-2)
    assert np.max(np.abs(traj.states[:, 0] - (0.2 + 0.5 * traj.times))) < 1e-12


def test_exponential_lagrangian_matches_hamiltonian_flow():
    lag = LagrangianSystem(1, parse("(dq1/q1 + 1)^2*exp(-2*q1)/2"))
    sys = PhaseSystem(1, parse("q1^2*p1^2*exp(2*q1)/2 - q1*p1"))
    q0, dq0 = 0.5, 0.1
    el = integrate_euler_lagrange(lag, [q0], [dq0], 0.0, 1.0, 1e-3)
    assert not el.truncated
    mom = conjugate_momenta(lag)[0]
    p0 = in_order(mom, {"t": 0.0, "q1": q0, "dq1": dq0})
    ham = integrate_hamiltonian(sys, [q0, p0], 0.0, 1.0, 1e-3)
    assert np.max(np.abs(el.states[:, 0] - ham.states[:, 0])) < 1e-6
    fn = compile_expr(mom, ("t", "q1", "dq1"))
    p_along = np.array([fn(t, *row) for t, row in zip(el.times, el.states)])
    assert np.max(np.abs(p_along - ham.states[:, 1])) < 1e-6


def test_two_dof_lagrangian_momenta_map_onto_hamiltonian_flow():
    lag = LagrangianSystem(
        2, parse("(dq1/q1 - q1)^2/2 + (dq1 - q1*dq2)^2*exp(-2*q2)/2 + q1*exp(-q2)"))
    h = ("q1^2*p1^2/2 + q1^2*p1 + q1*p1*p2 + q1*p2 + p2^2/2"
         " + p2^2*exp(2*q2)/(2*q1^2) - q1*exp(-q2)")
    sys = PhaseSystem(2, parse(h))
    q0, dq0 = [0.8, 0.4], [0.3, 0.2]
    el = integrate_euler_lagrange(lag, q0, dq0, 0.0, 0.5, 1e-3)
    assert not el.truncated
    moms = conjugate_momenta(lag)
    point = {"t": 0.0, "q1": q0[0], "q2": q0[1], "dq1": dq0[0], "dq2": dq0[1]}
    p0 = [in_order(m, point) for m in moms]
    ham = integrate_hamiltonian(sys, q0 + p0, 0.0, 0.5, 1e-3)
    assert np.max(np.abs(el.states[:, :2] - ham.states[:, :2])) < 1e-6


def test_singular_hessian_aborts():
    lag = LagrangianSystem(1, parse("dq1^3/3"))
    with pytest.raises(IntegrationError, match="condition"):
        integrate_euler_lagrange(lag, [0.5], [0.0], 0.0, 0.1, 1e-2)


# ------------------------------------------------------------- monitors

def test_monitor_energy_is_conserved():
    traj = integrate_hamiltonian(oscillator(), [1.0, 0.0], 0.0, 1.0, 1e-3)
    series = monitor(traj, [parse("(p1^2+q1^2)/2")], labels=["H"])[0]
    assert series.label == "H"
    assert np.max(np.abs(series.values - 0.5)) < 1e-9


def test_monitor_decaying_quantity_follows_exponential():
    eps = 0.1
    sys = PhaseSystem(1, parse(f"-q1*p1 + ({eps})*q1*p1 - ({eps})*q1*p1*log(p1)"))
    traj = integrate_hamiltonian(sys, [0.8, 0.9], 0.0, 1.0, 1e-3)
    series = monitor(traj, [parse("2*q1*p1")])[0]
    expected = series.values[0] * np.exp(-eps * series.times)
    assert np.max(np.abs(series.values - expected)) < 1e-6


def test_monitor_truncates_on_domain_error():
    traj = integrate_first_order([parse("-1+0*y1")], ["y1"], [0.5], 0.0, 1.0, 1e-2)
    series = monitor(traj, [parse("log(y1)")])[0]
    assert series.truncated_at is not None
    assert len(series.values) == series.truncated_at


def test_monitor_rejects_unknown_variables():
    traj = integrate_hamiltonian(oscillator(), [1.0, 0.0], 0.0, 0.1, 1e-2)
    with pytest.raises(ValueError, match="unknown"):
        monitor(traj, [parse("q1+w3")])


# ------------------------------------------------------------- scalar law

def test_scalar_law_matches_monitored_decay():
    sys = PhaseSystem(2, parse("-(q1*p2+q2*p1) + (p1-p2)^2/2"))
    traj = integrate_hamiltonian(sys, [0.4, 0.3, 0.2, 0.1], 0.0, 1.0, 1e-3)
    series = monitor(traj, [parse("q1+q2")])[0]
    dev = compare_with_scalar_ode(series, parse("-G"), series.values[0], 1e-3)
    assert dev < 1e-7


def test_zero_law_against_conserved_series():
    traj = integrate_hamiltonian(oscillator(), [1.0, 0.0], 0.0, 1.0, 1e-3)
    series = monitor(traj, [parse("(p1^2+q1^2)/2")])[0]
    dev = compare_with_scalar_ode(series, parse("0*G"), 0.5, 1e-3)
    assert dev < 1e-12


def test_wrong_scalar_law_is_rejected():
    # two-scale system: dG/dt = -(w1^2+w2^2)/2 differs from -G^2/2 off the
    # diagonal w1 = w2; start with w1 != w2
    h = ("q1^2*p1^2*log(q1)/2 + q2^2*p2^2*log(q2)/2"
         " + log(q1/q2)*(q1*p1+q2*p2)")
    sys = PhaseSystem(2, parse(h))
    traj = integrate_hamiltonian(sys, [0.9, 0.6, 0.9, 0.3], 0.0, 1.0, 1e-3)
    series = monitor(traj, [parse("q1*p1+q2*p2")])[0]
    dev = compare_with_scalar_ode(series, parse("-G^2/2"), series.values[0], 1e-3)
    assert dev > 1e-3


def test_grid_mismatch_is_an_error():
    traj = integrate_hamiltonian(oscillator(), [1.0, 0.0], 0.0, 1.0, 1e-3)
    series = monitor(traj, [Var("q1")])[0]
    with pytest.raises(ValueError, match="grid"):
        compare_with_scalar_ode(series, parse("0*G"), 1.0, 2e-3)


# ------------------------------------------------------------- csv export

def test_csv_export_full_precision_round_trip():
    traj = integrate_hamiltonian(oscillator(), [1.0, 0.0], 0.0, 0.01, 1e-3)
    buf = io.StringIO()
    trajectory_to_csv(traj, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "t,q1,p1"
    assert len(lines) == len(traj.states) + 1
    cells = lines[-1].split(",")
    assert float(cells[1]) == traj.states[-1][0]
    assert float(cells[2]) == traj.states[-1][1]


def test_csv_export_with_monitor_columns():
    traj = integrate_hamiltonian(oscillator(), [1.0, 0.0], 0.0, 0.01, 1e-3)
    series = monitor(traj, [parse("(p1^2+q1^2)/2")], labels=["energy"])
    buf = io.StringIO()
    trajectory_to_csv(traj, buf, series)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "t,q1,p1,energy"
    assert float(lines[1].split(",")[3]) == pytest.approx(0.5, abs=1e-12)


# ------------------------------------------------------------- reference integrator
# The componentwise integrator on float64 arrays, one compiled function per
# component, kept as the oracle for the fused evaluator on plain floats: the
# states must agree bit for bit.

def _ref_rk4(rhs, y0, t0, t1, h, safety=1e6):
    steps = max(int(round((t1 - t0) / h)), 1)
    y = np.asarray(y0, dtype=float)
    out = [y.copy()]
    for k in range(steps):
        t = t0 + k * h
        try:
            k1 = rhs(t, y)
            k2 = rhs(t + h / 2, y + (h / 2) * k1)
            k3 = rhs(t + h / 2, y + (h / 2) * k2)
            k4 = rhs(t + h, y + h * k3)
        except EvalDomainError as err:
            return np.array(out), f"domain error at t={t:.6g}: {err}"
        y = y + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        if not np.all(np.isfinite(y)) or np.max(np.abs(y)) > safety:
            return np.array(out), f"state left safety box at t={t + h:.6g}"
        out.append(y.copy())
    return np.array(out), None


def _ref_first_order(exprs, names, y0, t0, t1, h):
    fns = [compile_expr(e, ("t",) + tuple(names)) for e in exprs]
    with np.errstate(all="ignore"):
        return _ref_rk4(lambda t, y: np.array([f(t, *y) for f in fns]), y0, t0, t1, h)


def _ref_euler_lagrange(lag, q0, dq0, t0, t1, h):
    n = lag.n
    argnames = ("t",) + lag.q + lag.dq
    dv = [differentiate(lag.lagrangian, v) for v in lag.dq]
    hess = [[compile_expr(differentiate(dv[a], vb), argnames) for vb in lag.dq]
            for a in range(n)]
    parts = [[compile_expr(differentiate(lag.lagrangian, lag.q[a]), argnames),
              compile_expr(differentiate(dv[a], "t"), argnames)]
             + [compile_expr(differentiate(dv[a], qb), argnames) for qb in lag.q]
             for a in range(n)]

    def rhs(t, y):
        args = (t, *y)
        m = np.array([[hess[a][b](*args) for b in range(n)] for a in range(n)])
        assert np.linalg.cond(m) <= HESSIAN_CONDITION_LIMIT
        b_vec = np.array([p[0](*args) - p[1](*args)
                          - sum(p[2 + j](*args) * y[n + j] for j in range(n))
                          for p in parts])
        return np.concatenate([y[n:], np.linalg.solve(m, b_vec)])

    return _ref_rk4(rhs, list(q0) + list(dq0), t0, t1, h)


def _bundled(fname):
    return load_problem(str(resources.files("lamsym").joinpath("problems", fname)))


@pytest.mark.parametrize("fname", ["example2.json", "example5.json", "example6.json",
                                   "example7.json"])
def test_bundled_flows_are_bitwise_the_componentwise_reference(fname):
    problem = _bundled(fname)
    y0 = list(problem.candidates["initial_conditions"][0])
    n = problem.n
    if problem.kind == "hamiltonian":
        sys = problem.phase_system()
        traj = integrate_hamiltonian(sys, y0, 0.0, 0.2, 1e-3)
        states, reason = _ref_first_order(canonical_equations(sys), sys.u, y0, 0.0, 0.2, 1e-3)
    else:
        lag = problem.lagrangian_system()
        traj = integrate_euler_lagrange(lag, y0[:n], y0[n:], 0.0, 0.2, 1e-3)
        states, reason = _ref_euler_lagrange(lag, y0[:n], y0[n:], 0.0, 0.2, 1e-3)
    assert reason is None and not traj.truncated
    assert len(traj.states) == 201
    assert traj.states.tobytes() == states.tobytes()


@pytest.mark.parametrize("n, text", [
    (3, "(1+q2^2)*dq1^2/2 + dq2^2/2 + exp(-q1)*dq3^2/2 + dq1*dq3/4"
        " - q1*q2*q3 - t*log(q3)"),
    (4, "dq1^2/2 + dq2^2/2 + dq3^2/2 + (1+q1^2)*dq4^2/2 + dq1*dq2/5 + t*dq3*q4"
        " - q1^2*q4^2/2 - q2*q3"),
])
def test_hand_written_flows_are_bitwise_the_componentwise_reference(n, text):
    lag = LagrangianSystem(n, parse(text))
    q0, dq0 = [0.9, 0.6, 0.7, 0.4][:n], [0.2, -0.1, 0.3, 0.1][:n]
    traj = integrate_euler_lagrange(lag, q0, dq0, 0.0, 0.2, 1e-3)
    states, reason = _ref_euler_lagrange(lag, q0, dq0, 0.0, 0.2, 1e-3)
    assert reason is None and len(traj.states) == 201
    assert traj.states.tobytes() == states.tobytes()


@pytest.mark.parametrize("text, y0", [("y1^2", 2.0), ("y1^17", 2.0), ("exp(y1)", 2.0),
                                      ("log(y1)", 0.5)])
def test_blowups_truncate_where_the_reference_does(text, y0):
    # on plain floats x^17 raises OverflowError where a float64 array holds
    # inf; both must end the trajectory at the same step with the same reason
    traj = integrate_first_order([parse(text)], ["y1"], [y0], 0.0, 5.0, 0.3)
    states, reason = _ref_first_order([parse(text)], ["y1"], [y0], 0.0, 5.0, 0.3)
    assert traj.truncated and reason is not None
    assert traj.reason == reason
    assert traj.states.tobytes() == states.tobytes()


def test_monitor_matches_the_reference_on_overflow_and_domain_errors():
    traj = integrate_first_order([parse("1+0*y1")], ["y1"], [1.0], 0.0, 10.0, 1.0)
    names = ("t",) + traj.names
    for text in ("y1^400", "1/y1^400", "-(y1*10^30)^16", "log(5-y1)"):
        fn = compile_expr(parse(text), names)
        want = []
        with np.errstate(all="ignore"):
            series = monitor(traj, [parse(text)])[0]
            for k, row in enumerate(traj.states):
                try:
                    want.append(fn(traj.t0 + k * traj.h, *row))
                except EvalDomainError:
                    break
        assert series.values.tobytes() == np.array(want).tobytes()
        assert series.truncated_at == (len(want) if len(want) < len(traj.states) else None)


def test_corpus_report_bytes_match_the_benchmark_golden(tmp_path):
    out = tmp_path / "corpus.json"
    assert main(["corpus", "--report", "json", "--seed", "0", "--out", str(out)]) == 0
    assert out.read_bytes() == GOLDEN_CORPUS.read_bytes()


@pytest.mark.parametrize("seed", [1, 3])
def test_corpus_report_bytes_match_the_pinned_seeds(tmp_path, seed):
    # seeds whose sampled residuals differ from seed 0's; pinned in tests/reports
    out = tmp_path / "corpus.json"
    assert main(["corpus", "--report", "json", "--seed", str(seed), "--out", str(out)]) == 0
    pinned = Path(__file__).resolve().parent / "reports" / f"corpus_seed{seed}.json"
    assert out.read_bytes() == pinned.read_bytes()


# ------------------------------------------------------------- condition check

@pytest.mark.parametrize("n, text", [
    (1, "dq1^3/3"),                                          # M = 2 dq1 = 0 at rest
    (2, "(dq1+dq2)^2/2"),
    (3, "(dq1+dq2)^2/2 + dq3^2/2"),
    (4, "(dq1+dq2)^2/2 + dq3^2/2 + dq4^2/2"),
    (2, "(dq1+dq2)^2/2 + dq2^2/20000000000000"),             # 1-norm condition 4e13
    (3, "dq1^2/2 + dq2^2/2 + dq3^2/20000000000000"),         # 1-norm condition 1e13
])
def test_singular_or_ill_conditioned_hessian_aborts(n, text):
    lag = LagrangianSystem(n, parse(text))
    with pytest.raises(IntegrationError, match="condition"):
        integrate_euler_lagrange(lag, [0.5] * n, [0.0] * n, 0.0, 0.1, 1e-2)


def test_singular_hessian_outranks_a_domain_error_in_the_right_hand_side():
    # M = 2 dq1 vanishes at rest and dL/dq1 = 3 sqrt(q1)/2 leaves its domain
    lag = LagrangianSystem(1, parse("dq1^3/3 + q1*sqrt(q1)"))
    with pytest.raises(IntegrationError, match="condition"):
        integrate_euler_lagrange(lag, [-1.0], [0.0], 0.0, 0.1, 1e-2)


def test_well_conditioned_three_dof_hessian_integrates():
    lag = LagrangianSystem(3, parse("dq1^2 + dq2^2 + dq3^2 + dq1*dq2/2 + dq2*dq3/2"
                                    " - q1^2/2 - q2*q3"))
    traj = integrate_euler_lagrange(lag, [0.3, 0.2, 0.1], [0.1, 0.0, -0.1], 0.0, 0.5, 1e-2)
    assert not traj.truncated and len(traj.states) == 51


def test_hessian_condition_is_the_exact_one_norm_condition_for_small_n():
    rng = np.random.default_rng(3)
    for n in (1, 2, 3):
        for _ in range(200):
            m = rng.uniform(-2.0, 2.0, (n, n)) + 3.0 * np.eye(n) * rng.choice([-1, 1])
            assert _hessian_condition(m.ravel().tolist(), n) == \
                pytest.approx(np.linalg.cond(m, 1), rel=1e-9)
        assert _hessian_condition([0.0] * (n * n), n) == math.inf
        assert _hessian_condition([math.nan] + [1.0] * (n * n - 1), n) == math.inf
    m = rng.uniform(-2.0, 2.0, (4, 4)) + 3.0 * np.eye(4)
    assert _hessian_condition(m.ravel().tolist(), 4) == np.linalg.cond(m)


@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_hessian_condition_is_infinite_for_a_non_finite_entry_at_larger_n(n, bad):
    m = (3.0 * np.eye(n)).ravel().tolist()
    m[n + 1] = bad
    assert _hessian_condition(m, n) == math.inf


_finite = st.floats(allow_nan=False, allow_infinity=False)


@given(m=_finite.filter(lambda v: v != 0.0), b=_finite)
def test_one_dof_division_is_bitwise_the_lapack_solve(m, b):
    with np.errstate(all="ignore"):
        want = np.linalg.solve(np.array([[m]]), np.array([b]))[0]
    assert np.float64(b / m).tobytes() == want.tobytes()


# ------------------------------------------------------------- stage solve

@st.composite
def _diagonally_dominant_system(draw):
    n = draw(st.integers(2, 5))
    m = draw(st.lists(st.floats(-1.0, 1.0), min_size=n * n, max_size=n * n))
    for i in range(n):
        m[i * n + i] += draw(st.sampled_from([-2.0, 2.0])) * n
    b = draw(st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n))
    return np.array(m).reshape(n, n), np.array(b)


@given(_diagonally_dominant_system())
def test_the_stage_solve_is_bitwise_np_linalg_solve(system):
    m, b = system
    want = np.linalg.solve(m, b)
    with _solve_errstate():
        got = _solve(m, b)
    assert [x.hex() for x in got.tolist()] == [x.hex() for x in want.tolist()]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_a_singular_stage_solve_raises(n):
    with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
        np.linalg.solve(np.ones((n, n)), np.ones(n))
    with _solve_errstate(), pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
        _solve(np.ones((n, n)), np.ones(n))


def _error_state():
    return np.geterr(), np.geterrcall()


def test_the_solve_error_state_is_held_over_the_flow_and_restored(monkeypatch):
    before = _error_state()
    seen = []

    def spy(m, b):
        seen.append(_error_state())
        return _solve(m, b)

    monkeypatch.setattr(numeric, "_solve", spy)
    lag = LagrangianSystem(2, parse("dq1^2/2 + dq2^2/2 + dq1*dq2/4 - q1^2/2 - q2^2/2"))
    integrate_euler_lagrange(lag, [0.1, 0.2], [0.0, 0.1], 0.0, 0.1, 1e-2)
    with _solve_errstate():
        held = _error_state()
    assert held != before
    assert len(seen) == 40 and all(s == held for s in seen)
    assert _error_state() == before


def test_the_error_state_is_restored_when_the_flow_raises(monkeypatch):
    before = _error_state()
    with pytest.raises(IntegrationError, match="condition"):
        integrate_euler_lagrange(LagrangianSystem(2, parse("(dq1+dq2)^2/2")),
                                 [0.5, 0.5], [0.0, 0.0], 0.0, 0.1, 1e-2)
    assert _error_state() == before
    monkeypatch.setattr(numeric, "_solve", lambda m, b: _solve(0.0 * m, b))
    lag = LagrangianSystem(2, parse("dq1^2/2 + dq2^2/2 - q1^2/2"))
    with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
        integrate_euler_lagrange(lag, [0.1, 0.2], [0.0, 0.1], 0.0, 0.1, 1e-2)
    assert _error_state() == before


# ------------------------------------------------------------- csv reference

def _ref_csv(traj, stream, monitors=()):
    header = ["t"] + list(traj.names) + [m.label for m in monitors]
    stream.write(",".join(header) + "\n")
    times = traj.times
    for k in range(len(traj.states)):
        cells = [f"{times[k]:.17g}"] + [f"{v:.17g}" for v in traj.states[k]]
        for m in monitors:
            cells.append(f"{m.values[k]:.17g}" if k < len(m.values) else "")
        stream.write(",".join(cells) + "\n")


def test_csv_bytes_match_the_reference_writer_with_a_truncated_monitor():
    traj = integrate_first_order([parse("-1+0*y1"), parse("y1*y2")], ["y1", "y2"],
                                 [0.5, 0.3], 0.0, 1.0, 1e-2)
    series = monitor(traj, [parse("log(y1)"), parse("y1*y2")], labels=["L", "P"])
    assert series[0].truncated_at is not None and series[1].truncated_at is None
    got, want = io.StringIO(), io.StringIO()
    trajectory_to_csv(traj, got, series)
    _ref_csv(traj, want, series)
    assert got.getvalue() == want.getvalue()


def test_csv_bytes_match_the_reference_writer_with_no_or_full_length_monitors():
    traj = integrate_hamiltonian(PhaseSystem(2, parse("(p1^2+p2^2)/2 + q1^2*q2^2/3")),
                                 [0.4, -0.3, 0.2, 0.1], 0.0, 0.5, 1e-2)
    series = monitor(traj, [parse("(p1^2+p2^2)/2 + q1^2*q2^2/3"), parse("q1/3")],
                     labels=["H", "third"])
    assert all(s.truncated_at is None and len(s.values) == 51 for s in series)
    for monitors in ((), series):
        got, want = io.StringIO(), io.StringIO()
        trajectory_to_csv(traj, got, monitors)
        _ref_csv(traj, want, monitors)
        assert got.getvalue() == want.getvalue()


# ------------------------------------------------------------- generated step

def _coupled_field(d):
    """A nonlinear vector field of d components that uses t."""
    return [parse(f"-y{(i + 1) % d + 1} + y{i + 1}*y{(i + 2) % d + 1}/{i + 3}"
                  f" + sin(t)/{i + 5}") for i in range(d)]


@pytest.mark.parametrize("d", range(1, 9))
def test_the_generated_step_is_bitwise_the_reference_for_every_state_size(d):
    names = [f"y{i + 1}" for i in range(d)]
    y0 = [0.1 * (i + 1) * (-1) ** i for i in range(d)]
    traj = integrate_first_order(_coupled_field(d), names, y0, 0.0, 0.3, 1e-2)
    states, reason = _ref_first_order(_coupled_field(d), names, y0, 0.0, 0.3, 1e-2)
    assert reason is None and not traj.truncated and len(traj.states) == 31
    assert traj.states.tobytes() == states.tobytes()


def test_an_eight_component_hamiltonian_is_bitwise_the_reference():
    # four coupled anharmonic oscillators, the shape of the benchmark's n = 4 system
    sys = PhaseSystem(4, parse(
        "p1^2/2 + p2^2/3 + p3^2/4 + p4^2/5 + p1*p2/9 + p3*p4/11"
        " + q1^2 + 3*q2^2/2 + 2*q3^2 + 5*q4^2/2"
        " + q1^4/8 + q2^4/12 + q3^4/16 + q4^4/20 + q1*q2/7 + q2*q3/13 + q3*q4/17"))
    u0 = [0.3, -0.2, 0.1, 0.4, 0.0, 0.2, -0.1, 0.05]
    traj = integrate_hamiltonian(sys, u0, 0.0, 0.5, 1e-3)
    states, reason = _ref_first_order(canonical_equations(sys), sys.u, u0, 0.0, 0.5, 1e-3)
    assert reason is None and len(traj.states) == 501
    assert traj.states.tobytes() == states.tobytes()


def test_the_scalar_law_comparison_is_bitwise_the_reference_loop():
    traj = integrate_hamiltonian(oscillator(), [1.0, 0.0], 0.0, 0.5, 1e-3)
    series = monitor(traj, [parse("(p1^2+q1^2)/2")])[0]
    gamma = parse("-G/3 + sin(t)*G^2/5")
    states, reason = _ref_first_order([gamma], ["G"], [0.5], 0.0, 0.5, 1e-3)
    assert reason is None
    want = float(np.max(np.abs(states[:, 0] - series.values)))
    assert compare_with_scalar_ode(series, gamma, 0.5, 1e-3) == want


@pytest.mark.parametrize("t0, t1, h", [(0.0, math.inf, 1e-3), (0.0, math.nan, 1e-3),
                                       (-math.inf, 1.0, 1e-3), (math.nan, 1.0, 1e-3),
                                       (0.0, 1.0, math.inf), (0.0, 1.0, math.nan)])
def test_a_non_finite_grid_is_rejected(t0, t1, h):
    with pytest.raises(ValueError, match="finite"):
        integrate_first_order([parse("-y1")], ["y1"], [1.0], t0, t1, h)


def test_cli_integrate_rejects_an_infinite_horizon(capsys):
    path = str(resources.files("lamsym").joinpath("problems", "example2.json"))
    code = main(["integrate", "--problem", path, "--ic", "q1=0.4,q2=0.3,p1=0.2,p2=0.1",
                 "--t1", "inf"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "finite" in err


# ------------------------------------------------------------- svd kernel

@pytest.mark.parametrize("n", [4, 5])
def test_hessian_condition_is_bitwise_the_svd_ratio_at_larger_n(n):
    rng = np.random.default_rng(n)
    for _ in range(200):
        m = rng.uniform(-1.0, 1.0, (n, n)) + n * np.eye(n) * rng.choice([-1, 1], n)
        s = np.linalg.svd(m, compute_uv=False)
        assert np.float64(_hessian_condition(m.ravel().tolist(), n)).tobytes() == \
            (s[0] / s[-1]).tobytes()
    singular = rng.uniform(-1.0, 1.0, (n, n))
    singular[-1] = 0.0
    for m in (singular, np.zeros((n, n))):
        assert _hessian_condition(m.ravel().tolist(), n) == math.inf
    nan = np.eye(n).ravel().tolist()
    nan[1] = math.nan
    assert _hessian_condition(nan, n) == math.inf


def test_an_svd_that_does_not_converge_raises(monkeypatch):
    kernel = numeric._lapack_svd
    # a nan matrix makes the kernel signal non-convergence, as np.linalg.svd reports it
    monkeypatch.setattr(numeric, "_lapack_svd",
                        lambda a, signature: kernel(np.full_like(a, math.nan), signature=signature))
    with pytest.raises(np.linalg.LinAlgError, match="SVD did not converge"):
        np.linalg.svd(np.full((4, 4), math.nan), compute_uv=False)
    with _solve_errstate(), pytest.raises(np.linalg.LinAlgError, match="SVD did not converge"):
        _hessian_condition(np.eye(4).ravel().tolist(), 4)
