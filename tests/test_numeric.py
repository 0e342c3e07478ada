import gc
import hashlib
import io
import json
import math
import os
import re
import struct
import subprocess
import sys
import tokenize
import weakref
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lamsym import expr, lagrangian as lagmod, numeric, runner
from lamsym.cli import main
from lamsym.expr import (Const, EvalDomainError, MINUS_ONE, Product, Sum, Var, compile_expr,
                         differentiate, parse)
from lamsym.mechanics import PhaseSystem, canonical_equations
from lamsym.numeric import (
    HESSIAN_CONDITION_LIMIT,
    IntegrationError,
    _hessian_condition,
    _solve,
    _solve_errstate,
    central_residual,
    compare_with_scalar_ode,
    integrate_euler_lagrange,
    integrate_first_order,
    integrate_hamiltonian,
    monitor,
    trajectory_to_csv,
    values_along,
)
from lamsym.lagrangian import LagrangianSystem, conjugate_momenta
from lamsym.problem import load_problem
from lamsym.runner import run_checks
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
    expected = series.values[0] * np.exp(-eps * traj.times)
    assert np.max(np.abs(series.values - expected)) < 1e-6


def test_monitor_truncates_on_domain_error():
    traj = integrate_first_order([parse("-1+0*y1")], ["y1"], [0.5], 0.0, 1.0, 1e-2)
    series = monitor(traj, [parse("log(y1)")])[0]
    assert series.truncated_at is not None
    assert len(series.values) == series.truncated_at


def test_monitor_rejects_unknown_variables():
    traj = integrate_hamiltonian(oscillator(), [1.0, 0.0], 0.0, 0.1, 1e-2)
    with pytest.raises(ValueError, match="w3"):
        monitor(traj, [parse("q1+w3")])


# ------------------------------------------------------------- scalar law

def test_scalar_law_matches_monitored_decay():
    sys = PhaseSystem(2, parse("-(q1*p2+q2*p1) + (p1-p2)^2/2"))
    traj = integrate_hamiltonian(sys, [0.4, 0.3, 0.2, 0.1], 0.0, 1.0, 1e-3)
    series = monitor(traj, [parse("q1+q2")])[0]
    dev = compare_with_scalar_ode(series, parse("-G"), series.values[0])
    assert dev < 1e-7


def test_zero_law_against_conserved_series():
    traj = integrate_hamiltonian(oscillator(), [1.0, 0.0], 0.0, 1.0, 1e-3)
    series = monitor(traj, [parse("(p1^2+q1^2)/2")])[0]
    dev = compare_with_scalar_ode(series, parse("0*G"), 0.5)
    assert dev < 1e-12


def test_wrong_scalar_law_is_rejected():
    # two-scale system: dG/dt = -(w1^2+w2^2)/2 differs from -G^2/2 off the
    # diagonal w1 = w2; start with w1 != w2
    h = ("q1^2*p1^2*log(q1)/2 + q2^2*p2^2*log(q2)/2"
         " + log(q1/q2)*(q1*p1+q2*p2)")
    sys = PhaseSystem(2, parse(h))
    traj = integrate_hamiltonian(sys, [0.9, 0.6, 0.9, 0.3], 0.0, 1.0, 1e-3)
    series = monitor(traj, [parse("q1*p1+q2*p2")])[0]
    dev = compare_with_scalar_ode(series, parse("-G^2/2"), series.values[0])
    assert dev > 1e-3


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
        except OverflowError:   # math.exp, where a float64 array gives inf
            return np.array(out), f"state left safety box at t={t + h:.6g}"
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


@pytest.fixture
def fresh_keeper(monkeypatch):
    """An empty keeper of generated code for the test, so that its code is
    generated afresh whatever earlier tests kept."""
    monkeypatch.setattr(expr, "_GENERATED", weakref.WeakKeyDictionary())


@pytest.fixture
def builds(monkeypatch, fresh_keeper):
    """The names of every `expr._Fuser` built in the test."""
    built = []

    class Counting(expr._Fuser):
        def __init__(self, exprs, names):
            built.append(tuple(names))
            super().__init__(exprs, names)

    monkeypatch.setattr(expr, "_Fuser", Counting)
    return built


def _bundled_flow(fname, t1=0.2):
    problem = _bundled(fname)
    y0 = list(problem.candidates["initial_conditions"][0])
    n = problem.n
    if problem.kind == "hamiltonian":
        return integrate_hamiltonian(problem.phase_system(), y0, 0.0, t1, 1e-3)
    return integrate_euler_lagrange(problem.lagrangian_system(), y0[:n], y0[n:], 0.0, t1, 1e-3)


@pytest.mark.parametrize("fname", ["example2.json", "example5.json", "example6.json",
                                   "example7.json"])
def test_bundled_flows_are_bitwise_the_componentwise_reference(fname):
    problem = _bundled(fname)
    y0 = list(problem.candidates["initial_conditions"][0])
    n = problem.n
    traj = _bundled_flow(fname)
    if problem.kind == "hamiltonian":
        sys = problem.phase_system()
        states, reason = _ref_first_order(canonical_equations(sys), sys.u, y0, 0.0, 0.2, 1e-3)
    else:
        lag = problem.lagrangian_system()
        states, reason = _ref_euler_lagrange(lag, y0[:n], y0[n:], 0.0, 0.2, 1e-3)
    assert reason is None and not traj.truncated
    assert len(traj.states) == 201
    assert traj.states.tobytes() == states.tobytes()


_HAND_WRITTEN = {
    3: "(1+q2^2)*dq1^2/2 + dq2^2/2 + exp(-q1)*dq3^2/2 + dq1*dq3/4 - q1*q2*q3 - t*log(q3)",
    4: "dq1^2/2 + dq2^2/2 + dq3^2/2 + (1+q1^2)*dq4^2/2 + dq1*dq2/5 + t*dq3*q4"
       " - q1^2*q4^2/2 - q2*q3",
}


# M_ii = 1 and M_ij = 1/2: not diagonally dominant, so no stage of it is
# certified, yet kappa_2 = 5 (eigenvalues 5/2 and 1/2), so none aborts
_COUPLED_4 = ("dq1^2/2+dq2^2/2+dq3^2/2+dq4^2/2"
              " + (dq1*dq2+dq1*dq3+dq1*dq4+dq2*dq3+dq2*dq4+dq3*dq4)/2")


def _hand_written_flow(n, text=None):
    lag = LagrangianSystem(n, parse(text or _HAND_WRITTEN[n]))
    q0, dq0 = [0.9, 0.6, 0.7, 0.4][:n], [0.2, -0.1, 0.3, 0.1][:n]
    return lag, q0, dq0, integrate_euler_lagrange(lag, q0, dq0, 0.0, 0.2, 1e-3)


@pytest.mark.parametrize("n, text", _HAND_WRITTEN.items())
def test_hand_written_flows_are_bitwise_the_componentwise_reference(n, text):
    lag, q0, dq0, traj = _hand_written_flow(n)
    states, reason = _ref_euler_lagrange(lag, q0, dq0, 0.0, 0.2, 1e-3)
    assert reason is None and len(traj.states) == 201
    assert traj.states.tobytes() == states.tobytes()


# sha256 of traj.states.tobytes().  The componentwise reference compiles
# through compile_expr as well, so a compiler fault could move both sides of
# the bitwise tests above; these digests pin the states without it.
_STATES_SHA256 = {
    "example2.json": "77ecfd68e5da933bb9e114accc1431a920e062979a38d4fe5223737cf9b7f8a4",
    "example5.json": "bb64281740031907e74eeadb584998789dc12e40903f47d05f81234b67db9f16",
    "example6.json": "cc8be34328f376fe461fbc93fb88cf2217ce3aecc7b473be796d76eff2db284b",
    "example7.json": "3feabeea6f05f0799458b0a832dd9db7773969dca455c8c683d693878e04ea33",
    3: "04695b78314a06360ac68da834e86332837b49f86ee3406e02e6bb2da98ce339",
    4: "10ce35e82c0c07e5de9b1ed5568bda049d5e99c4e227110c9bd39e06142a7528",
    "coupled4": "3fcaa864ee1879036510f643e3c5b64db83f3e6ab3f759356335c9a1f7c5a692",
}


@pytest.mark.parametrize("flow", _STATES_SHA256)
def test_flows_keep_their_recorded_bits(flow):
    if flow == "coupled4":
        traj = _hand_written_flow(4, _COUPLED_4)[3]
    else:
        traj = _hand_written_flow(flow)[3] if flow in _HAND_WRITTEN else _bundled_flow(flow)
    assert hashlib.sha256(traj.states.tobytes()).hexdigest() == _STATES_SHA256[flow]


def test_only_stages_the_certificate_cannot_decide_call_the_svd(monkeypatch):
    calls = []
    kernel = numeric._lapack_svd

    def counting(a, signature):
        calls.append(a.shape)
        return kernel(a, signature=signature)

    monkeypatch.setattr(numeric, "_lapack_svd", counting)
    traj = _hand_written_flow(4)[3]
    assert len(traj.states) == 201 and calls == []
    lag, q0, dq0, traj = _hand_written_flow(4, _COUPLED_4)
    assert len(traj.states) == 201 and calls == [(4, 4)] * (4 * 200)
    states, reason = _ref_euler_lagrange(lag, q0, dq0, 0.0, 0.2, 1e-3)
    assert reason is None and traj.states.tobytes() == states.tobytes()


# shaped like perfbench's generated n = 4 Lagrangian: kinetic terms
# m*(1+a*q^2)*dq^2/2 and a quartic potential
_QUARTIC_4 = ("(5/4)*(1+(1/2)*q1^2)*dq1^2/2 + (1+(1/4)*q2^2)*dq2^2/2"
              " + (3/2)*(1+(3/4)*q3^2)*dq3^2/2 + 2*(1+(1/2)*q4^2)*dq4^2/2 + (1/8)*dq1*dq2"
              " - (q1^2/2 + (1/5)*q1^4/4 + (3/2)*q2^2/2 + (1/10)*q2^4/4 + q3^2/2"
              " + (3/10)*q3^4/4 + 2*q4^2/2 + (1/5)*q4^4/4 + (-1/16)*q1*q4)")


def test_euler_lagrange_stages_of_example6_call_no_guarded_power(monkeypatch, builds):
    # every power in the derivative trees of example 6 and of _QUARTIC_4 has
    # an exponent that is a whole number 0..16, a constant or one that folds
    # from constants (q^(4+-1)), so none is guarded; one that folds to 1
    # leaves the base itself.  The keeper is empty, so the stages run here
    # are generated under the counting _pow, not kept from an earlier test
    calls = []

    def counting(a, b):
        calls.append(b)
        return expr._guard_pow(a, b)

    monkeypatch.setitem(expr._COMPILE_ENV, "_pow", counting)
    compile_expr(parse("x^y"), ("x", "y"))(2.0, 0.5)
    assert calls == [0.5]
    calls.clear()
    traj = _bundled_flow("example6.json", t1=0.01)
    assert len(traj.states) == 11 and calls == []
    assert builds == [("x", "y"), ("t", "q1", "q2", "dq1", "dq2")]
    lag = LagrangianSystem(4, parse(_QUARTIC_4))
    fuser = expr._Fuser(numeric._euler_lagrange_system(lag), ("t",) + lag.q + lag.dq)
    source = "\n".join(fuser.emit(fuser.roots) + fuser.lines)
    assert "_pow(" not in source and not re.search(r"\(_v\d+\+0\.0\)", source)
    lag, q0, dq0, traj = _hand_written_flow(4, _QUARTIC_4)
    assert len(traj.states) == 201 and calls == []
    assert builds[2:] == [("t",) + lag.q + lag.dq] * 2    # the fuser above, then the stage
    states, reason = _ref_euler_lagrange(lag, q0, dq0, 0.0, 0.2, 1e-3)
    assert reason is None and traj.states.tobytes() == states.tobytes()


def test_a_stage_binds_no_copy_of_a_lone_operand():
    # the derivatives of (dq1+dq2)^2/2 hold sums and products that fold down
    # to one operand (x + -0.0, x*1.0); the stage reads that operand where
    # it used to bind a copy of it, _t4=(_t1) and _t5=(_v1); and it reads 1.0
    # for (dq1+dq2)**0, whose base cannot raise, where it used to bind
    # _t1=((_v3+_v4))**0 and the sums over _t1 that now fold; and it binds
    # _t1=(1.0+_v1) once, where two nodes that fold to it bound it twice
    text = "(dq1+dq2)^2/2 + dq2^2/2 + 1/q1 + q1*dq1*dq2"
    lag = LagrangianSystem(2, parse(text))
    fuser = expr._Fuser(numeric._euler_lagrange_system(lag), ("t",) + lag.q + lag.dq)
    fuser.emit(fuser.roots)
    assert len(fuser.lines) == 4
    sources = [line.split("=", 1)[1] for line in fuser.lines]
    assert len(set(sources)) == len(sources)
    assert not [line for line in fuser.lines if "**0" in line]
    assert not [line for line in fuser.lines if re.fullmatch(r"_t\d+=\(_[tv]\d+\)", line)]
    lag, q0, dq0, traj = _hand_written_flow(2, text)
    states, reason = _ref_euler_lagrange(lag, q0, dq0, 0.0, 0.2, 1e-3)
    assert reason is None and traj.states.tobytes() == states.tobytes()


@pytest.mark.parametrize("fname", ["example5.json", "example6.json", "example7.json"])
def test_a_stage_computes_each_source_once(fname):
    # a node is numbered by its type, function name and operands' source, so
    # distinct nodes whose operands fold alike share one local: example 5's
    # stage computed (0.0+(_t23*_t20)) for both m1 and m2
    lag = _bundled(fname).lagrangian_system()
    fuser = expr._Fuser(numeric._euler_lagrange_system(lag), ("t",) + lag.q + lag.dq)
    fuser.emit(fuser.roots)
    sources = [line.split("=", 1)[1] for line in fuser.lines]
    assert sources and len(set(sources)) == len(sources)
    # by source text: the floats by repr, as 0.0 == -0.0
    numbered = [(type(e), getattr(e, "name", None), tuple(map(repr, kids)))
                for e, kids in fuser.nodes]
    assert len(set(numbered)) == len(numbered)


@pytest.mark.parametrize("fname", ["example5.json", "example6.json", "example7.json"])
def test_a_stage_reads_one_for_a_zeroth_power_of_a_bound_subtree(fname, monkeypatch):
    # these stages held _t3=(_t2)**0 with _t2 bound on the line before: the
    # base's own line raises its errors and b**0 is 1.0 for every float b, so
    # the stage reads 1.0; test_flows_keep_their_recorded_bits pins the flows
    sources = []
    define = expr._define
    monkeypatch.setattr(expr, "_define",
                        lambda lines, *a, **kw: sources.append(lines) or define(lines, *a, **kw))
    numeric._euler_lagrange_stage(_bundled(fname).lagrangian_system())
    assert len(sources) == 1
    source = "\n".join(sources[0])
    assert "**2" in source and not re.search(r"\*\*0\b", source)


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


# dy1/dt with y1 = 0 at t = 0 and h = 1, and the reason's start: step k
# first fails at k = kf, at its last stage y1 = k + 1, where log(kf - k) leaves
# its domain, the power's base reaches 6 (6^400 overflows, 5.85^400 does not)
# and y1 = (k + 1) * 1e6 / (kf + 1/2) leaves the safety box
_FAILING_FIELDS = {
    "log": ("1 + 0*log({kf} + 1 - y1)", "domain error at t="),
    "power": ("1 + 0*(y1*6/({kf} + 1))^400", "state left safety box at t="),
    "box": ("2000000/(2*{kf} + 1) + 0*y1", "state left safety box at t="),
}


@pytest.mark.parametrize("chunk", [1, 4, numeric.RK4_CHUNK_STEPS])
@pytest.mark.parametrize("kind", _FAILING_FIELDS)
def test_chunked_flows_truncate_where_the_reference_does(monkeypatch, chunk, kind):
    monkeypatch.setattr(numeric, "RK4_CHUNK_STEPS", chunk)
    text, start = _FAILING_FIELDS[kind]
    spans, loop = [], numeric._loop

    def spying(d):
        def run(f, append, t0, h, half, sixth, limit, k0, k1, *y):
            spans.append((k0, k1))
            return loop(d)(f, append, t0, h, half, sixth, limit, k0, k1, *y)
        return run

    monkeypatch.setattr(numeric, "_loop", spying)
    # with chunks of 4: the first step, the last of a chunk, the first of the
    # next, mid-chunk, and no failure on grids that end on and off a chunk's end
    for kf, t1 in [(0, 12.0), (3, 12.0), (4, 12.0), (6, 12.0), (20, 8.0), (20, 9.0)]:
        spans.clear()
        field = [parse(text.format(kf=kf))]
        traj = integrate_first_order(field, ["y1"], [0.0], 0.0, t1, 1.0)
        states, reason = _ref_first_order(field, ["y1"], [0.0], 0.0, t1, 1.0)
        assert traj.reason == reason
        assert traj.states.tobytes() == states.tobytes()
        if kf < t1:
            assert len(states) == kf + 1 and reason.startswith(start)
        else:
            assert len(states) == t1 + 1 and reason is None
        # chunks up to the one that holds the failing step or the last one
        steps = int(t1)
        assert spans == [(k0, min(k0 + chunk, steps))
                         for k0 in range(0, min(kf, steps - 1) + 1, chunk)]


def test_monitor_matches_the_reference_on_overflow_and_domain_errors():
    traj = integrate_first_order([parse("1+0*y1")], ["y1"], [1.0], 0.0, 10.0, 1.0)
    names = ("t",) + traj.names
    # y1 = 1, ..., 11: (y1+5)^400 overflows on every row, y1^300 on the last
    # one only and exp(100*y1) from row 7; the next two overflow on rows 5
    # and 6, before log(8-y1) leaves its domain on row 7; the last two divide
    # by zero on row 9, the first after an overflow on row 5
    for text in ("y1^400", "1/y1^400", "-(y1*10^30)^16", "log(5-y1)", "(y1+5)^400",
                 "y1^300", "exp(100*y1)", "y1^400 + log(8-y1)", "log(8-y1) + y1^400",
                 "y1^400 + 1/(y1-10)", "1/(y1-10)"):
        fn = compile_expr(parse(text), names)
        want, reason = [], None
        series = monitor(traj, [parse(text)])[0]
        for k, row in enumerate(traj.states.tolist()):
            try:
                want.append(fn(traj.t0 + k * traj.h, *row))
            except OverflowError:
                reason = f"truncated at step {k}: overflow"
                break
            except EvalDomainError as err:
                reason = f"truncated at step {k}: {err}"
                break
        assert series.values.tobytes() == np.array(want).tobytes()
        assert series.reason == reason
        assert series.truncated_at == (len(want) if len(want) < len(traj.states) else None)


def test_an_overflowing_row_truncates_before_a_later_division_by_zero():
    # y1 = 1, ..., 11: y1^400 overflows from row 5 on, so neither inf/0 nor
    # 0/0 on row 9 is ever evaluated; every row runs on plain floats, where
    # 0/0 is a division by zero
    traj = integrate_first_order([parse("1+0*y1")], ["y1"], [1.0], 0.0, 10.0, 1.0)
    for series in monitor(traj, [parse("y1^400/(y1-10)"),
                                 parse("y1^400 + (y1-10)/(y1-10)")]):
        assert series.reason == "truncated at step 5: overflow"
        assert series.truncated_at == 5 and all(map(math.isfinite, series.values))
    with pytest.raises(EvalDomainError, match="^division by zero$"):
        compile_expr(parse("(y1-10)/(y1-10)"), ("t", "y1"))(0.0, 10.0)


def test_every_generated_function_runs_on_plain_floats(monkeypatch, tmp_path, fresh_keeper):
    # numpy float64 values would give inf or nan where a float raises, and
    # np.float64 is a subclass of float, so the type must be float itself;
    # the keeper is empty, so every function is defined through `checked`
    define = expr._Fuser.define

    def checked(self, result):
        fn = define(self, result)

        def run(*args):
            assert all(type(a) is float for a in args), [type(a).__name__ for a in args]
            return fn(*args)
        return run

    monkeypatch.setattr(expr._Fuser, "define", checked)
    out = tmp_path / "corpus.json"
    assert main(["corpus", "--report", "json", "--out", str(out)]) == 0
    assert out.read_bytes() == GOLDEN_CORPUS.read_bytes()
    problems = resources.files("lamsym").joinpath("problems")
    for fname, ic, mon in [("example2.json", "q1=0.4,q2=0.3,p1=0.2,p2=0.1", "(q1+q2)*exp(t)"),
                           ("example6.json", "q1=1.1,q2=0.8,dq1=0.2,dq2=0.1", "q1*dq1+log(q2)")]:
        assert main(["integrate", "--problem", str(problems.joinpath(fname)), "--ic", ic,
                     "--t1", "0.2", "--monitor", mon, "--out", str(tmp_path / "f.csv")]) == 0
    traj = integrate_first_order([parse("1+0*y1")], ["y1"], [1.0], 0.0, 10.0, 1.0)
    assert monitor(traj, [parse("y1^400")])[0].truncated_at == 5


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
    (4, "dq1^2/2 + dq2^2/2 + dq3^2/2 + dq4^2/20000000000000"),  # dominant, 2-norm 1e13
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


@pytest.mark.parametrize("n, regular, singular", [
    (1, "dq1^2/2", "dq1^3/3"),
    (2, "(dq1+dq2)^2/2 + dq2^2/2", "(dq1+dq2)^2/2"),
    (4, "dq1^2/2 + dq2^2/2 + dq3^2/2 + dq4^2/2", "(dq1+dq2)^2/2 + dq3^2/2 + dq4^2/2"),
])
def test_a_stage_that_divides_by_zero_checks_the_hessian_first(n, regular, singular):
    # dL/dq1 of 1/q1 divides by q1^2 = 0; M is checked before that is reported
    lag = LagrangianSystem(n, parse(f"{regular} + 1/q1"))
    traj = integrate_euler_lagrange(lag, [0.0] * n, [0.0] * n, 0.0, 0.1, 1e-2)
    assert traj.reason == "domain error at t=0: division by zero" and len(traj.states) == 1
    bind = expr._GENERATED[lag.lagrangian][("stage", n)]
    rhs = next(c for c in bind.__code__.co_consts if hasattr(c, "co_names"))
    assert "_domain_error" in rhs.co_names and not any("div" in v for v in rhs.co_names)
    lag = LagrangianSystem(n, parse(f"{singular} + 1/q1"))
    with pytest.raises(IntegrationError, match="condition"):
        integrate_euler_lagrange(lag, [0.0] * n, [0.0] * n, 0.0, 0.1, 1e-2)


@pytest.mark.parametrize("text, outcome", [
    ("(dq1+dq2)^2/2 + 1/q1", "abort"),                       # M singular, b divides by 0
    ("(dq1+dq2)^2/2 + dq2^2/2 + 1/q1", "division by zero"),  # M regular, b divides by 0
])
def test_a_failing_flow_compiles_its_stage_once(builds, text, outcome):
    # M is tested before b is evaluated, so no failure compiles M again
    lag = LagrangianSystem(2, parse(text))
    if outcome == "abort":
        with pytest.raises(IntegrationError, match="condition"):
            integrate_euler_lagrange(lag, [0.0, 0.0], [0.0, 0.0], 0.0, 0.1, 1e-2)
    else:
        traj = integrate_euler_lagrange(lag, [0.0, 0.0], [0.0, 0.0], 0.0, 0.1, 1e-2)
        assert traj.reason == f"domain error at t=0: {outcome}"
    assert builds == [("t", "q1", "q2", "dq1", "dq2")]


def test_an_svd_that_does_not_converge_in_a_stage_raises_linalg_error(monkeypatch):
    # np.linalg.LinAlgError is a ValueError, so the SVD of an uncertified
    # stage must run outside the handler that makes a ValueError a domain error
    kernel = numeric._lapack_svd
    monkeypatch.setattr(numeric, "_lapack_svd",
                        lambda a, signature: kernel(np.full_like(a, math.nan), signature=signature))
    lag = LagrangianSystem(4, parse(_COUPLED_4))
    with pytest.raises(np.linalg.LinAlgError, match="^SVD did not converge$"):
        integrate_euler_lagrange(lag, [0.9, 0.6, 0.7, 0.4], [0.2, -0.1, 0.3, 0.1], 0.0, 0.2, 1e-3)


def _decoupled(n, first, last=None):
    """L with M = diag(first, 1, ..., 1, last) for the texts first and last."""
    parts = [f"({first})*dq1^2/2"] + [f"dq{i}^2/2" for i in range(2, n + 1)]
    if last is not None:
        parts[-1] = f"({last})*dq{n}^2/2"
    return " + ".join(parts)


_ABORTS = (
    # M_11 = 1 + inf - inf: 10^308*q1 overflows at q1 = 10
    [(n, _decoupled(n, "1 + 10^308*q1*t - 10^308*q1"), 0.25, 0.25) for n in (1, 2, 3, 4)]
    # n = 1's condition number is 1 or infinite, so its limit case is M = 0
    + [(1, _decoupled(1, "1/1000 - t"), 0.0, 0.001)]
    # M_nn = (1.00075 - t) / 10^12: the condition number is 9.9975e11 at the
    # stage t = 0.0005 and 1.00025e12 at t = 0.001, the end of the first step
    + [(n, _decoupled(n, "1", "(4003/4000 - t)/1000000000000"), 0.0, 0.001)
       for n in (2, 3, 4)])


@pytest.mark.parametrize("n, text, t0, t_abort", _ABORTS)
def test_the_stage_aborts_on_a_nan_entry_or_a_condition_just_over_the_limit(
        n, text, t0, t_abort):
    lag = LagrangianSystem(n, parse(text))
    q0, dq0 = [10.0] + [0.5] * (n - 1), [0.0] * n
    m = expr.compile_exprs(lag.velocity_hessian(), ("t",) + lag.q + lag.dq)(t0, *q0, *dq0)
    assert math.isnan(m[0]) == ("10^308" in text)
    with pytest.raises(IntegrationError) as err:
        integrate_euler_lagrange(lag, q0, dq0, t0, t0 + 0.01, 1e-3)
    assert str(err.value) == f"velocity Hessian condition exceeds 1e+12 at t={t_abort:g}"


def test_well_conditioned_three_dof_hessian_integrates():
    lag = LagrangianSystem(3, parse("dq1^2 + dq2^2 + dq3^2 + dq1*dq2/2 + dq2*dq3/2"
                                    " - q1^2/2 - q2*q3"))
    traj = integrate_euler_lagrange(lag, [0.3, 0.2, 0.1], [0.1, 0.0, -0.1], 0.0, 0.5, 1e-2)
    assert not traj.truncated and len(traj.states) == 51


def _condition(n):
    """condition(m0, m1, ...): the condition lines of an n x n stage (n <= 3),
    run on the row-major entries of M."""
    lines = [f"def condition({', '.join(f'm{i}' for i in range(n * n))}):"]
    lines += [f" {line}" for line in numeric._condition_lines(n)] + [" return cond"]
    return expr._define(lines, "condition")


def test_hessian_condition_is_the_exact_one_norm_condition_for_small_n():
    rng = np.random.default_rng(3)
    for n in (1, 2, 3):
        condition = _condition(n)
        for _ in range(200):
            m = rng.uniform(-2.0, 2.0, (n, n)) + 3.0 * np.eye(n) * rng.choice([-1, 1])
            assert condition(*m.ravel().tolist()) == \
                pytest.approx(np.linalg.cond(m, 1), rel=1e-9)
        assert condition(*[0.0] * (n * n)) == math.inf
        assert condition(math.nan, *[1.0] * (n * n - 1)) == math.inf
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


# ------------------------------------------------------------- compiled flows

def test_a_flow_is_compiled_once_per_system(builds):
    h_text = "(p1^2+p2^2)/2 + q1^2*q2^2/3 + q1*p2/11"
    l_text = "dq1^2/2 + dq2^2/2 + dq1*dq2/4 - q1^2/2 - q2^2/2 + q1*q2/11"
    runs = []
    for _ in range(2):      # two fresh systems of the same H and of the same L
        sys_h, lag = PhaseSystem(2, parse(h_text)), LagrangianSystem(2, parse(l_text))
        for y0 in ([0.4, -0.3, 0.2, 0.1], [0.1, 0.2, 0.3, 0.4], [0.2, 0.2, -0.1, 0.0]):
            runs.append(integrate_hamiltonian(sys_h, y0, 0.0, 0.05, 1e-2).states.tobytes())
            runs.append(integrate_euler_lagrange(lag, y0[:2], y0[2:], 0.0, 0.05, 1e-2)
                        .states.tobytes())
    # one compilation per H and per L: a fresh system over the same tree
    # reads the kept code, and its flows have the same bits
    assert builds == [("t", "q1", "q2", "p1", "p2"), ("t", "q1", "q2", "dq1", "dq2")]
    assert runs[:6] == runs[6:]


def test_mon_compiles_its_monitored_expressions_once_per_check(builds):
    problem = _bundled("example2.json")
    u0 = problem.candidates["initial_conditions"][0]
    problem.candidates["initial_conditions"] = [u0, [v * 0.9 for v in u0], [v * 1.1 for v in u0]]
    report = run_checks(problem, ["mon"])
    assert [c.verdict for c in report.checks] == ["NumericallyZero"]
    # the flow, Gamma and G, and the scalar law of G, each compiled once for
    # three initial conditions
    assert builds.count(("t", "q1", "q2", "p1", "p2")) == 3
    assert builds.count(("t", "G")) == 1
    # and kept while the problem holds their trees: a second check builds nothing
    del builds[:]
    again = run_checks(problem, ["mon"])
    assert [(c.verdict, c.detail) for c in again.checks] == \
        [(c.verdict, c.detail) for c in report.checks]
    assert builds == []


def test_a_second_run_compiles_no_list_of_trees(monkeypatch, fresh_keeper):
    # the momenta of mon, the Noether rates of gl and the constrained momenta
    # and forces of lz are kept with L, and the constraint flow of lz with
    # its first component tree, the others as inputs
    calls = []
    for module in (lagmod, runner, numeric):
        def counting(exprs, names, _compile=module.compile_exprs, _module=module.__name__):
            calls.append((_module, tuple(names)))
            return _compile(exprs, names)

        monkeypatch.setattr(module, "compile_exprs", counting)
    problem = _bundled("example6.json")
    report = run_checks(problem)
    velocities, positions = ("t", "q1", "q2", "dq1", "dq2"), ("t", "q1", "q2")
    for call in [("lamsym.runner", velocities), ("lamsym.lagrangian", velocities),
                 ("lamsym.lagrangian", positions), ("lamsym.numeric", positions)]:
        assert call in calls
    del calls[:]
    again = run_checks(problem)
    assert [(c.verdict, c.max_residual, c.detail) for c in again.checks] == \
        [(c.verdict, c.max_residual, c.detail) for c in report.checks]
    assert calls == []


def test_a_first_order_flow_compiles_once(builds):
    field = [parse("-1+0*y1"), parse("y1*y2")]
    for y0 in ([0.5, 1.0], [0.7, 1.0]):
        integrate_first_order(field, ["y1", "y2"], y0, 0.0, 0.1, 1e-2)
    assert builds == [("t", "y1", "y2")]


def test_monitor_compiles_a_tree_once(builds):
    traj = integrate_first_order([parse("-y1")], ["y1"], [1.0], 0.0, 0.1, 1e-2)
    quantity = parse("y1*exp(t)")
    first, second = monitor(traj, [quantity])[0], monitor(traj, [quantity])[0]
    assert first.values.tobytes() == second.values.tobytes()
    assert builds == [("t", "y1"), ("t", "y1")]     # the flow, then the monitored tree


def test_a_tree_rebuilt_after_it_died_compiles_again(builds):
    text, names = "keeper_probe*exp(keeper_probe)", ("keeper_probe",)
    assert compile_expr(parse(text), names)(1.0) == math.e
    gc.collect()
    assert compile_expr(parse(text), names)(1.0) == math.e
    assert builds == [names, names]
    assert len(expr._GENERATED) == 0


def test_code_kept_with_a_matrix_entry_that_is_l_goes_with_l(fresh_keeper):
    # the Noether rates are kept under L, phi and Lambda; the entry L is L's
    # own tree, so a key that held it would keep L's entry, and L, alive
    lag = LagrangianSystem(1, parse("dq1^2/2 - q1^2/2 + dq1*q1^3/7"))
    xl = lagmod.ConfigVectorField((parse("q1"),))
    laml = lagmod.LambdaMatrix(((lag.lagrangian,),), lagmod.LAGRANGIAN_SIDE)
    lagmod.check_noether_lambda(lag, xl, laml, initial_conditions=[(0.3, 0.1)], t1=0.01)
    dead = weakref.ref(lag.lagrangian)
    del lag, xl, laml
    gc.collect()
    assert dead() is None
    assert len(expr._GENERATED) == 0


def test_nothing_is_generated_at_import():
    # generated code is built on first use, not in set-up
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = ("import lamsym\nfrom lamsym import numeric as n\n"
            "print(n._loop.cache_info().currsize)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0"]


def test_generated_functions_leave_no_reference_cycle():
    # a generated loop or stage is taken out of the namespace it was executed
    # in, which is its own globals, so no cycle is left for the collector
    lag = LagrangianSystem(2, parse("(dq1+dq2)^2/2 + dq2^2/2 + 1/q1 + q1*dq1*dq2"))
    numeric._loop.cache_clear()
    gc.collect()
    gc.disable()
    try:
        numeric._euler_lagrange_stage(lag)
        numeric._loop(9)
        assert gc.collect() == 0
    finally:
        gc.enable()


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


def test_csv_bytes_match_the_reference_writer_across_chunks(monkeypatch):
    traj = integrate_first_order([parse("-1+0*y1"), parse("y1*y2")], ["y1", "y2"],
                                 [0.9, 0.3], 0.0, 1.0, 1e-3)
    series = monitor(traj, [parse("log(y1)"), parse("y1*y2")], labels=["L", "P"])
    cut = series[0].truncated_at
    assert len(traj.states) == 1001 > 2 * numeric.CSV_CHUNK_ROWS
    assert 2 * numeric.CSV_CHUNK_ROWS < cut < 1001 and series[1].truncated_at is None
    # chunks of the module's size, one that ends at the truncation, odd ones
    for rows in (numeric.CSV_CHUNK_ROWS, cut, cut // 2, 7, 1000):
        monkeypatch.setattr(numeric, "CSV_CHUNK_ROWS", rows)
        for monitors in ((), series, series[:1], series[::-1]):
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
    assert compare_with_scalar_ode(series, gamma, 0.5) == want


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


def _no_grid(*args, **kwargs):
    raise AssertionError("the grid was allocated")


@pytest.mark.parametrize("t1, h", [(1e6, 1e-9), (1e300, 1e-10),
                                   (numeric.MAX_GRID_STEPS * 1e-3 + 1.0, 1e-3)])
def test_a_grid_beyond_the_step_limit_is_rejected_before_allocation(monkeypatch, t1, h):
    monkeypatch.setattr(np, "empty", _no_grid)
    with pytest.raises(ValueError, match="exceeds the limit"):
        integrate_first_order([parse("-y1")], ["y1"], [1.0], 0.0, t1, h)


def test_cli_integrate_rejects_a_grid_beyond_the_step_limit(monkeypatch, capsys):
    monkeypatch.setattr(np, "empty", _no_grid)
    path = str(resources.files("lamsym").joinpath("problems", "example1.json"))
    code = main(["integrate", "--problem", path, "--ic", "q1=1,p1=0",
                 "--t1", "1000000", "--step", "1e-9"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: grid of 1e+15 steps exceeds the limit")


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


@st.composite
def _hessians(draw, sizes=(4, 5, 6)):
    """(n, row-major entries): off-diagonal entries in [-1, 1] and diagonal
    entries (n - 1) 10^g, dominant for g > 0, all but one 10^s times larger,
    so that s sets the condition number; sometimes two nearly parallel rows;
    all scaled by 10^k for |k| <= 300; sometimes a nan or inf entry."""
    n = draw(st.sampled_from(sizes))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = rng.uniform(-1.0, 1.0, (n, n))
    diag = rng.choice([-1.0, 1.0], n) * (n - 1) * 10.0 ** draw(st.floats(-1.0, 3.0))
    diag[1:] *= 10.0 ** draw(st.floats(0.0, 13.0))
    m[np.diag_indices(n)] = diag
    p = rng.permutation(n)
    m = m[p][:, p]
    if draw(st.integers(0, 3)) == 0:
        m[-1] = m[0] * (1.0 + 10.0 ** -draw(st.integers(0, 16)))
    with np.errstate(over="ignore", under="ignore"):
        m = m * 10.0 ** draw(st.integers(-300, 300))
    if draw(st.integers(0, 4)) == 0:
        m[draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))] = draw(
            st.sampled_from([math.nan, math.inf, -math.inf]))
    return n, m.ravel().tolist()


def _certificate(n, literals=None):
    """certified(v): the certificate lines of an n x n stage, run on the first
    n*n entries of v with the stage's cert_limit."""
    lines = ["def certified(v):", f" {''.join(f'm{i}, ' for i in range(n * n))}*_ = v"]
    lines += [f" {line}" for line in numeric._certificate_lines(n, literals)] + [" return cert"]
    return expr._define(lines, "certified", _root=math.sqrt,
                        cert_limit=HESSIAN_CONDITION_LIMIT / 100)


@settings(max_examples=150, deadline=None)
@given(_hessians())
@example((4, np.diag([1.0, -1.0, 1.0, 5e9]).ravel().tolist()))     # kappa 5e9 certifies
@example((4, np.diag([1.0, -1.0, 1.0, 3e11]).ravel().tolist()))    # kappa 3e11 must not
def test_a_certified_hessian_is_well_conditioned(case):
    # the certificate skips the SVD, so it must only pass matrices whose
    # exact condition number sits far below the limit
    n, entries = case
    if _certificate(n)(entries + [0.0] * n):
        with _solve_errstate():
            assert _hessian_condition(entries, n) <= HESSIAN_CONDITION_LIMIT / 10


@settings(max_examples=150, deadline=None)
@given(_hessians(sizes=(4, 5)), st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
@example((4, np.diag([1.0, -1.0, 1.0, 5e9]).ravel().tolist()), 0, 1.0)
@example((4, np.diag([1.0, -1.0, 1.0, 3e11]).ravel().tolist()), 0, 1.0)
def test_a_certificate_with_literal_entries_certifies_only_well_conditioned_hessians(
        case, seed, share):
    # an Euler-Lagrange stage folds the entries that compile to float
    # literals, which are finite, into its certificate's constants
    n, entries = case
    rng = np.random.default_rng(seed)
    literals = {k: v for k, v in enumerate(entries)
                if rng.random() < share and math.isfinite(v)}
    if _certificate(n, literals)(entries + [0.0] * n):
        with _solve_errstate():
            assert _hessian_condition(entries, n) <= HESSIAN_CONDITION_LIMIT / 10


# ------------------------------------------------------------- spelling of generated code
# Generated float code is spelled with the fewest operations that give the
# same bits: a -1.0 factor as a negation, a negated term as a subtraction, no
# 1.0 factor, max and min as comparisons, b + b for 2 * b.

_EDGE_FLOATS = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, -5e-324,
                2.225073858507201e-308, -2.2250738585072014e-308, 1e-310, 1.0, -1.0,
                sys.float_info.max, -sys.float_info.max, 8.98846567431158e+307, 1e308]
_any_float = st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats())


def _same(x, y):
    """x and y have the same bits; a NaN only needs a NaN, as a unary minus
    flips its sign bit where a product with -1.0 keeps it."""
    if math.isnan(x):
        return math.isnan(y)
    return struct.pack("<d", x) == struct.pack("<d", y)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_any_float, _any_float, _any_float)
def test_each_rewrite_of_generated_code_is_an_ieee_identity(a, x, y):
    assert _same(a + (-1.0 * x), a - x)
    assert _same((-1.0 * x) * y, -(x * y)) and _same((x * -1.0) * y, -(x * y))
    assert _same(x * 1.0, x) and _same(2 * x, x + x)
    # and as the compiler spells them: (a-(x)), (-x*y) and (_t0)
    minus_x = Product((MINUS_ONE, Var("x")))
    names = ("a", "x", "y")
    assert _same(compile_expr(Sum((Var("a"), minus_x)), names)(a, x, y), a + (-1.0 * x))
    assert _same(compile_expr(Product((minus_x, Var("y"))), names)(a, x, y), (-1.0 * x) * y)
    assert _same(compile_expr(Product((Var("x"), MINUS_ONE, Var("y"))), names)(a, x, y),
                 (x * -1.0) * y)


def _oracle_condition_lines(n):
    """The condition lines as they were spelled with abs, max and
    math.isfinite calls: the oracle of `numeric._condition_lines`."""
    if n == 1:
        return ["cond = 1.0 if m0 != 0.0 and _isfinite(m0) else _inf"]
    if n == 2:
        lines = ["det = m0 * m3 - m1 * m2",
                 "norm_m = max(abs(m0) + abs(m2), abs(m1) + abs(m3))",
                 "norm_adj = max(abs(m3) + abs(m2), abs(m1) + abs(m0))"]
    else:
        lines = ["c00, c01, c02 = m4 * m8 - m5 * m7, m5 * m6 - m3 * m8, m3 * m7 - m4 * m6",
                 "c10, c11, c12 = m2 * m7 - m1 * m8, m0 * m8 - m2 * m6, m1 * m6 - m0 * m7",
                 "c20, c21, c22 = m1 * m5 - m2 * m4, m2 * m3 - m0 * m5, m0 * m4 - m1 * m3",
                 "det = m0 * c00 + m1 * c01 + m2 * c02",
                 "norm_m = max(abs(m0) + abs(m3) + abs(m6), abs(m1) + abs(m4) + abs(m7),"
                 " abs(m2) + abs(m5) + abs(m8))",
                 "norm_adj = max(abs(c00) + abs(c01) + abs(c02), abs(c10) + abs(c11) + abs(c12),"
                 " abs(c20) + abs(c21) + abs(c22))"]
    return lines + ["cond = norm_m / abs(det) * norm_adj if det != 0.0 and _isfinite(det) else _inf"]


def _oracle_certificate_lines(n, literals):
    """The certificate lines as they were spelled with min and max calls: the
    oracle of `numeric._certificate_lines`."""
    rows = range(n)
    a = [[repr(abs(literals[i * n + j])) if i * n + j in literals else f"a{i}_{j}"
          for j in rows] for i in rows]
    lines = [f"{a[i][j]} = abs(m{i * n + j})" for i in rows for j in rows
             if i * n + j not in literals]

    def total(terms, name=""):
        src = " + ".join(sorted(terms, key=str.isidentifier))
        if not any(map(str.isidentifier, terms)):
            return f"({src})"
        if name:
            lines.append(f"{name} = {src}")
        return name or src

    r = [total([a[i][j] for j in rows if j != i], f"r{i}") for i in rows]
    c = [total([a[i][j] for i in rows if i != j], f"c{j}") for j in rows]
    s = [total([a[i][i], r[i]], f"s{i}") for i in rows]
    return lines + [
        f"lb = min({', '.join(f'{a[i][i]} - 0.5 * ({r[i]} + {c[i]})' for i in rows)})",
        f"cert = {total(s)} < _inf and 0.0 < lb and"
        f" _root(max({', '.join(total([a[j][j], c[j]]) for j in rows)}))"
        f" * _root(max({', '.join(s)})) <= lb * cert_limit"]


def _matrix_function(n, lines, result):
    """result(m0, m1, ...) after lines, on the row-major entries of an n x n M,
    with the builtins the oracles call."""
    source = [f"def entries({', '.join(f'm{i}' for i in range(n * n))}):"]
    source += [f" {line}" for line in lines] + [f" return {result}"]
    return expr._define(source, "entries", max=max, min=min, _isfinite=math.isfinite,
                        _root=math.sqrt, cert_limit=HESSIAN_CONDITION_LIMIT / 100)


_SPECIAL_ENTRIES = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1e-310,
                    1.0, -1.0, 3.0, 1e308, -1e308]
_entry = st.one_of(st.sampled_from(_SPECIAL_ENTRIES), st.floats())


_CONDITIONS = {n: [_matrix_function(n, lines(n), "cond")
                   for lines in (numeric._condition_lines, _oracle_condition_lines)]
               for n in (1, 2, 3)}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_condition_lines_give_the_bits_of_abs_max_and_isfinite(data):
    n = data.draw(st.sampled_from([1, 2, 3]))
    m = data.draw(st.lists(_entry, min_size=n * n, max_size=n * n))
    condition, oracle = _CONDITIONS[n]
    assert _same(condition(*m), oracle(*m))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.lists(_entry, min_size=16, max_size=16), st.lists(st.booleans(), min_size=16,
                                                            max_size=16))
@example([4.0, 0.5, 0.0, 0.0, 0.5, 4.0, 0.0, 0.0, 0.0, 0.0, 4.0, 1e-310,
          0.0, 0.0, 5e-324, 4.0], [False] * 16)                        # certifies
def test_certificate_lines_decide_as_min_and_max_do(m, folded):
    literals = {k: v for k, v in enumerate(m) if folded[k] and math.isfinite(v)}
    got = _matrix_function(4, numeric._certificate_lines(4, literals), "cert")(*m)
    assert got == _matrix_function(4, _oracle_certificate_lines(4, literals), "cert")(*m)


def _multiplies(tokens, unit):
    """The NUMBER tokens for which unit(value) holds that are a factor of a
    product: a `*` next to them, past a unary minus before them."""
    found = []
    for i, tok in enumerate(tokens):
        if tok.type != tokenize.NUMBER or not unit(tok.string):
            continue
        j = i - 1 - (tokens[i - 1].string == "-")
        if tokens[j].string == "*" or tokens[i + 1].string == "*":
            found.append(tok.string)
    return found


def _unit_factors(source):
    tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    return _multiplies(tokens, lambda s: float(s) == 1.0)


def _int_doublings(source):
    tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    return _multiplies(tokens, lambda s: s == "2")


def test_the_spelling_guard_reads_tokens():
    assert _unit_factors("(-1.0*x)\n(x*-1.0*y)\n(1.0*_t8*_t8)\n(x*1.0)\n") == ["1.0"] * 4
    assert _unit_factors("(1.05*x)\n(-1.0625*x)\n(x*-10.0)\n(a-(1.0))\n(a+-1.0)\n") == []
    assert _int_doublings("y = a + 2 * b\n") == ["2"]
    assert _int_doublings("y = a + (b + b) + 2.0 * c + 12 * d\n") == []


def test_generated_code_has_no_unit_factor_and_no_int_doubling(monkeypatch, fresh_keeper):
    # the flow or stage of each bundled example and of two hand-written n = 4
    # Lagrangians, and the loop for states of 4 components
    sources = []
    define = expr._define

    def capture(lines, name, **env):
        sources.append("\n".join(lines) + "\n")
        return define(lines, name, **env)

    monkeypatch.setattr(expr, "_define", capture)
    numeric._loop.cache_clear()
    systems = [_bundled(f"example{k}.json") for k in range(1, 8)]
    for problem in systems:
        if problem.kind == "hamiltonian":
            sys_ = problem.phase_system()
            expr.compile_exprs(canonical_equations(sys_), ("t",) + sys_.u)
        else:
            numeric._euler_lagrange_stage(problem.lagrangian_system())
    for text in (_HAND_WRITTEN[4], _QUARTIC_4):
        numeric._euler_lagrange_stage(LagrangianSystem(4, parse(text)))
    numeric._loop(4)
    assert len(sources) == len(systems) + 3
    assert "(-" in "".join(sources) and "-(" in "".join(sources)
    assert [s for s in sources if _unit_factors(s)] == []
    assert _int_doublings(sources[-1]) == [] and "(a0 + (b0 + b0) + (c0 + c0) + e0)" in sources[-1]


# ------------------------------------------------------------- along-trajectory verdicts

def _ref_central(rows, n, h, add_rate):
    """Reference for `central_residual`: the scalar loops of `gl` (n = 1, rows
    (phi . p, (Lambda phi) . p), rate added) and of `lz` (rows (m..., g...),
    rate subtracted)."""
    worst = 0.0
    for a in range(n):
        for k in range(1, len(rows) - 1):
            d = (rows[k + 1][a] - rows[k - 1][a]) / (2 * h)
            worst = max(worst, abs(d + rows[k][n + a] if add_rate else d - rows[k][n + a]))
    return worst


def _ref_residual(f, g, h):
    if f.ndim == 1:     # gl hands over g = -(Lambda phi) . p
        return _ref_central(list(zip(f.tolist(), (-g).tolist())), 1, h, True)
    return _ref_central(np.hstack([f, g]).tolist(), f.shape[1], h, False)


@pytest.mark.parametrize("fname", ["example6.json", "example7.json"])
def test_the_central_residual_is_bitwise_the_scalar_loops_on_the_examples(monkeypatch, fname):
    seen = []

    def spy(f, g, h):
        got = central_residual(f, g, h)
        seen.append((got.hex(), _ref_residual(f, g, h).hex()))
        return got

    monkeypatch.setattr(lagmod, "central_residual", spy)
    # one gl trajectory and one lz constraint flow each
    report = run_checks(_bundled(fname), ["xll", "gl", "lz"])
    assert report.status == "pass"
    assert len(seen) == 2 and all(got == want for got, want in seen)


def test_the_central_residual_is_bitwise_the_scalar_loops_on_random_arrays():
    rng = np.random.default_rng(11)
    for _ in range(50):
        steps, n, h = int(rng.integers(2, 40)), int(rng.integers(1, 4)), rng.uniform(1e-4, 1.0)
        f = rng.normal(size=steps) * 10.0 ** rng.integers(-3, 4)
        g = rng.normal(size=steps)
        assert central_residual(f, g, h).hex() == _ref_residual(f, g, h).hex()
        f2, g2 = rng.normal(size=(steps, n)), rng.normal(size=(steps, n))
        assert central_residual(f2, g2, h).hex() == _ref_residual(f2, g2, h).hex()
    assert central_residual(np.array([1.0, 2.0]), np.array([0.0, 0.0]), 0.1) == 0.0


def test_values_along_is_an_error_unless_the_whole_grid_is_finite():
    traj = integrate_first_order([parse("1+0*y1")], ["y1"], [1.0], 0.0, 10.0, 1.0)
    names = ("t",) + traj.names
    assert values_along(traj, compile_expr(parse("y1^2"), names), "y").tolist() == \
        [float(k * k) for k in range(1, 12)]
    with pytest.raises(IntegrationError, match="^y truncated at step 4: log of non-positive"):
        values_along(traj, compile_expr(parse("log(5-y1)"), names), "y")
    # y1^400 overflows at y1 = 6; y1*10^308 is inf at y1 = 2 without raising
    with pytest.raises(IntegrationError, match="^y truncated at step 5: overflow$"):
        values_along(traj, compile_expr(parse("y1^400"), names), "y")
    with pytest.raises(IntegrationError, match="^y is not finite at step 1$"):
        values_along(traj, compile_expr(parse("y1*10^307*10"), names), "y")
    blown = integrate_first_order([parse("y1^2")], ["y1"], [2.0], 0.0, 5.0, 0.3)
    with pytest.raises(IntegrationError, match="^trajectory truncated: state left safety box"):
        values_along(blown, compile_expr(parse("y1"), names), "y")


def _check_json(tmp_path, doc, selection):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "report.json"
    code = main(["check", "--problem", str(path), "--select", selection,
                 "--report", "json", "--out", str(out)])
    return code, {c["name"]: c for c in json.loads(out.read_text())["checks"]}


LOG_DRIFT = {"name": "log-drift", "kind": "hamiltonian", "n": 1, "hamiltonian": "p1^2/2",
             "vector_field": {"phi": ["0"], "psi": ["1"]},
             "lambda": {"entries": [["0", "0"], ["0", "0"]]},
             "candidates": {"Gamma": "log(q1)", "initial_conditions": [[0.0005, -1]]}}


def test_a_monitor_truncated_by_a_domain_error_is_an_error(tmp_path):
    # q1 leaves log's domain after one step; the drift of one point is no evidence
    code, checks = _check_json(tmp_path, LOG_DRIFT, "gamma,mon")
    assert code == 1
    assert checks["gamma"]["verdict"] == "NonZero"
    assert checks["mon"]["verdict"] == "Error"
    assert checks["mon"]["detail"] == \
        "monitor Gamma truncated at step 1: log of non-positive argument"


def test_a_noether_rate_that_overflows_everywhere_is_an_error(tmp_path):
    # phi . p = exp(600)*10^100*dq1 is inf at every grid point
    doc = {"name": "overflow-momentum", "kind": "lagrangian", "n": 1,
           "lagrangian": "10^100*dq1^2/2", "vector_field": {"phi": ["exp(400*q1)"]},
           "lambda": {"entries": [["-400*dq1"]]},
           "candidates": {"initial_conditions": [[1.5, 0.5]]}}
    code, checks = _check_json(tmp_path, doc, "xll,gl")
    assert code == 1
    assert checks["xll"]["verdict"] == "ProvenZero"
    assert checks["gl"]["verdict"] == "Error"
    assert checks["gl"]["detail"] == "Noether rate is not finite at step 0"


def test_cli_integrate_warns_of_a_truncated_monitor_and_keeps_the_csv(tmp_path, capsys):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(LOG_DRIFT), encoding="utf-8")
    code = main(["integrate", "--problem", str(path), "--ic", "q1=0.0005,p1=-1",
                 "--t1", "0.01", "--monitor", "log(q1)"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == \
        "warning: monitor log(q1) truncated at step 1: log of non-positive argument\n"
    traj = integrate_hamiltonian(load_problem(str(path)).phase_system(), [0.0005, -1.0],
                                 0.0, 0.01, 1e-3)
    want = io.StringIO()
    _ref_csv(traj, want, monitor(traj, [parse("log(q1)")], labels=["log(q1)"]))
    assert captured.out == want.getvalue()
    assert captured.out.count(",\n") == 10
