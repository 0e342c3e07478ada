"""Deterministic fixed-step integration and trajectory monitoring.

The integrator is the classical 4th-order one-step method with a fixed
step, chosen over adaptive or symplectic schemes so that identical runs
produce identical grids and values on every platform; the monitored
quantities here are deliberately non-conserved, so structure
preservation would buy nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from numpy.linalg import LinAlgError
from numpy.linalg._umath_linalg import solve1 as _lapack_solve, svd as _lapack_svd

from .expr import (
    Const,
    EvalDomainError,
    Expr,
    MINUS_ONE,
    Product,
    Sum,
    Var,
    compile_expr,
    compile_exprs,
)

DEFAULT_STEP = 1e-3
DEFAULT_HORIZON = 1.0
SAFETY_LIMIT = 1e6
MAX_GRID_STEPS = 10**7      # longest grid a trajectory may ask for
HESSIAN_CONDITION_LIMIT = 1e12


class IntegrationError(RuntimeError):
    """Integration could not proceed (singular or ill-conditioned system), or
    a trajectory a check needs was truncated."""


@dataclass(frozen=True)
class Trajectory:
    """States on the uniform grid t0 + k*h, one row per grid point."""

    names: tuple
    t0: float
    h: float
    states: np.ndarray
    reason: Optional[str] = None    # why the trajectory ends early, if it does

    @property
    def truncated(self) -> bool:
        return self.reason is not None

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.h * np.arange(len(self.states))


@dataclass(frozen=True)
class MonitorSeries:
    """Pointwise values of one expression along a trajectory."""

    label: str
    t0: float
    h: float
    values: np.ndarray
    reason: Optional[str] = None    # why the series ends early, if it does

    @property
    def truncated_at(self) -> Optional[int]:
        return None if self.reason is None else len(self.values)


def _grid_steps(t0: float, t1: float, h: float) -> int:
    if not (math.isfinite(t0) and math.isfinite(t1) and math.isfinite(h)):
        raise ValueError("need finite t0, t1 and h")
    if h <= 0 or t1 <= t0:
        raise ValueError("need h > 0 and t1 > t0")
    steps = (t1 - t0) / h
    if steps > MAX_GRID_STEPS:      # inf included
        raise ValueError(f"grid of {steps:.4g} steps exceeds the limit of {MAX_GRID_STEPS}")
    return max(int(round(steps)), 1)


_STEPPERS: dict = {}    # state size -> generated RK4 step


def _stepper(d: int) -> Callable[..., Optional[tuple]]:
    """The RK4 step for states of d components, generated once per d:
    step(f, t, half, h, sixth, limit, y0, ..., y{d-1}) returns the next
    state as a tuple, or None when a component fails |r| <= limit.

    The stages are `a + half * b` (`a + h * b` for the last) and the update
    `a + sixth * (b1 + 2 * b2 + 2 * b3 + b4)`, componentwise on locals, the
    same float operations in the same order as a float64 array loop."""
    step = _STEPPERS.get(d)
    if step is None:
        y, a, b, c, e, r = ([f"{p}{i}" for i in range(d)] for p in "yabcer")

        def tup(vs):
            return "".join(v + "," for v in vs)

        def shifted(coef, k):
            return ", ".join(f"{yi} + {coef} * {ki}" for yi, ki in zip(y, k))

        lines = [f"def step(f, t, half, h, sixth, limit, {', '.join(y)}):",
                 f" {tup(a)} = f(t, {', '.join(y)})",
                 f" {tup(b)} = f(t + half, {shifted('half', a)})",
                 f" {tup(c)} = f(t + half, {shifted('half', b)})",
                 f" {tup(e)} = f(t + h, {shifted('h', c)})"]
        lines += [f" {ri} = {yi} + sixth * ({ai} + 2 * {bi} + 2 * {ci} + {ei})"
                  for ri, yi, ai, bi, ci, ei in zip(r, y, a, b, c, e)]
        lines += [f" if {' and '.join(f'abs({ri}) <= limit' for ri in r)}:",
                  f"  return ({tup(r)})",
                  " return None"]
        env = {"__builtins__": {"abs": abs}}
        exec("\n".join(lines) + "\n", env)
        step = _STEPPERS[d] = env["step"]
    return step


def _rk4_loop(f: Callable[..., Sequence[float]], y0: Sequence[float],
              t0: float, t1: float, h: float):
    """Fixed-step integration of dy/dt = f(t, *y) on plain floats; returns
    (states, reason) where reason is a diagnostic when the trajectory left
    the safety box |y_i| <= SAFETY_LIMIT or hit a domain error and was
    truncated.

    Each step is one call of the generated step for the state size
    (`_stepper`), which performs the same float operations, in the same
    order, as a componentwise float64 array loop, so the states are
    bitwise the same.  A power beyond the float range raises OverflowError
    on floats where a float64 array would hold inf; it ends the trajectory
    at that step as having left the safety box, as the inf would."""
    steps = _grid_steps(t0, t1, h)
    y = [float(v) for v in y0]
    if not all(map(math.isfinite, y)):
        raise ValueError("initial state must be finite")
    states = np.empty((steps + 1, len(y)))
    states[0] = y
    step = _stepper(len(y))
    half, sixth = h / 2, h / 6
    for k in range(steps):
        t = t0 + k * h
        try:
            # |v| <= SAFETY_LIMIT also rejects inf and nan
            y = step(f, t, half, h, sixth, SAFETY_LIMIT, *y)
        except OverflowError:
            y = None
        except EvalDomainError as err:
            return states[:k + 1].copy(), f"domain error at t={t:.6g}: {err}"
        if y is None:
            return states[:k + 1].copy(), f"state left safety box at t={t + h:.6g}"
        states[k + 1] = y
    return states, None


def integrate_first_order(exprs: Sequence[Expr], names: Sequence[str],
                          y0: Sequence[float], t0: float = 0.0,
                          t1: float = DEFAULT_HORIZON, h: float = DEFAULT_STEP) -> Trajectory:
    """Integrate dy/dt = f(t, y) given componentwise expressions."""
    f = compile_exprs(exprs, ("t",) + tuple(names))
    return Trajectory(tuple(names), t0, h, *_rk4_loop(f, y0, t0, t1, h))


def integrate_hamiltonian(sys, u0: Sequence[float], t0: float = 0.0,
                          t1: float = DEFAULT_HORIZON, h: float = DEFAULT_STEP) -> Trajectory:
    """Integrate the canonical equations from u0 = (q..., p...)."""
    from .mechanics import canonical_equations
    if len(u0) != 2 * sys.n:
        raise ValueError(f"initial state needs {2*sys.n} components")
    return integrate_first_order(canonical_equations(sys), sys.u, u0, t0, t1, h)


def _raise_singular(err: str, flag: int) -> None:
    raise LinAlgError("Singular matrix")


def _solve_errstate() -> np.errstate:
    """The floating-point error state that np.linalg.solve and np.linalg.svd
    hold around their LAPACK kernels.  The solve kernel signals `invalid`
    only for a singular matrix, the SVD kernel only when it does not
    converge; either raises LinAlgError.  Every other flag is ignored."""
    return np.errstate(call=_raise_singular, invalid="call", over="ignore",
                       divide="ignore", under="ignore")


def _solve(m: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with m x = b, for an n x n float64 array m and a length-n one b.

    This is the LAPACK kernel (dgesv) that np.linalg.solve calls on float64
    operands, without its wrapper, so the result is bitwise the same.  Call
    it inside `_solve_errstate()`, or a singular m gives nan instead of
    raising LinAlgError."""
    return _lapack_solve(m, b, signature="dd->d")


def _hessian_condition(m: Sequence[float], n: int,
                       square: Optional[np.ndarray] = None) -> float:
    """Condition number of the row-major n x n matrix m; infinite when m is
    singular or not finite.  `square` is m as an n x n float64 array, when
    the caller has built one already.

    For n <= 3 it is the exact 1-norm condition number in closed form,
    ||M||_1 ||adj M||_1 / |det M|.  For larger n it is the 2-norm one, the
    largest over the smallest singular value, from the LAPACK kernel
    (dgesdd) that np.linalg.svd and np.linalg.cond call on float64
    operands, without their wrapper, so it is bitwise what np.linalg.cond
    returns.  Inside `_solve_errstate()` an SVD that does not converge
    raises LinAlgError; outside it the kernel warns and the result is inf.
    """
    if n == 1:
        return 1.0 if m[0] != 0.0 and math.isfinite(m[0]) else math.inf
    if n == 2:
        a, b, c, d = m
        det = a * d - b * c
        norm_m = max(abs(a) + abs(c), abs(b) + abs(d))
        norm_adj = max(abs(d) + abs(c), abs(b) + abs(a))
    elif n == 3:
        a, b, c, d, e, f, g, h, i = m
        # cofactors; adj M is their transpose, so its column sums are their row sums
        c00, c01, c02 = e * i - f * h, f * g - d * i, d * h - e * g
        c10, c11, c12 = c * h - b * i, a * i - c * g, b * g - a * h
        c20, c21, c22 = b * f - c * e, c * d - a * f, a * e - b * d
        det = a * c00 + b * c01 + c * c02
        norm_m = max(abs(a) + abs(d) + abs(g), abs(b) + abs(e) + abs(h),
                     abs(c) + abs(f) + abs(i))
        norm_adj = max(abs(c00) + abs(c01) + abs(c02), abs(c10) + abs(c11) + abs(c12),
                       abs(c20) + abs(c21) + abs(c22))
    elif not all(map(math.isfinite, m)):
        return math.inf
    else:
        if square is None:
            square = np.array(m).reshape(n, n)
        try:
            s = _lapack_svd(square, signature="d->d").tolist()
        except LinAlgError:
            raise LinAlgError("SVD did not converge") from None
        return s[0] / s[-1] if s[-1] > 0.0 else math.inf
    if det == 0.0 or not math.isfinite(det):
        return math.inf
    return norm_m / abs(det) * norm_adj


_CERTIFICATES: dict = {}    # matrix size -> generated condition certificate


def _certificate(n: int) -> Callable[[Sequence[float]], bool]:
    """certified(v) for a sequence v whose first n*n entries are the
    row-major matrix M, generated once per n: True only when a bound proves
    that the 2-norm condition number of M is at most
    HESSIAN_CONDITION_LIMIT / 100; False when the bound cannot decide.

    The bounds are Johnson's lower bound on the smallest singular value,
    lb = min_i (|m_ii| - (R_i + C_i) / 2) with R_i and C_i the off-diagonal
    absolute sums of row and column i, and ub = sqrt(||M||_1) sqrt(||M||_inf)
    on the largest; M is certified when every entry is finite, 0 < lb and
    ub <= lb * HESSIAN_CONDITION_LIMIT / 100.  The factor 100 absorbs the
    rounding of the bounds and the SVD's own error, of order n eps kappa, so
    `_hessian_condition` of a certified M is finite and far below the
    limit.  A nan or inf entry makes the sum of all |m_ij| nan or inf, and
    M is not certified."""
    certified = _CERTIFICATES.get(n)
    if certified is None:
        a = [[f"a{i}_{j}" for j in range(n)] for i in range(n)]
        rows, diag = range(n), [a[i][i] for i in range(n)]
        lines = ["def certified(v):"]
        lines += [f" {a[i][j]}=abs(v[{i * n + j}])" for i in rows for j in rows]
        lines += [f" r{i}={'+'.join(a[i][j] for j in rows if j != i)}" for i in rows]
        lines += [f" c{j}={'+'.join(a[i][j] for i in rows if i != j)}" for j in rows]
        lines += [f" s{i}={diag[i]}+r{i}" for i in rows]
        # a finite sum of all |m_ij| means no entry or partial sum is nan or inf
        lines += [f" if not {'+'.join(f's{i}' for i in rows)}<_inf:",
                  "  return False",
                  f" lb=min({','.join(f'{diag[i]}-0.5*(r{i}+c{i})' for i in rows)})",
                  f" ub=_sqrt(max({','.join(f'{diag[j]}+c{j}' for j in rows)}))"
                  f"*_sqrt(max({','.join(f's{i}' for i in rows)}))",
                  f" return 0.0<lb and ub<=lb*{HESSIAN_CONDITION_LIMIT / 100!r}"]
        env = {"__builtins__": {"abs": abs, "min": min, "max": max},
               "_sqrt": math.sqrt, "_inf": math.inf}
        exec("\n".join(lines) + "\n", env)
        certified = _CERTIFICATES[n] = env["certified"]
    return certified


def integrate_euler_lagrange(lag, q0: Sequence[float], dq0: Sequence[float],
                             t0: float = 0.0, t1: float = DEFAULT_HORIZON,
                             h: float = DEFAULT_STEP) -> Trajectory:
    """Integrate the variational equations of a regular Lagrangian.

    At every stage the accelerations solve the linear system
    M(t,q,dq) ddq = dL/dq - d2L/dtddq - (d2L/dqddq) dq with M the velocity
    Hessian.  One generated function evaluates every entry of M and of the
    right-hand side, sharing common subexpressions.  The stage aborts when
    the condition number of M exceeds 1e12: for n <= 3 the exact 1-norm
    condition number in closed form (a zero or non-finite determinant counts
    as infinite), for larger n the 2-norm condition number from LAPACK's
    SVD kernel, bitwise what np.linalg.cond returns.  For n >= 4 a stage
    first asks the generated certificate (`_certificate`), a bound that
    proves the 2-norm condition number at most 1e10 for well-conditioned,
    diagonally dominant M; only a stage it cannot certify runs the SVD, so
    every stage that aborts still aborts, at the same step with the same
    reason.  For n = 1 the solve is a division, bitwise what LAPACK
    returns.  Larger systems fill one float64 buffer per trajectory with M
    and the right-hand side at each stage, which the condition number and
    the solve share, and call LAPACK's solve kernel directly, the one
    np.linalg.solve wraps, so the states are bitwise those np.linalg.solve
    gives.  The floating-point error state that
    np.linalg.solve and np.linalg.svd would enter and leave on every stage
    is held once around the whole trajectory; a singular matrix or an SVD
    that does not converge still raises LinAlgError.
    """
    from .expr import differentiate, simplify_memo
    n = lag.n
    if len(q0) != n or len(dq0) != n:
        raise ValueError(f"initial state needs {n} positions and {n} velocities")
    names = lag.q + lag.dq
    l_expr = lag.lagrangian
    with simplify_memo():   # the Hessian and the right-hand side share dL/ddq
        dv = [differentiate(l_expr, v) for v in lag.dq]
        hess = lag.velocity_hessian()
        # unsimplified nodes, so the arithmetic is that of
        # dL/dq_a - d2L/dtddq_a - (0 + sum_j d2L/ddq_a dq_j * dq_j), in that order,
        # less the constants and IEEE identities the compiler folds; -1*u rather
        # than neg(u), which folds a zero derivative to +0.0 where -1.0*0.0 is -0.0
        rhs_b = [Sum((differentiate(l_expr, lag.q[a]),
                      Product((MINUS_ONE, differentiate(dv[a], "t"))),
                      Product((MINUS_ONE, Sum((Const(0),) + tuple(
                          Product((differentiate(dv[a], qb), Var(vb)))
                          for qb, vb in zip(lag.q, lag.dq)))))))
                 for a in range(n)]
    argnames = ("t",) + names
    system = compile_exprs(hess + rhs_b, argnames)
    hessian = None      # M alone, compiled when a stage first fails
    nn = n * n
    buf = np.empty(nn + n)      # M and the right-hand side of the current stage
    square, right = buf[:nn].reshape(n, n), buf[nn:]
    certified = _certificate(n) if n >= 4 else None

    def check(m, t, square=None):
        if not _hessian_condition(m, n, square) <= HESSIAN_CONDITION_LIMIT:
            raise IntegrationError(
                f"velocity Hessian condition exceeds {HESSIAN_CONDITION_LIMIT:g} at t={t:.6g}")

    def rhs(t, *y):
        nonlocal hessian
        try:
            v = system(t, *y)
        except (EvalDomainError, OverflowError):
            # M is checked before the right-hand side is evaluated, so a
            # singular M outranks a domain error further on
            if hessian is None:
                hessian = compile_exprs(hess, argnames)
            check(hessian(t, *y), t)
            raise
        if n == 1:
            check(v[:1], t)
            return y[1], v[1] / v[0]
        buf[:] = v
        if certified is None or not certified(v):
            check(v[:nn], t, square)
        return y[n:] + tuple(_solve(square, right).tolist())

    with _solve_errstate():
        return Trajectory(tuple(names), t0, h,
                          *_rk4_loop(rhs, list(q0) + list(dq0), t0, t1, h))


def evaluate_along(traj: Trajectory, fn: Callable[..., object]) -> tuple:
    """fn(t, *state) at the grid points t = t0 + k*h up to the first domain
    error, as (values, reason); reason is "truncated at step k: ..." or None.
    A power beyond the float range gets the value that the stored float64
    values give (inf, or what the rest of the expression makes of inf)."""
    values = []
    for k, row in enumerate(traj.states.tolist()):
        t = traj.t0 + k * traj.h
        try:
            try:
                values.append(fn(t, *row))
            except OverflowError:
                # float64 operands give inf where floats raise
                with np.errstate(all="ignore"):
                    values.append(fn(t, *traj.states[k]))
        except EvalDomainError as err:
            return np.array(values), f"truncated at step {k}: {err}"
    return np.array(values), None


def values_along(traj: Trajectory, fn: Callable[..., object], what: str) -> np.ndarray:
    """fn along the whole of traj, as the evidence of a verdict: IntegrationError
    when traj is truncated, when a domain error stops the evaluation ("WHAT
    truncated at step k: ..."), or when a value is not finite."""
    if traj.truncated:
        raise IntegrationError(f"trajectory truncated: {traj.reason}")
    values, reason = evaluate_along(traj, fn)
    if reason is not None:
        raise IntegrationError(f"{what} {reason}")
    bad = np.argwhere(~np.isfinite(values))
    if len(bad):
        raise IntegrationError(f"{what} is not finite at step {bad[0, 0]}")
    return values


def central_residual(f: np.ndarray, g: np.ndarray, h: float) -> float:
    """max_k |(f[k+1] - f[k-1]) / (2h) - g[k]| over the interior grid points,
    0.0 without any; rows are grid points, and the columns of a 2-D f are
    compared with those of g.  Finite values give a finite residual or inf."""
    with np.errstate(over="ignore"):
        return float(np.max(np.abs((f[2:] - f[:-2]) / (2 * h) - g[1:-1]), initial=0.0))


def monitor(traj: Trajectory, exprs: Sequence[Expr],
            labels: Optional[Sequence[str]] = None) -> list:
    """Evaluate expressions along a trajectory (`evaluate_along`); a domain
    error truncates a series and gives its reason, an overflow does not."""
    names = ("t",) + traj.names
    return [MonitorSeries(labels[i] if labels else f"m{i+1}", traj.t0, traj.h,
                          *evaluate_along(traj, compile_expr(e, names)))
            for i, e in enumerate(exprs)]


def compare_with_scalar_ode(series: MonitorSeries, gamma: Expr, g0: float) -> float:
    """Integrate dG/dt = gamma(t, G) on the series' grid and return the
    maximum absolute deviation from the monitored values."""
    n_steps = len(series.values) - 1
    if n_steps < 1:
        raise ValueError("series too short to compare")
    h = series.h
    states, reason = _rk4_loop(compile_exprs([gamma], ("t", "G")), [g0],
                               series.t0, series.t0 + n_steps * h, h)
    if reason is not None:
        raise IntegrationError(f"scalar law integration failed: {reason}")
    return float(np.max(np.abs(states[:, 0] - series.values)))


def trajectory_to_csv(traj: Trajectory, stream, monitors: Sequence[MonitorSeries] = ()) -> None:
    """Write the grid as CSV with full double precision, one row at a time;
    a truncated monitor column is left empty past its last value."""
    header = ["t"] + list(traj.names) + [m.label for m in monitors]
    stream.write(",".join(header) + "\n")
    times = traj.times.tolist()
    columns = [m.values.tolist() for m in monitors]
    if all(len(c) == len(times) for c in columns):
        fmt = ",".join(["%.17g"] * len(header)) + "\n"
        for t, row, *values in zip(times, traj.states, *columns):
            stream.write(fmt % (t, *row.tolist(), *values))
        return
    fmt = ",".join(["%.17g"] * (1 + len(traj.names)))
    for k, (t, row) in enumerate(zip(times, traj.states)):
        cells = [fmt % (t, *row.tolist())]
        cells.extend("%.17g" % c[k] if k < len(c) else "" for c in columns)
        stream.write(",".join(cells) + "\n")
