"""Deterministic fixed-step integration and trajectory monitoring.

The integrator is the classical 4th-order one-step method with a fixed
step, chosen over adaptive or symplectic schemes so that identical runs
produce identical grids and values on every platform; the monitored
quantities here are deliberately non-conserved, so structure
preservation would buy nothing.
"""

from __future__ import annotations

import functools
import math
import struct
from typing import Callable, Optional, Sequence

import numpy as np
from numpy.linalg import LinAlgError
from numpy.linalg._umath_linalg import solve1 as _lapack_solve, svd as _lapack_svd

from . import expr
from .expr import (
    Const,
    EvalDomainError,
    Expr,
    MINUS_ONE,
    Product,
    Record,
    Sum,
    Var,
    compile_expr,
    compile_exprs,
    differentiate,
    simplify_memo,
)

DEFAULT_STEP = 1e-3
DEFAULT_HORIZON = 1.0
SAFETY_LIMIT = 1e6
MAX_GRID_STEPS = 10**7      # longest grid a trajectory may ask for
CSV_CHUNK_ROWS = 256       # rows `trajectory_to_csv` formats per write
RK4_CHUNK_STEPS = 256      # steps `_rk4_loop` runs per call of the generated loop
HESSIAN_CONDITION_LIMIT = 1e12


class IntegrationError(RuntimeError):
    """Integration could not proceed (singular or ill-conditioned system), or
    a trajectory a check needs was truncated."""


class Trajectory(Record):
    """States on the uniform grid t0 + k*h, one row per grid point; `reason`
    says why the trajectory ends early, if it does."""

    __slots__ = ("names", "t0", "h", "states", "reason")

    def __init__(self, names: tuple, t0: float, h: float, states: np.ndarray,
                 reason: Optional[str] = None):
        Record.__init__(self, names, t0, h, states, reason)

    @property
    def truncated(self) -> bool:
        return self.reason is not None

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.h * np.arange(len(self.states))


class MonitorSeries(Record):
    """Pointwise values of one expression along a trajectory; `reason` says
    why the series ends early, if it does."""

    __slots__ = ("label", "t0", "h", "values", "reason")

    def __init__(self, label: str, t0: float, h: float, values: np.ndarray,
                 reason: Optional[str] = None):
        Record.__init__(self, label, t0, h, values, reason)

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


@functools.cache
def _loop(d: int) -> Callable[..., None]:
    """The RK4 loop for states of d components, generated once per d:
    loop(f, append, t0, h, half, sixth, limit, k0, k1, y0, ..., y{d-1})
    runs the steps k = k0, ..., k1 - 1 from the state y, at t = t0 + k*h,
    and appends each new state as a tuple; it returns, without appending,
    at the first new state with a component that fails |r| <= limit.

    The stages are `a + half * b` (`a + h * b` for the last), at t + half
    computed once, and the update `a + sixth * (b1 + (b2 + b2) + (b3 + b3) + b4)`,
    componentwise on locals: the same values as a float64 array loop, since
    b + b is 2 * b exactly."""
    y, a, b, c, e = ([f"{p}{i}" for i in range(d)] for p in "yabce")
    ys = ", ".join(y)
    lines = [f"def loop(f, append, t0, h, half, sixth, limit, k0, k1, {ys}):",
             " for k in range(k0, k1):",
             "  t = t0 + k * h",
             "  t_half = t + half",
             f"  {''.join(v + ',' for v in a)} = f(t, {ys})"]
    lines += [f"  {''.join(v + ',' for v in out)} = f({at}, "
              f"{', '.join(f'{yi} + {coef} * {ki}' for yi, ki in zip(y, k))})"
              for out, at, coef, k in ((b, "t_half", "half", a), (c, "t_half", "half", b),
                                       (e, "t + h", "h", c))]
    lines += [f"  {yi} = {yi} + sixth * ({ai} + ({bi} + {bi}) + ({ci} + {ci}) + {ei})"
              for yi, ai, bi, ci, ei in zip(y, a, b, c, e)]
    lines += [f"  if not ({' and '.join(f'abs({yi}) <= limit' for yi in y)}):",
              "   return",
              f"  append(({ys},))"]
    return expr._define(lines, "loop")


def _rk4_loop(f: Callable[..., Sequence[float]], y0: Sequence[float],
              t0: float, t1: float, h: float):
    """Fixed-step integration of dy/dt = f(t, *y) on plain floats; returns
    (states, reason) where reason is a diagnostic when the trajectory left
    the safety box |y_i| <= SAFETY_LIMIT or hit a domain error and was
    truncated.

    The steps run in chunks of RK4_CHUNK_STEPS, each one call of `_loop`,
    so the states are bitwise those of a componentwise float64 array loop.
    A chunk appends its states to a list that holds the state it starts
    from, which is copied into the states array and cut back to its last
    state before the next chunk.  A power or exp beyond the float range
    raises OverflowError on floats where a float64 array would hold inf; it
    ends the trajectory at that step as having left the safety box, as the
    inf would."""
    steps = _grid_steps(t0, t1, h)
    y = tuple(map(float, y0))
    if not all(map(math.isfinite, y)):
        raise ValueError("initial state must be finite")
    states = np.empty((steps + 1, len(y)))
    loop, chunk, rows = _loop(len(y)), RK4_CHUNK_STEPS, [y]
    half, sixth = h / 2, h / 6
    for k0 in range(0, steps, chunk):
        k1, failure = min(k0 + chunk, steps), None
        try:
            # |v| <= SAFETY_LIMIT also rejects inf and nan
            loop(f, rows.append, t0, h, half, sixth, SAFETY_LIMIT, k0, k1, *rows[-1])
        except OverflowError:
            pass
        except EvalDomainError as err:
            failure = err
        k = k0 + len(rows) - 1      # the last state is that of grid point k
        states[k0:k + 1] = rows
        del rows[:-1]
        if k < k1:
            t = t0 + k * h
            return states[:k + 1].copy(), (f"state left safety box at t={t + h:.6g}"
                                           if failure is None else
                                           f"domain error at t={t:.6g}: {failure}")
    return states, None


def integrate_first_order(exprs: Sequence[Expr], names: Sequence[str],
                          y0: Sequence[float], t0: float = 0.0,
                          t1: float = DEFAULT_HORIZON, h: float = DEFAULT_STEP) -> Trajectory:
    """Integrate dy/dt = f(t, y) given componentwise expressions.  The flow is
    compiled once and kept under the first expression, with the rest as
    inputs (`expr.generated`), so integrating it again compiles nothing."""
    names = tuple(names)
    f = expr.generated(exprs[0], ("first order", names, len(exprs)), compile_exprs, exprs,
                       ("t",) + names, inputs=exprs[1:])
    return Trajectory(names, t0, h, *_rk4_loop(f, y0, t0, t1, h))


def integrate_hamiltonian(sys, u0: Sequence[float], t0: float = 0.0,
                          t1: float = DEFAULT_HORIZON, h: float = DEFAULT_STEP) -> Trajectory:
    """Integrate the canonical equations from u0 = (q..., p...).  They are
    derived and compiled once per H and n, and the code is kept while H lives
    (`expr.generated`), so another system over the same H, from another
    initial condition, neither derives nor compiles again."""
    from .mechanics import canonical_equations
    if len(u0) != 2 * sys.n:
        raise ValueError(f"initial state needs {2*sys.n} components")
    flow = expr.generated(sys.hamiltonian, ("flow", sys.n),
                          lambda: compile_exprs(canonical_equations(sys), ("t",) + sys.u))
    return Trajectory(sys.u, t0, h, *_rk4_loop(flow, u0, t0, t1, h))


def _raise_singular(err: str, flag: int) -> None:
    raise LinAlgError("Singular matrix")


def _solve_errstate() -> np.errstate:
    """The floating-point error state that np.linalg.solve and np.linalg.svd
    hold around their LAPACK kernels.  The solve kernel signals `invalid`
    only for a singular matrix, the SVD kernel only when it does not
    converge; either raises LinAlgError.  Every other flag is ignored."""
    return np.errstate(call=_raise_singular, invalid="call", over="ignore",
                       divide="ignore", under="ignore")


# _solve(m, b) is x with m x = b, for an n x n float64 array m and a length-n
# one b: the LAPACK kernel (dgesv) that np.linalg.solve calls on float64
# operands, without its wrapper, so the result is bitwise the same; float64
# operands select its "dd->d" loop.  Call it inside `_solve_errstate()`, or a
# singular m gives nan instead of raising LinAlgError.
_solve = _lapack_solve


def _extremum(name: str, terms: list, op: str = ">") -> list:
    """Source lines that set `name` to max(terms), or min(terms) for op "<",
    as the builtin gives it, nan included: a term replaces the running value
    only when it compares op to it."""
    return [f"{name} = {terms[0]}"] + [
        f"{name} = term if (term := {s}) {op} {name} else {name}" for s in terms[1:]]


def _condition_lines(n: int) -> list:
    """Source lines that set `cond` to the exact 1-norm condition number
    ||M||_1 ||adj M||_1 / |det M| of the row-major n x n matrix in the locals
    m0, m1, ..., for n <= 3; infinite when M is singular or not finite.
    The Euler-Lagrange stage runs them.  They take each |m_ij| and |det M|
    once, write max as comparisons (`_extremum`) and test 0 < |det M| < inf,
    so cond is bitwise what the builtins abs, max and math.isfinite give."""
    if n == 1:
        return ["cond = 1.0 if 0.0 < abs(m0) < _inf else _inf"]
    if n == 2:
        lines = [f"a{i} = abs(m{i})" for i in range(4)]
        lines += ["det = m0 * m3 - m1 * m2",
                  *_extremum("norm_m", ["a0 + a2", "a1 + a3"]),
                  *_extremum("norm_adj", ["a3 + a2", "a1 + a0"])]
    else:
        # cofactors; adj M is their transpose, so its column sums are their row sums
        lines = ["c00, c01, c02 = m4 * m8 - m5 * m7, m5 * m6 - m3 * m8, m3 * m7 - m4 * m6",
                 "c10, c11, c12 = m2 * m7 - m1 * m8, m0 * m8 - m2 * m6, m1 * m6 - m0 * m7",
                 "c20, c21, c22 = m1 * m5 - m2 * m4, m2 * m3 - m0 * m5, m0 * m4 - m1 * m3",
                 "det = m0 * c00 + m1 * c01 + m2 * c02",
                 *_extremum("norm_m", [" + ".join(f"abs(m{i + j})" for i in (0, 3, 6))
                                       for j in range(3)]),
                 *_extremum("norm_adj", [" + ".join(f"abs(c{i}{j})" for j in range(3))
                                         for i in range(3)])]
    return lines + ["ad = abs(det)",
                    "cond = norm_m / ad * norm_adj if 0.0 < ad < _inf else _inf"]


def _hessian_condition(m: Sequence[float], n: int) -> float:
    """The 2-norm condition number of the row-major n x n matrix m, the
    largest over the smallest singular value; infinite when m is singular or
    not finite.  An Euler-Lagrange stage for n >= 4 calls it when its
    certificate cannot decide.

    It comes from the LAPACK kernel (dgesdd) that np.linalg.svd and
    np.linalg.cond call on float64 operands, without their wrapper, so it
    is bitwise what np.linalg.cond returns.  Inside `_solve_errstate()` an
    SVD that does not converge raises LinAlgError; outside it the kernel
    warns and the result is inf.
    """
    if not all(map(math.isfinite, m)):
        return math.inf
    try:
        s = _lapack_svd(np.array(m).reshape(n, n), signature="d->d").tolist()
    except LinAlgError:
        raise LinAlgError("SVD did not converge") from None
    return s[0] / s[-1] if s[-1] > 0.0 else math.inf


def _exceeded(t: float, limit: float) -> IntegrationError:
    return IntegrationError(f"velocity Hessian condition exceeds {limit:g} at t={t:.6g}")


def _certificate_lines(n: int, literals: Optional[dict] = None) -> list:
    """Source lines that set `cert` for the row-major n x n matrix M in the
    locals m0, m1, ...: True only when a bound proves that the 2-norm
    condition number of M is at most `cert_limit`, the condition limit over
    100; False when the bound cannot decide.  The Euler-Lagrange stage for
    n >= 4 runs them.  `literals` maps the indices of entries that are float
    literals in the stage to their values: their absolute values are
    constants, and each sum leads with its constants, which Python folds.

    The bounds are Johnson's lower bound on the smallest singular value,
    lb = min_i (|m_ii| - (R_i + C_i) / 2) with R_i and C_i the off-diagonal
    absolute sums of row and column i, and ub = sqrt(||M||_1) sqrt(||M||_inf)
    on the largest; M is certified when the sum of all |m_ij|, nan or inf
    when an entry is, is finite, 0 < lb and ub <= lb * cert_limit.  The
    factor 100 absorbs the rounding of the bounds and the SVD's own error,
    of order n eps kappa, so `_hessian_condition` of a certified M is finite
    and far below the limit.  min and max are written as comparisons
    (`_extremum`), so cert is what the builtins min and max give."""
    literals, rows = literals or {}, range(n)
    a = [[repr(abs(literals[i * n + j])) if i * n + j in literals else f"a{i}_{j}"
          for j in rows] for i in rows]
    lines = [f"{a[i][j]} = abs(m{i * n + j})" for i in rows for j in rows
             if i * n + j not in literals]

    def total(terms: list, name: str = "") -> str:
        # the sum, constants first: parenthesized when it is a constant, else
        # bound to the local `name` when one is given
        src = " + ".join(sorted(terms, key=str.isidentifier))
        if not any(map(str.isidentifier, terms)):
            return f"({src})"
        if name:
            lines.append(f"{name} = {src}")
        return name or src

    r = [total([a[i][j] for j in rows if j != i], f"r{i}") for i in rows]
    c = [total([a[i][j] for i in rows if i != j], f"c{j}") for j in rows]
    s = [total([a[i][i], r[i]], f"s{i}") for i in rows]
    return (lines + _extremum("lb", [f"{a[i][i]} - 0.5 * ({r[i]} + {c[i]})" for i in rows], "<")
            + _extremum("norm_1", [total([a[j][j], c[j]]) for j in rows])
            + _extremum("norm_inf", s)
            + [f"cert = {total(s)} < _inf and 0.0 < lb and"
               " _root(norm_1) * _root(norm_inf) <= lb * cert_limit"])


def _euler_lagrange_stage(lag) -> Callable:
    """bind(solve, limit, buf, square, right) for the system lag; it returns
    the flow's Euler-Lagrange vector field rhs(t, q..., dq...).

    rhs evaluates M, tests its condition number against limit, and only then
    evaluates the right-hand side b (`_euler_lagrange_system`), so a singular
    M outranks any error in b.  One `expr._Fuser` assigns both to locals,
    each in a try block, binding the subtrees b shares with M while M is
    emitted; a division by zero or sin or cos of inf raises as
    `expr._domain_error` gives it.  `expr._define` makes the code.  The test is `_condition_lines` for
    n <= 3; for n >= 4 it is `_certificate_lines`, with cert_limit =
    limit / 100 and the entries of M that compile to float literals folded,
    then, when that cannot decide, `_hessian_condition`'s SVD, outside the
    handler (LinAlgError is a ValueError).
    It returns dq and M^-1 b: b / M for n = 1, bitwise what LAPACK returns;
    for larger n it packs M and b into the bytearray buf, which the float64
    views square and right share, and calls solve(square, right), LAPACK's
    solve kernel (`_solve`)."""
    n = lag.n
    nn, names = n * n, ("t",) + lag.q + lag.dq
    fuser = expr._Fuser(_euler_lagrange_system(lag), names)
    args, t = ", ".join(fuser.sym[v] for v in names), fuser.sym["t"]
    dq, m = [fuser.sym[v] for v in lag.dq], [f"m{i}" for i in range(nn)]
    b, x = [f"b{i}" for i in range(n)], [f"x{i}" for i in range(n)]

    lines = fuser.assign(m, fuser.roots[:nn])
    if n <= 3:
        lines += _condition_lines(n)
        test = "cond <= limit"
    else:
        lines += _certificate_lines(n, {k: r for k, r in enumerate(fuser.roots[:nn])
                                        if type(r) is float})
        test = f"cert or _hessian_condition(({', '.join(m)}), {n}) <= limit"
    lines += [f"if not ({test}):", f" raise _exceeded({t}, limit)"]
    lines += fuser.assign(b, fuser.roots[nn:])
    if n == 1:
        lines += [f"return {dq[0]}, b0 / m0"]
    else:
        lines += [f"_pack_into(buf, 0, {', '.join(m + b)})",
                  f"{', '.join(x)}, = solve(square, right).tolist()",
                  f"return {', '.join(dq + x)}"]
    head = ["def bind(solve, limit, buf, square, right):"]
    head += [" cert_limit = limit / 100"] * (n > 3) + [f" def rhs({args}):"]
    return expr._define(head + [f"  {line}" for line in lines] + [" return rhs"], "bind",
                        _root=math.sqrt, _exceeded=_exceeded, _hessian_condition=_hessian_condition,
                        _pack_into=struct.Struct(f"{nn + n}d").pack_into)


def _euler_lagrange_system(lag) -> list:
    """The n*n velocity Hessian entries, row-major, then the n right-hand
    sides dL/dq_a - d2L/dtddq_a - sum_b d2L/ddq_a dq_b * dq_b, unsimplified."""
    l_expr = lag.lagrangian
    with simplify_memo():   # the Hessian and the right-hand side share dL/ddq
        dv = [differentiate(l_expr, v) for v in lag.dq]
        hess = lag.velocity_hessian()
        # unsimplified nodes, so the arithmetic is that of
        # dL/dq_a - d2L/dtddq_a - (0 + sum_j d2L/ddq_a dq_j * dq_j), in that order,
        # less the constants and IEEE identities the compiler folds; -1*u rather
        # than neg(u), which folds a zero derivative to +0.0 where -1.0*0.0 is -0.0
        return hess + [Sum((differentiate(l_expr, lag.q[a]),
                            Product((MINUS_ONE, differentiate(dv[a], "t"))),
                            Product((MINUS_ONE, Sum((Const(0),) + tuple(
                                Product((differentiate(dv[a], qb), Var(vb)))
                                for qb, vb in zip(lag.q, lag.dq)))))))
                       for a in range(lag.n)]


def integrate_euler_lagrange(lag, q0: Sequence[float], dq0: Sequence[float],
                             t0: float = 0.0, t1: float = DEFAULT_HORIZON,
                             h: float = DEFAULT_STEP) -> Trajectory:
    """Integrate the variational equations of a regular Lagrangian.

    At every stage the accelerations solve the linear system
    M(t,q,dq) ddq = dL/dq - d2L/dtddq - (d2L/dqddq) dq with M the velocity
    Hessian, in one call of the stage (`_euler_lagrange_stage`).  The stage
    is generated once per L and n and kept while L lives (`expr.generated`),
    so another system over the same L neither derives nor compiles again;
    each flow binds it to the solve kernel, to one bytearray of its own for
    M and the right-hand side and to HESSIAN_CONDITION_LIMIT as they are
    when the flow starts.  It aborts when the condition number of M exceeds
    the limit: for n <= 3 the exact 1-norm one, for larger n the 2-norm one,
    bitwise what np.linalg.cond returns.  M is tested before the right-hand
    side is evaluated, so a singular M outranks a domain error there.  The
    states are bitwise those np.linalg.solve gives.  The floating-point
    error state that np.linalg.solve and np.linalg.svd would enter and leave
    on every stage is held once around the whole trajectory; a singular
    matrix or an SVD that does not converge still raises LinAlgError.
    """
    n = lag.n
    if len(q0) != n or len(dq0) != n:
        raise ValueError(f"initial state needs {n} positions and {n} velocities")
    names = lag.q + lag.dq
    bind = expr.generated(lag.lagrangian, ("stage", n), _euler_lagrange_stage, lag)
    nn = n * n
    buf = bytearray(8 * (nn + n))   # M and the right-hand side of the current stage
    shared = np.frombuffer(buf)
    rhs = bind(_solve, HESSIAN_CONDITION_LIMIT, buf, shared[:nn].reshape(n, n), shared[nn:])
    with _solve_errstate():
        return Trajectory(names, t0, h, *_rk4_loop(rhs, list(q0) + list(dq0), t0, t1, h))


def evaluate_along(traj: Trajectory, fn: Callable[..., object]) -> tuple:
    """fn(t, *state) at the grid points t = t0 + k*h up to the first row
    k that raises, as (values, reason); reason is "truncated at step k: ..."
    with a domain error's message or "overflow", or None.  One map runs fn
    over the times and the state columns."""
    values = []
    try:
        values.extend(map(fn, traj.times.tolist(), *traj.states.T.tolist()))
        return np.array(values), None
    except OverflowError:
        err = "overflow"
    except EvalDomainError as exc:
        err = exc
    return np.array(values), f"truncated at step {len(values)}: {err}"


def values_along(traj: Trajectory, fn: Callable[..., object], what: str) -> np.ndarray:
    """fn along the whole of traj, as the evidence of a verdict: IntegrationError
    when traj is truncated, when a domain error or an overflow stops the
    evaluation ("WHAT truncated at step k: ..."), or when a value is not
    finite."""
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
    error or an overflow truncates a series and gives its reason."""
    names = ("t",) + traj.names
    return [MonitorSeries(labels[i] if labels else f"m{i+1}", traj.t0, traj.h,
                          *evaluate_along(traj, compile_expr(e, names)))
            for i, e in enumerate(exprs)]


def compare_with_scalar_ode(series: MonitorSeries, gamma: Expr, g0: float) -> float:
    """Integrate dG/dt = gamma(t, G) on the series' grid
    (`integrate_first_order`) and return the maximum absolute deviation from
    the monitored values."""
    n_steps = len(series.values) - 1
    if n_steps < 1:
        raise ValueError("series too short to compare")
    t0, h = series.t0, series.h
    law = integrate_first_order([gamma], ("G",), [g0], t0, t0 + n_steps * h, h)
    if law.truncated:
        raise IntegrationError(f"scalar law integration failed: {law.reason}")
    return float(np.max(np.abs(law.states[:, 0] - series.values)))


def trajectory_to_csv(traj: Trajectory, stream, monitors: Sequence[MonitorSeries] = ()) -> None:
    """Write the grid as CSV with full double precision, at most
    CSV_CHUNK_ROWS rows per write; a truncated monitor column is left empty
    past its last value."""
    header = ["t"] + list(traj.names) + [m.label for m in monitors]
    stream.write(",".join(header) + "\n")
    states, times, rows = traj.states, traj.times, len(traj.states)
    lengths = [len(m.values) for m in monitors]
    # within a chunk every monitor column is either full or empty
    cuts = sorted({*range(0, rows, CSV_CHUNK_ROWS), *(k for k in lengths if k < rows), rows})
    for k0, k1 in zip(cuts, cuts[1:]):
        fmt = ",".join(["%.17g"] * (1 + len(traj.names))
                       + ["%.17g" if k > k0 else "" for k in lengths]) + "\n"
        cells = np.column_stack([times[k0:k1], states[k0:k1]]
                                + [m.values[k0:k1] for m, k in zip(monitors, lengths) if k > k0])
        stream.write(fmt * (k1 - k0) % tuple(cells.ravel().tolist()))
