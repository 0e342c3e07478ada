"""Check orchestration: run the requested verifications on a problem file
in the order of its kind (`HAMILTONIAN_CHECKS`, `LAGRANGIAN_CHECKS`) and
collect structured verdicts.

One table, `CHECKS`, gives each check its report tag, its function and, per
problem kind, the problem-file inputs it requires and the earlier checks
that must pass.  `run_checks` alone enforces them, inputs first: a check is
Skipped with the reason of its first absent input, else with `prerequisite
NAME not selected` or the reason of a prerequisite that did not pass.  On
Lagrangian problems the phase-side checks take the phase field from `xh`
and the perturbation matrix from `lh`.  Mathematical failures are verdicts
(NonZero), never exceptions.  Each check function returns its labelled
verdicts and a detail string, `(checks, detail)`; `run_checks` alone
decides the tag, as the worst of those verdicts (`_aggregate`), or Skipped
or Error.  A residual along a trajectory (mon, gl, lz) is NumericallyZero
within its tolerance and NonZero beyond it (`ZeroVerdict.within`).
Report JSON is byte-stable for a fixed problem, seed and selection (wall
times are never serialized).
"""

from __future__ import annotations

import json
import time
from functools import cached_property
from typing import Callable, Mapping, Optional, Sequence

from . import lagrangian as lagmod
from . import lambda_symmetry as lam_mod
from . import numeric, symmetry
from .expr import (
    Record,
    SamplingError,
    UNTESTED,
    ZeroTestConfig,
    ZeroVerdict,
    compile_expr,
    compile_exprs,
    format_expr,
    generated,
    is_identically_zero,
    simplify_memo,
)
from .mechanics import PhaseSystem
from .problem import ProblemFile

HAMILTONIAN_CHECKS = ("cs", "ds", "g", "case", "las", "dtg", "dts",
                      "chart", "wzl", "sep", "gamma", "mon")
LAGRANGIAN_CHECKS = ("xll", "leg", "xh", "lh", "las", "g", "dtg", "dts",
                     "chart", "wzl", "sep", "gamma", "gl", "lala", "lz", "mon")

# mon's tolerance; mon integrates on numeric's default grid, gl and lz on lagrangian's
MONITOR_TOL = 1e-6

_RANK = {"ProvenZero": 0, "NumericallyZero": 1, "NonZero": 2}


# a run's settings are its zero-test settings; perfbench is the only
# reader of this name
RunConfig = ZeroTestConfig


class CheckRecord(Record):
    __slots__ = ("name", "eq", "verdict", "max_residual", "witness", "detail", "wall_ms")

    def __init__(self, name: str, eq: str, verdict: str, max_residual: Optional[float] = None,
                 witness: Optional[dict] = None, detail: str = "", wall_ms: float = 0.0):
        Record.__init__(self, name, eq, verdict, max_residual, witness, detail, wall_ms)

    @property
    def failed(self) -> bool:
        return self.verdict in ("NonZero", "Error")


class Report(Record):
    __slots__ = ("problem", "seed", "checks")

    def __init__(self, problem: str, seed: int, checks: Optional[list] = None):
        Record.__init__(self, problem, seed, [] if checks is None else checks)

    @property
    def status(self) -> str:
        return "fail" if any(r.failed for r in self.checks) else "pass"

    def record(self, name: str) -> CheckRecord:
        for r in self.checks:
            if r.name == name:
                return r
        raise KeyError(name)


def _aggregate(checks: Sequence[tuple], detail: str):
    """A check's result from its (label, ZeroVerdict) pairs: the worst tag,
    the max residual, the witness of the worst verdict that carries one, and
    the detail.  No pairs is ProvenZero with no residual."""
    if not checks:
        return "ProvenZero", None, None, detail

    def rank(v):
        return _RANK[v.tag], v.max_residual

    verdicts = [v for _, v in checks]
    witnessed = [v for v in verdicts if v.witness is not None]
    witness = max(witnessed, key=rank).witness if witnessed else None
    residuals = [v.max_residual for v in verdicts if v.tag != "ProvenZero"]
    return max(verdicts, key=rank).tag, max(residuals, default=0.0), witness, detail


class _Skip(Exception):
    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


def _need(condition: bool, reason: str):
    if not condition:
        raise _Skip(reason)


class _Context:
    """What the checks of one run read and derive; systems are built by the
    first check that reads them.  A file without a matrix states an exact
    symmetry: Lambda = 0.  On Lagrangian problems `xh` sets the phase field
    `x` and the candidate `g`, and `lh` the phase-side matrix `lam`."""

    def __init__(self, problem: ProblemFile, zc: ZeroTestConfig):
        self.problem = problem
        self.box = problem.box
        self.zc = zc
        self.passed: dict = {}
        self.g = problem.candidates.get("G")
        if problem.kind == "hamiltonian":
            self.x = problem.vector_field()
            self.lam = problem.lam or lam_mod.LambdaMatrix.zeros(2 * problem.n)
        else:
            self.x = self.lam = None
            self.laml = problem.lam or lam_mod.LambdaMatrix.zeros(
                problem.n, lam_mod.LAGRANGIAN_SIDE)

    @cached_property
    def sys(self) -> PhaseSystem:
        if self.problem.kind == "hamiltonian":
            return self.problem.phase_system()
        return PhaseSystem(self.problem.n, self.problem.candidates["H_for_legendre"])

    @cached_property
    def lag(self) -> lagmod.LagrangianSystem:
        return self.problem.lagrangian_system()

    @cached_property
    def xl(self) -> lagmod.ConfigVectorField:
        return self.problem.config_field()


# --------------------------------------------------------------------------
# individual checks; each returns its (label, ZeroVerdict) pairs and detail
# --------------------------------------------------------------------------

def _check_cs(ctx: _Context):
    rep = symmetry.check_point_symmetry(ctx.sys, ctx.x, ctx.box, ctx.zc)
    return rep.checks, f"{2*ctx.problem.n} symmetry-condition residuals"


def _check_ds(ctx: _Context):
    s = symmetry.compute_S(ctx.sys, ctx.x)
    checks = [("dS/dt", symmetry.check_first_integral(ctx.sys, s, ctx.box, ctx.zc))]
    detail = f"S = {format_expr(s)}"
    expected = ctx.problem.candidates.get("S_expected")
    if expected is not None:
        checks.append(("S=S_expected", is_identically_zero(s - expected, ctx.box, ctx.zc)))
        detail += "; matches expected S"
    return checks, detail


def _check_g(ctx: _Context):
    rep = symmetry.generating_function_test(ctx.sys, ctx.x, ctx.box, ctx.g, ctx.zc)
    notes = []
    if rep.sign_flipped:
        notes.append("candidate verified with opposite sign")
    if rep.verified_g is not None:
        notes.append(f"G = {format_expr(rep.verified_g)}")
        notes.append("dG/dt is a function of t alone"
                     if rep.rate_is_time_only else "dG/dt depends on the phase variables")
    return rep.checks, ("; ".join(notes) if notes else "closedness only")


def _check_case(ctx: _Context):
    c = symmetry.classify_symmetry_case(ctx.sys, ctx.x, ctx.box, ctx.g, ctx.zc)
    detail = f"{c.tag}; S = {format_expr(c.s)}"
    if c.g is not None:
        detail += f"; G = {format_expr(c.g)}"
    checks = () if c.s_conservation is None else (("dS/dt", c.s_conservation),)
    return checks, detail


def _check_las(ctx: _Context):
    rep = lam_mod.check_lambda_symmetry(ctx.sys, ctx.x, ctx.lam, ctx.box, ctx.zc)
    return rep.checks, f"{2*ctx.problem.n} perturbed-condition residuals"


def _check_dtg(ctx: _Context):
    _need(ctx.g is not None, "no generating-function candidate")
    rep = lam_mod.check_lambda_constant_G(ctx.sys, ctx.x, ctx.lam, ctx.g, ctx.box, ctx.zc)
    detail = f"dG/dt = {format_expr(rep.rate)}"
    if rep.scalar is not None:
        detail += f"; scalar reduction with lambda = {format_expr(rep.scalar)}"
    return rep.checks, detail


def _check_dts(ctx: _Context):
    rep = lam_mod.check_lambda_constant_S(ctx.sys, ctx.x, ctx.lam, ctx.box, ctx.zc)
    return rep.checks, f"S = {format_expr(rep.s)}; dS/dt = {format_expr(rep.rate)}"


def _check_chart(ctx: _Context):
    chart = ctx.problem.chart
    rep = lam_mod.verify_chart(ctx.sys, ctx.x, chart, ctx.box, ctx.zc)
    return rep.checks, f"{len(chart.w)} invariants + rectification + inversion"


def _check_wzl(ctx: _Context):
    chart = ctx.problem.chart
    rs = lam_mod.reduced_system(ctx.sys, ctx.x, ctx.lam, chart, ctx.box, ctx.zc)
    eqs = [f"d{n}/dt = {format_expr(w)}" for n, w in zip(chart.w_names, rs.w_rhs)]
    eqs.append(f"dz/dt = {format_expr(rs.z_rhs)}")
    flags = ",".join("free" if zf else "z" for zf in rs.z_free)
    return rs.checks, "; ".join(eqs) + f"; z-dependence [{flags}]"


def _check_sep(ctx: _Context):
    sys, x, lam, g, box, zc = ctx.sys, ctx.x, ctx.lam, ctx.g, ctx.box, ctx.zc
    chart = ctx.problem.chart
    _need(g is not None, "no generating-function candidate")
    scalar = lam_mod.scalar_lambda_reduction(sys, x, lam, box, zc)
    _need(scalar is not None, "Lambda Phi is not a scalar multiple of Phi")
    g_index = None
    for j, wj in enumerate(chart.w):
        if is_identically_zero(wj - g, box, zc).ok or \
                is_identically_zero(wj + g, box, zc).ok:
            g_index = j
            break
    _need(g_index is not None, "G is not one of the chart coordinates")
    rep = lam_mod.check_separated_G(sys, x, lam, chart, g_index, box, zc)
    return rep.checks, (f"dG/dt = {format_expr(rep.gamma)} in (t, G)"
                        if rep.gamma is not None else "rate depends on other coordinates")


def _check_gamma(ctx: _Context):
    candidate = ctx.problem.candidates["Gamma"]
    verdict = symmetry.check_first_integral(ctx.sys, candidate, ctx.box, ctx.zc)
    return (("dGamma/dt", verdict),), f"Gamma = {format_expr(candidate)}"


def _check_mon(ctx: _Context):
    problem = ctx.problem
    gamma_law = problem.candidates.get("gamma")
    big_gamma = problem.candidates.get("Gamma")
    _need(gamma_law is not None or big_gamma is not None,
          "nothing to monitor (no gamma or Gamma candidate)")
    checks, notes = [], []
    names = ("t",) + ctx.sys.u
    if problem.kind == "lagrangian":
        # file rows are (q..., dq...); map to phase space via momenta
        lag = ctx.lag
        momenta = generated(lag.lagrangian, ("momenta", lag.n), lambda: compile_exprs(
            lagmod.conjugate_momenta(lag), ("t",) + lag.q + lag.dq))
    for k, ic in enumerate(problem.candidates["initial_conditions"], 1):
        u0 = list(ic)
        if problem.kind == "lagrangian":
            u0 = list(ic[:problem.n]) + list(momenta(0.0, *map(float, ic)))
        traj = numeric.integrate_hamiltonian(ctx.sys, u0)
        if big_gamma is not None:
            values = numeric.values_along(traj, compile_expr(big_gamma, names),
                                          "monitor Gamma").tolist()
            drift = max(abs(v - values[0]) for v in values)
            checks.append((f"drift {k}", ZeroVerdict.within(drift, MONITOR_TOL, len(values))))
            notes.append(f"drift {drift:.3e}")
        if gamma_law is not None and ctx.g is not None:
            values = numeric.values_along(traj, compile_expr(ctx.g, names), "monitor G")
            series = numeric.MonitorSeries("G", traj.t0, traj.h, values)
            dev = numeric.compare_with_scalar_ode(series, gamma_law, float(values[0]))
            checks.append((f"scalar law {k}", ZeroVerdict.within(dev, MONITOR_TOL, len(values))))
            notes.append(f"scalar-law deviation {dev:.3e}")
    # a gamma law without G tests no residual
    return checks or UNTESTED, "; ".join(notes)


# ------------------------------------------------------- lagrangian pipeline

def _check_xll(ctx: _Context):
    verdict = lagmod.check_lagrangian_lambda_invariance(
        ctx.lag, ctx.xl, ctx.laml, ctx.box, ctx.zc)
    return (("invariance", verdict),), "perturbed invariance residual"


def _check_leg(ctx: _Context):
    candidates = ctx.problem.candidates
    rep = lagmod.verify_legendre(ctx.lag, candidates["velocity_map"],
                                 candidates["H_for_legendre"], ctx.box, ctx.zc)
    return rep.checks, f"min |Hessian det| sampled: {rep.min_hessian_det:.3e}"


def _check_xh(ctx: _Context):
    x, g = lagmod.extend_vector_field(ctx.xl, ctx.laml,
                                      ctx.problem.candidates.get("velocity_map"))
    note = (f"G = {format_expr(g)}" if g is not None
            else "velocity-dependent extension; no generating function")
    ctx.x = x
    ctx.g = ctx.problem.candidates.get("G", g)
    psi = ", ".join(format_expr(c) for c in x.psi)
    return (), f"psi = ({psi}); {note}"


def _check_lh(ctx: _Context):
    rep = lagmod.extend_lambda(ctx.xl, ctx.laml,
                               ctx.problem.candidates.get("lambda2_candidate"),
                               ctx.box, ctx.zc)
    ctx.lam = rep.matrix
    how = "solved" if rep.solved else "verified candidate"
    return rep.checks, f"lower-right block {how}"


def _check_gl(ctx: _Context):
    rep = lagmod.check_noether_lambda(ctx.lag, ctx.xl, ctx.laml,
                                      ctx.problem.candidates["initial_conditions"], ctx.box)
    return rep.checks, f"{len(rep.checks)} trajectories, tol {lagmod.NOETHER_TOL:g}"


def _check_lala(ctx: _Context):
    rep = lagmod.check_scalar_condition(ctx.xl, ctx.laml, ctx.box, ctx.zc)
    if rep.scalar is None:
        return rep.checks, rep.note
    scalar = format_expr(rep.scalar)
    return rep.checks, (f"lambda = {scalar}; {rep.note}" if rep.is_constant
                        else f"lambda = {scalar} ({rep.note})")


def _check_lz(ctx: _Context):
    candidates = ctx.problem.candidates
    rep = lagmod.partial_reduction_check(
        ctx.lag, ctx.xl, ctx.laml, candidates.get("eta", ()), candidates["theta"],
        candidates["reduced_L"], candidates["particular_solution"], ctx.box, ctx.zc)
    flow = dict(rep.checks)["constraint flow"].max_residual
    return rep.checks, f"constraint-flow residual {flow:.3e} (tol {lagmod.REDUCTION_TOL:g})"


# --------------------------------------------------------------------------
# the check table
# --------------------------------------------------------------------------

class Check(Record):
    """A row of the check table: tag, function, and per kind of problem the
    (inputs, prerequisites) in the order tested.  An input is (file items,
    reason when one is absent); a prerequisite is (earlier check, reason
    when it ran and did not pass)."""

    __slots__ = ("tag", "fn", "needs")

    def __init__(self, tag: str, fn: Callable[[_Context], tuple], needs: Mapping[str, tuple]):
        Record.__init__(self, tag, fn, needs)


# prerequisites
_CS = ("cs", "point symmetry does not hold")
_LAS = ("las", "perturbed symmetry does not hold")
_CHART = ("chart", "chart verification did not pass")
_XLL = ("xll", "perturbed invariance does not hold")
_XH = ("xh", "phase field not constructed")
_LH = ("lh", "perturbation matrix not extended")

# inputs
_PHASE_H = (("H_for_legendre",), "no Hamiltonian supplied for the phase-side checks")
_LAMBDA = (("lambda",), "no perturbation matrix available")
_CHART_FILE = (("chart",), "no chart in the problem file")
_ICS = (("initial_conditions",), "no initial conditions supplied")


def _phase(tag, fn, inputs=(), prerequisites=(), lam=None, field=True) -> Check:
    """A phase-side check.  On Hamiltonian problems it reads the file's
    field and Lambda, an input when `lam` is "required" (absent means zero
    when "optional").  On Lagrangian problems the phase system is the
    H_for_legendre candidate, Lambda comes from lh and the field from xh
    (unless `field` is false); a missing lh is named before a missing xh."""
    ham = (inputs + ((_LAMBDA,) if lam == "required" else ()), prerequisites)
    lag = ((_PHASE_H,) + inputs,
           ((_LH,) if lam else ()) + ((_XH,) if field else ()) + prerequisites)
    return Check(tag, fn, {"hamiltonian": ham, "lagrangian": lag})


def _only(kind, tag, fn, inputs=(), prerequisites=()) -> Check:
    return Check(tag, fn, {kind: (inputs, prerequisites)})


CHECKS = {
    "cs": _only("hamiltonian", "CS", _check_cs),
    "ds": _only("hamiltonian", "DS", _check_ds, prerequisites=(_CS,)),
    "g": _phase("G", _check_g),
    "case": _only("hamiltonian", "CASE", _check_case, prerequisites=(_CS,)),
    "las": _phase("LAS", _check_las, lam="required"),
    "dtg": _phase("DTG", _check_dtg, prerequisites=(_LAS,), lam="required"),
    "dts": _phase("DTS", _check_dts, prerequisites=(_LAS,), lam="required"),
    "chart": _phase("WZ", _check_chart, inputs=(_CHART_FILE,)),
    "wzl": _phase("WZL", _check_wzl, (_CHART_FILE,), (_CHART,), lam="optional"),
    "sep": _phase("SEP", _check_sep, (_CHART_FILE,), (_CHART,), lam="required"),
    "gamma": _phase("TDI", _check_gamma, field=False,
                    inputs=((("Gamma",), "no time-dependent integral candidate"),)),
    "mon": _phase("MON", _check_mon, inputs=(_ICS,)),
    "xll": _only("lagrangian", "XLL", _check_xll),
    "leg": _only("lagrangian", "LEG", _check_leg, inputs=(
        (("velocity_map", "H_for_legendre"), "velocity map and Hamiltonian are required"),)),
    "xh": _only("lagrangian", "XH", _check_xh),
    "lh": _only("lagrangian", "LH", _check_lh, prerequisites=(_XLL,)),
    "gl": _only("lagrangian", "GL", _check_gl, inputs=(_ICS,), prerequisites=(_XLL,)),
    "lala": _only("lagrangian", "LALA", _check_lala),
    "lz": _only("lagrangian", "LZ", _check_lz, inputs=(
        (("theta", "reduced_L", "particular_solution"),
         "theta, reduced_L and particular_solution are required"),)),
}


def _require(needs: tuple, problem: ProblemFile, passed: dict):
    """Skip unless every input is present and every prerequisite ran and
    passed, testing them in the order declared."""
    inputs, prerequisites = needs
    present = {"lambda": problem.lam, "chart": problem.chart}
    for items, reason in inputs:
        _need(all(present.get(i, problem.candidates.get(i)) for i in items), reason)
    for name, reason in prerequisites:
        _need(name in passed, f"prerequisite {name} not selected")
        _need(passed[name], reason)


def run_checks(problem: ProblemFile, selection: Optional[Sequence[str]] = None,
               cfg: Optional[ZeroTestConfig] = None) -> Report:
    cfg = cfg or ZeroTestConfig()
    order = HAMILTONIAN_CHECKS if problem.kind == "hamiltonian" else LAGRANGIAN_CHECKS
    if selection is not None:
        unknown = set(selection) - set(order)
        if unknown:
            raise ValueError(f"unknown checks for {problem.kind} kind: {sorted(unknown)}")
        wanted = [c for c in order if c in set(selection)]
    else:
        wanted = list(order)

    records = []
    ctx = _Context(problem, cfg)
    # the checks of one run share subtrees (canonical equations, derivatives
    # of H, components of Lambda Phi); their normal forms are kept for the run
    with simplify_memo():
        for name in wanted:
            check = CHECKS[name]
            t_start = time.perf_counter()
            try:
                _require(check.needs[problem.kind], problem, ctx.passed)
                result = _aggregate(*check.fn(ctx))
            except _Skip as sk:
                result = "Skipped", None, None, sk.reason
            except (SamplingError, ValueError, RuntimeError, ArithmeticError) as err:
                result = "Error", None, None, str(err)
            records.append(CheckRecord(name, check.tag, *result,
                                       (time.perf_counter() - t_start) * 1e3))
            ctx.passed[name] = result[0] in ("ProvenZero", "NumericallyZero")
    return Report(problem.name, cfg.seed, records)


# --------------------------------------------------------------------------
# report emission
# --------------------------------------------------------------------------

def report_to_json(report: Report) -> str:
    checks = []
    for r in report.checks:
        entry = {"name": r.name, "eq": r.eq, "verdict": r.verdict}
        if r.max_residual is not None:
            entry["max_residual"] = r.max_residual
        if r.witness is not None:
            entry["witness"] = {k: r.witness[k] for k in sorted(r.witness)}
        if r.detail:
            entry["detail"] = r.detail
        checks.append(entry)
    doc = {"problem": report.problem, "seed": report.seed,
           "checks": checks, "status": report.status}
    return json.dumps(doc, indent=2, sort_keys=False)


def report_to_text(report: Report) -> str:
    lines = [f"problem {report.problem} (seed {report.seed})"]
    for r in report.checks:
        resid = f" {r.max_residual:.3e}" if r.max_residual is not None else ""
        line = f"{r.name:<6} [{r.eq}] {r.verdict}{resid}"
        if r.verdict in ("Skipped", "Error") and r.detail:
            line += f" ({r.detail})"
        lines.append(line)
    lines.append(f"status: {report.status}")
    return "\n".join(lines)

