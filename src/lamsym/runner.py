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
(NonZero), never exceptions.  A check's result is the worst of the
labelled verdicts its library function returns in `checks` (`_aggregate`).
Report JSON is byte-stable for a fixed problem, seed and selection (wall
times are never serialized).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from . import lagrangian as lagmod
from . import lambda_symmetry as lam_mod
from . import numeric, symmetry
from .expr import (
    SamplingError,
    ZeroTestConfig,
    compile_expr,
    compile_exprs,
    format_expr,
    is_identically_zero,
    simplify_memo,
)
from .mechanics import PhaseSystem
from .problem import ProblemFile

HAMILTONIAN_CHECKS = ("cs", "ds", "g", "case", "las", "dtg", "dts",
                      "chart", "wzl", "sep", "gamma", "mon")
LAGRANGIAN_CHECKS = ("xll", "leg", "xh", "lh", "las", "g", "dtg", "dts",
                     "chart", "wzl", "sep", "gamma", "gl", "lala", "lz", "mon")

# trajectory settings of the integrating checks (mon, gl, lz)
TRAJECTORY_T1 = 1.0
TRAJECTORY_H = 1e-3
MONITOR_TOL = 1e-6
NOETHER_T1 = 0.5
NOETHER_TOL = 1e-5
REDUCTION_TOL = 1e-5

_RANK = {"ProvenZero": 0, "NumericallyZero": 1, "NonZero": 2}


# a run's settings are its zero-test settings; callers of run_checks
# (perfbench among them) still name them RunConfig
RunConfig = ZeroTestConfig


@dataclass
class CheckRecord:
    name: str
    eq: str
    verdict: str
    max_residual: Optional[float] = None
    witness: Optional[dict] = None
    detail: str = ""
    wall_ms: float = 0.0

    @property
    def failed(self) -> bool:
        return self.verdict in ("NonZero", "Error")


@dataclass
class Report:
    problem: str
    seed: int
    checks: list = field(default_factory=list)

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
    the max scaled residual, the worst witness, and the detail."""
    if not checks:
        return "ProvenZero", None, None, detail
    verdicts = [v for _, v in checks]
    worst = max(verdicts, key=lambda v: (_RANK[v.tag], v.max_residual))
    residuals = [v.max_residual for v in verdicts if v.tag != "ProvenZero"]
    max_resid = max(residuals) if residuals else 0.0
    return worst.tag, max_resid, worst.witness, detail


class _Skip(Exception):
    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


def _need(condition: bool, reason: str):
    if not condition:
        raise _Skip(reason)


class _Context:
    """What the checks of one run read and derive.  Systems are built on
    first use, by the first check that reads them.  On
    Lagrangian problems `xh` sets the phase field `x` and the candidate `g`,
    and `lh` sets the matrix `lam`."""

    def __init__(self, problem: ProblemFile, zc: ZeroTestConfig):
        self.problem = problem
        self.box = problem.box
        self.zc = zc
        self.passed: dict = {}
        self.g = problem.candidates.get("G")
        if problem.kind == "hamiltonian":
            self.x = problem.vector_field()
            self.lam = problem.lam
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
# individual checks; each returns (verdict, max_residual, witness, detail)
# --------------------------------------------------------------------------

def _check_cs(ctx: _Context):
    rep = symmetry.check_point_symmetry(ctx.sys, ctx.x, ctx.box, ctx.zc)
    return _aggregate(rep.checks, f"{2*ctx.problem.n} symmetry-condition residuals")


def _check_ds(ctx: _Context):
    s = symmetry.compute_S(ctx.sys, ctx.x)
    checks = [("dS/dt", symmetry.check_first_integral(ctx.sys, s, ctx.box, ctx.zc))]
    detail = f"S = {format_expr(s)}"
    expected = ctx.problem.candidates.get("S_expected")
    if expected is not None:
        checks.append(("S=S_expected", is_identically_zero(s - expected, ctx.box, ctx.zc)))
        detail += "; matches expected S"
    return _aggregate(checks, detail)


def _check_g(ctx: _Context):
    rep = symmetry.generating_function_test(ctx.sys, ctx.x, ctx.box, ctx.g, ctx.zc)
    notes = []
    if rep.sign_flipped:
        notes.append("candidate verified with opposite sign")
    if rep.verified_g is not None:
        notes.append(f"G = {format_expr(rep.verified_g)}")
        notes.append("dG/dt is a function of t alone"
                     if rep.rate_is_time_only else "dG/dt depends on the phase variables")
    return _aggregate(rep.checks, "; ".join(notes) if notes else "closedness only")


def _check_case(ctx: _Context):
    c = symmetry.classify_symmetry_case(ctx.sys, ctx.x, ctx.box, ctx.g, ctx.zc)
    detail = f"{c.tag}; S = {format_expr(c.s)}"
    if c.g is not None:
        detail += f"; G = {format_expr(c.g)}"
    if c.s_conservation is not None:
        return _aggregate((("dS/dt", c.s_conservation),), detail)
    return "ProvenZero", None, None, detail


def _check_las(ctx: _Context):
    rep = lam_mod.check_lambda_symmetry(ctx.sys, ctx.x, ctx.lam, ctx.box, ctx.zc)
    return _aggregate(rep.checks, f"{2*ctx.problem.n} perturbed-condition residuals")


def _check_dtg(ctx: _Context):
    _need(ctx.g is not None, "no generating-function candidate")
    rep = lam_mod.check_lambda_constant_G(ctx.sys, ctx.x, ctx.lam, ctx.g, ctx.box, ctx.zc)
    detail = f"dG/dt = {format_expr(rep.rate)}"
    if rep.scalar is not None:
        detail += f"; scalar reduction with lambda = {format_expr(rep.scalar)}"
    return _aggregate(rep.checks, detail)


def _check_dts(ctx: _Context):
    rep = lam_mod.check_lambda_constant_S(ctx.sys, ctx.x, ctx.lam, ctx.box, ctx.zc)
    return _aggregate(rep.checks, f"S = {format_expr(rep.s)}; dS/dt = {format_expr(rep.rate)}")


def _check_chart(ctx: _Context):
    chart = ctx.problem.chart
    rep = lam_mod.verify_chart(ctx.sys, ctx.x, chart, ctx.box, ctx.zc)
    return _aggregate(rep.checks, f"{len(chart.w)} invariants + rectification + inversion")


def _check_wzl(ctx: _Context):
    chart = ctx.problem.chart
    # a Hamiltonian file without a matrix states an exact symmetry: Lambda = 0
    lam = ctx.lam or lam_mod.LambdaMatrix.zeros(2 * ctx.problem.n)
    rs = lam_mod.reduced_system(ctx.sys, ctx.x, lam, chart, ctx.box, ctx.zc)
    eqs = [f"d{n}/dt = {format_expr(w)}" for n, w in zip(chart.w_names, rs.w_rhs)]
    eqs.append(f"dz/dt = {format_expr(rs.z_rhs)}")
    flags = ",".join("free" if zf else "z" for zf in rs.z_free)
    return _aggregate(rs.checks, "; ".join(eqs) + f"; z-dependence [{flags}]")


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
    return _aggregate(rep.checks,
                      f"dG/dt = {format_expr(rep.gamma)} in (t, G)"
                      if rep.gamma is not None else "rate depends on other coordinates")


def _check_gamma(ctx: _Context):
    candidate = ctx.problem.candidates["Gamma"]
    verdict = symmetry.check_first_integral(ctx.sys, candidate, ctx.box, ctx.zc)
    return _aggregate((("dGamma/dt", verdict),), f"Gamma = {format_expr(candidate)}")


def _check_mon(ctx: _Context):
    problem = ctx.problem
    gamma_law = problem.candidates.get("gamma")
    big_gamma = problem.candidates.get("Gamma")
    _need(gamma_law is not None or big_gamma is not None,
          "nothing to monitor (no gamma or Gamma candidate)")
    worst = 0.0
    notes = []
    names = ("t",) + ctx.sys.u
    gamma_fn = g_fn = law = None    # compiled after the first flow, so errors keep their order
    if problem.kind == "lagrangian":
        # file rows are (q..., dq...); map to phase space via momenta
        lag = ctx.lag
        momenta = compile_exprs(lagmod.conjugate_momenta(lag), ("t",) + lag.q + lag.dq)
    for ic in problem.candidates["initial_conditions"]:
        u0 = list(ic)
        if problem.kind == "lagrangian":
            u0 = list(ic[:problem.n]) + list(momenta(0.0, *map(float, ic)))
        traj = numeric.integrate_hamiltonian(ctx.sys, u0, 0.0, TRAJECTORY_T1, TRAJECTORY_H)
        if big_gamma is not None:
            gamma_fn = gamma_fn or compile_expr(big_gamma, names)
            values = numeric.values_along(traj, gamma_fn, "monitor Gamma")
            drift = float(np.max(np.abs(values - values[0])))
            worst = max(worst, drift)
            notes.append(f"drift {drift:.3e}")
        if gamma_law is not None and ctx.g is not None:
            g_fn = g_fn or compile_expr(ctx.g, names)
            values = numeric.values_along(traj, g_fn, "monitor G")
            series = numeric.MonitorSeries("G", traj.t0, traj.h, values)
            law = law or compile_exprs([gamma_law], ("t", "G"))
            dev = numeric.compare_with_scalar_ode(series, law, float(values[0]))
            worst = max(worst, dev)
            notes.append(f"scalar-law deviation {dev:.3e}")
    verdict = "NumericallyZero" if worst <= MONITOR_TOL else "NonZero"
    return verdict, worst, None, "; ".join(notes)


# ------------------------------------------------------- lagrangian pipeline

def _check_xll(ctx: _Context):
    verdict = lagmod.check_lagrangian_lambda_invariance(
        ctx.lag, ctx.xl, ctx.laml, ctx.box, ctx.zc)
    return _aggregate((("invariance", verdict),), "perturbed invariance residual")


def _check_leg(ctx: _Context):
    candidates = ctx.problem.candidates
    rep = lagmod.verify_legendre(ctx.lag, candidates["velocity_map"],
                                 candidates["H_for_legendre"], ctx.box, ctx.zc)
    return _aggregate(rep.checks, f"min |Hessian det| sampled: {rep.min_hessian_det:.3e}")


def _check_xh(ctx: _Context):
    x, g = lagmod.extend_vector_field(ctx.xl, ctx.laml,
                                      ctx.problem.candidates.get("velocity_map"))
    note = (f"G = {format_expr(g)}" if g is not None
            else "velocity-dependent extension; no generating function")
    ctx.x = x
    ctx.g = ctx.problem.candidates.get("G", g)
    psi = ", ".join(format_expr(c) for c in x.psi)
    return "ProvenZero", None, None, f"psi = ({psi}); {note}"


def _check_lh(ctx: _Context):
    rep = lagmod.extend_lambda(ctx.xl, ctx.laml,
                               ctx.problem.candidates.get("lambda2_candidate"),
                               ctx.box, ctx.zc)
    ctx.lam = rep.matrix
    how = "solved" if rep.solved else "verified candidate"
    return _aggregate(rep.checks, f"lower-right block {how}")


def _check_gl(ctx: _Context):
    rep = lagmod.check_noether_lambda(ctx.lag, ctx.xl, ctx.laml, ctx.box,
                                      ctx.problem.candidates["initial_conditions"],
                                      NOETHER_T1, TRAJECTORY_H, NOETHER_TOL)
    verdict = "NumericallyZero" if rep.holds else "NonZero"
    return verdict, rep.max_residual, None, \
        f"{len(rep.residuals)} trajectories, tol {rep.tol:g}"


def _check_lala(ctx: _Context):
    rep = lagmod.check_scalar_condition(ctx.xl, ctx.laml, ctx.box, ctx.zc)
    if rep.scalar is None:
        return "NonZero", None, None, "no scalar reduction on the configuration side"
    detail = f"lambda = {format_expr(rep.scalar)}"
    if not rep.is_constant:
        return "NumericallyZero", 0.0, None, detail + " (not constant; extension not asserted)"
    if not rep.checks:
        return "NumericallyZero", 0.0, None, detail + f"; {rep.note}"
    return _aggregate(rep.checks, detail + "; extended matrix scales the field")


def _check_lz(ctx: _Context):
    candidates = ctx.problem.candidates
    rep = lagmod.partial_reduction_check(
        ctx.lag, ctx.xl, ctx.laml, candidates.get("eta", ()), candidates["theta"],
        candidates["reduced_L"], candidates["particular_solution"], ctx.box, ctx.zc,
        t1=TRAJECTORY_T1, h=TRAJECTORY_H, tol=REDUCTION_TOL)
    tag, resid, witness, detail = _aggregate(
        rep.checks, f"constraint-flow residual {rep.el_residual:.3e} (tol {rep.tol:g})")
    if rep.el_residual > rep.tol:
        tag = "NonZero"
    return tag, max(resid or 0.0, rep.el_residual), witness, detail


# --------------------------------------------------------------------------
# the check table
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Check:
    """A row of the check table: tag, function, and per kind of problem the
    (inputs, prerequisites) in the order tested.  An input is (file items,
    reason when one is absent); a prerequisite is (earlier check, reason
    when it ran and did not pass)."""

    tag: str
    fn: Callable[[_Context], tuple]
    needs: Mapping[str, tuple]


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

    report = Report(problem=problem.name, seed=cfg.seed)
    ctx = _Context(problem, cfg)
    # the checks of one run share subtrees (canonical equations, derivatives
    # of H, components of Lambda Phi); their normal forms are kept for the run
    with simplify_memo():
        for name in wanted:
            check = CHECKS[name]
            t_start = time.perf_counter()
            try:
                _require(check.needs[problem.kind], problem, ctx.passed)
                verdict, max_resid, witness, detail = check.fn(ctx)
            except _Skip as sk:
                record = CheckRecord(name, check.tag, "Skipped", detail=sk.reason)
            except (SamplingError, ValueError, RuntimeError, ArithmeticError) as err:
                record = CheckRecord(name, check.tag, "Error", detail=str(err))
            else:
                record = CheckRecord(name, check.tag, verdict, max_resid, witness, detail)
            record.wall_ms = (time.perf_counter() - t_start) * 1e3
            ctx.passed[name] = record.verdict in ("ProvenZero", "NumericallyZero")
            report.checks.append(record)
    return report


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


def emit_report(report: Report, fmt: str = "text", stream=None) -> None:
    import sys as _sys
    stream = stream or _sys.stdout
    if fmt == "json":
        stream.write(report_to_json(report) + "\n")
    elif fmt == "text":
        stream.write(report_to_text(report) + "\n")
    else:
        raise ValueError(f"unknown report format {fmt!r}")
