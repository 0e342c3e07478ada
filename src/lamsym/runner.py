"""Check orchestration: run the requested verifications on a problem file
in dependency order and collect structured verdicts.

Mathematical failures are verdicts (NonZero), never exceptions; checks
whose prerequisites failed or whose inputs are absent are Skipped with a
reason.  Report JSON is byte-stable for a fixed problem, seed and
selection (wall times are kept on the records but never serialized).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import lagrangian as lagmod
from . import lambda_symmetry as lam_mod
from . import numeric, symmetry
from .expr import (
    DomainBox,
    SamplingError,
    ZeroTestConfig,
    ZeroVerdict,
    format_expr,
    is_identically_zero,
    neg,
    parse,
    simplify_memo,
)
from .mechanics import FirstIntegralCandidate, PhaseSystem, PhaseVectorField
from .problem import ProblemFile

HAMILTONIAN_CHECKS = ("cs", "ds", "g", "case", "las", "dtg", "dts",
                      "chart", "wzl", "sep", "gamma", "mon")
LAGRANGIAN_CHECKS = ("xll", "leg", "xh", "lh", "las", "g", "dtg", "dts",
                     "chart", "wzl", "sep", "gamma", "gl", "lala", "lz", "mon")

EQ_TAGS = {
    "cs": "CS", "ds": "DS", "g": "G", "case": "CASE", "las": "LAS",
    "dtg": "DTG", "dts": "DTS", "chart": "WZ", "wzl": "WZL", "sep": "SEP",
    "gamma": "TDI", "mon": "MON", "xll": "XLL", "leg": "LEG", "xh": "XH",
    "lh": "LH", "gl": "GL", "lala": "LALA", "lz": "LZ",
}

_RANK = {"ProvenZero": 0, "NumericallyZero": 1, "NonZero": 2}


@dataclass
class RunConfig:
    seed: int = 0
    samples: int = 100
    abs_tol: float = 1e-9
    monitor_tol: float = 1e-6
    trajectory_t1: float = 1.0
    trajectory_h: float = 1e-3
    noether_t1: float = 0.5
    noether_tol: float = 1e-5
    reduction_tol: float = 1e-5

    def zero_cfg(self) -> ZeroTestConfig:
        return ZeroTestConfig(samples=self.samples, seed=self.seed,
                              abs_tol=self.abs_tol)


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


def _aggregate(verdicts: Sequence[ZeroVerdict]):
    """Worst verdict tag, max scaled residual and worst witness of a set."""
    if not verdicts:
        return "ProvenZero", None, None
    worst = max(verdicts, key=lambda v: (_RANK[v.tag], v.max_residual))
    residuals = [v.max_residual for v in verdicts if v.tag != "ProvenZero"]
    max_resid = max(residuals) if residuals else 0.0
    return worst.tag, max_resid, worst.witness


class _Skip(Exception):
    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


def _labeled(pairs):
    return [v for _, v in pairs]


def run_checks(problem: ProblemFile, selection: Optional[Sequence[str]] = None,
               cfg: Optional[RunConfig] = None) -> Report:
    cfg = cfg or RunConfig()
    zc = cfg.zero_cfg()
    box = problem.box
    order = HAMILTONIAN_CHECKS if problem.kind == "hamiltonian" else LAGRANGIAN_CHECKS
    if selection is not None:
        unknown = set(selection) - set(order)
        if unknown:
            raise ValueError(f"unknown checks for {problem.kind} kind: {sorted(unknown)}")
        wanted = [c for c in order if c in set(selection)]
    else:
        wanted = list(order)

    report = Report(problem=problem.name, seed=cfg.seed)
    state: dict = {"ok": {}}
    checks = _CHECKS[problem.kind]
    # the checks of one run share subtrees (canonical equations, derivatives
    # of H, components of Lambda Phi); their normal forms are kept for the run
    with simplify_memo():
        for name in wanted:
            t_start = time.perf_counter()
            try:
                verdict, max_resid, witness, detail = checks[name](problem, state, box, zc, cfg)
            except _Skip as sk:
                record = CheckRecord(name, EQ_TAGS[name], "Skipped", detail=sk.reason)
            except (SamplingError, ValueError, RuntimeError, ArithmeticError) as err:
                record = CheckRecord(name, EQ_TAGS[name], "Error", detail=str(err))
            else:
                record = CheckRecord(name, EQ_TAGS[name], verdict, max_resid, witness, detail)
            record.wall_ms = (time.perf_counter() - t_start) * 1e3
            state["ok"][name] = record.verdict in ("ProvenZero", "NumericallyZero")
            report.checks.append(record)
    return report


# --------------------------------------------------------------------------
# individual checks; each returns (verdict, max_residual, witness, detail)
# --------------------------------------------------------------------------

def _need(condition: bool, reason: str):
    if not condition:
        raise _Skip(reason)


def _need_passed(state: dict, prerequisite: str, reason: str):
    """Skip unless the prerequisite check ran in this run and passed;
    `reason` says why when it ran and did not pass."""
    _need(prerequisite in state["ok"], f"prerequisite {prerequisite} not selected")
    _need(state["ok"][prerequisite], reason)


def _phase_context(problem: ProblemFile, state: dict):
    """System, field and full-size matrix for the perturbed checks, built
    once per run; for lagrangian problems these come from the extension
    pipeline and the verified Legendre data."""
    if "sys" in state:
        return
    if problem.kind == "hamiltonian":
        state["sys"] = problem.phase_system()
        state["x"] = problem.vector_field()
        state["lam"] = problem.lam
        state["g_candidate"] = problem.candidates.get("G")
    else:
        _lag_context(problem, state)
        h = problem.candidates.get("H_for_legendre")
        _need(h is not None, "no Hamiltonian supplied for the phase-side checks")
        state["sys"] = PhaseSystem(problem.n, h)
        _need("x" in state or not problem.lam or not problem.lam.velocity_dependent,
              "phase field not constructed (run xh)")
        if "x" not in state:
            x, g = lagmod.extend_vector_field(problem.config_field())
            state["x"] = x
            state.setdefault("g_extended", g)
        state["lam"] = state.get("lam_full")
        state["g_candidate"] = problem.candidates.get("G", state.get("g_extended"))


def _require_lambda(state: dict) -> lam_mod.LambdaMatrix:
    lam = state.get("lam")
    _need(lam is not None, "no perturbation matrix available")
    return lam


def _check_cs(problem, state, box, zc, cfg):
    _phase_context(problem, state)
    verdict = symmetry.check_point_symmetry(state["sys"], state["x"], box, zc)
    tag, resid, witness = _aggregate(verdict.components)
    return tag, resid, witness, f"{2*problem.n} symmetry-condition residuals"


def _check_ds(problem, state, box, zc, cfg):
    _phase_context(problem, state)
    _need_passed(state, "cs", "point symmetry does not hold")
    sys, x = state["sys"], state["x"]
    s = symmetry.compute_S(sys, x)
    candidate = FirstIntegralCandidate(s)
    verdicts = [is_identically_zero(candidate.rate_residual(sys), box, zc)]
    detail = f"S = {format_expr(s)}"
    expected = problem.candidates.get("S_expected")
    if expected is not None:
        verdicts.append(is_identically_zero(s - expected, box, zc))
        detail += "; matches expected S"
    tag, resid, witness = _aggregate(verdicts)
    return tag, resid, witness, detail


def _check_g(problem, state, box, zc, cfg):
    _phase_context(problem, state)
    sys, x = state["sys"], state["x"]
    rep = symmetry.generating_function_test(sys, x, box, state.get("g_candidate"), zc)
    state["g_report"] = rep
    verdicts = _labeled(rep.closedness) + _labeled(rep.candidate)
    tag, resid, witness = _aggregate(verdicts)
    notes = []
    if rep.sign_flipped:
        notes.append("candidate verified with opposite sign")
    if rep.g_verified:
        notes.append(f"G = {format_expr(rep.verified_g)}")
        notes.append("dG/dt is a function of t alone"
                     if rep.rate_is_time_only else "dG/dt depends on the phase variables")
    return tag, resid, witness, "; ".join(notes) if notes else "closedness only"


def _check_case(problem, state, box, zc, cfg):
    _phase_context(problem, state)
    _need_passed(state, "cs", "point symmetry does not hold")
    c = symmetry.classify_symmetry_case(state["sys"], state["x"], box,
                                        state.get("g_candidate"), zc)
    detail = f"{c.tag}; S = {format_expr(c.s)}"
    if c.g is not None:
        detail += f"; G = {format_expr(c.g)}"
    if c.s_conservation is not None:
        tag, resid, witness = _aggregate([c.s_conservation])
        return tag, resid, witness, detail
    return "ProvenZero", None, None, detail


def _check_las(problem, state, box, zc, cfg):
    _phase_context(problem, state)
    lam = _require_lambda(state)
    verdict = lam_mod.check_lambda_symmetry(state["sys"], state["x"], lam, box, zc)
    tag, resid, witness = _aggregate(verdict.components)
    return tag, resid, witness, f"{2*problem.n} perturbed-condition residuals"


def _check_dtg(problem, state, box, zc, cfg):
    _phase_context(problem, state)
    lam = _require_lambda(state)
    _need_passed(state, "las", "perturbed symmetry does not hold")
    g = state.get("g_candidate")
    _need(g is not None, "no generating-function candidate")
    rep = lam_mod.check_lambda_constant_G(state["sys"], state["x"], lam, g, box, zc)
    verdicts = _labeled(rep.gradient_checks) + _labeled(rep.scalar_checks)
    tag, resid, witness = _aggregate(verdicts)
    detail = f"dG/dt = {format_expr(rep.rate)}"
    if rep.scalar is not None:
        detail += f"; scalar reduction with lambda = {format_expr(rep.scalar)}"
    return tag, resid, witness, detail


def _check_dts(problem, state, box, zc, cfg):
    _phase_context(problem, state)
    lam = _require_lambda(state)
    _need_passed(state, "las", "perturbed symmetry does not hold")
    rep = lam_mod.check_lambda_constant_S(state["sys"], state["x"], lam, box, zc)
    tag, resid, witness = _aggregate([rep.verdict])
    return tag, resid, witness, (f"S = {format_expr(rep.s)}; "
                                 f"dS/dt = {format_expr(rep.rate)}")


def _check_chart(problem, state, box, zc, cfg):
    _phase_context(problem, state)
    _need(problem.chart is not None, "no chart in the problem file")
    rep = lam_mod.verify_chart(state["sys"], state["x"], problem.chart, box, zc)
    verdicts = _labeled(rep.invariance) + [rep.rectification] + _labeled(rep.inversion)
    tag, resid, witness = _aggregate(verdicts)
    return tag, resid, witness, f"{len(problem.chart.w)} invariants + rectification + inversion"


def _check_wzl(problem, state, box, zc, cfg):
    _phase_context(problem, state)
    _need(problem.chart is not None, "no chart in the problem file")
    _need_passed(state, "chart", "chart verification did not pass")
    lam = state.get("lam") or lam_mod.LambdaMatrix.zeros(2 * problem.n)
    rs = lam_mod.reduced_system(state["sys"], state["x"], lam, problem.chart, box, zc)
    state["reduced"] = rs
    tag, resid, witness = _aggregate(_labeled(rs.dz_checks))
    eqs = [f"d{n}/dt = {format_expr(w)}"
           for n, w in zip(problem.chart.w_names, rs.w_rhs)]
    eqs.append(f"dz/dt = {format_expr(rs.z_rhs)}")
    flags = ",".join("free" if zf else "z" for zf in rs.z_free)
    return tag, resid, witness, "; ".join(eqs) + f"; z-dependence [{flags}]"


def _check_sep(problem, state, box, zc, cfg):
    _phase_context(problem, state)
    _need(problem.chart is not None, "no chart in the problem file")
    _need_passed(state, "chart", "chart verification did not pass")
    lam = _require_lambda(state)
    g = state.get("g_candidate")
    _need(g is not None, "no generating-function candidate")
    scalar = lam_mod.scalar_lambda_reduction(state["sys"], state["x"], lam, box, zc)
    _need(scalar is not None, "Lambda Phi is not a scalar multiple of Phi")
    g_index = None
    for j, wj in enumerate(problem.chart.w):
        if is_identically_zero(wj - g, box, zc).ok or \
                is_identically_zero(wj + g, box, zc).ok:
            g_index = j
            break
    _need(g_index is not None, "G is not one of the chart coordinates")
    rep = lam_mod.check_separated_G(state["sys"], state["x"], lam, problem.chart,
                                    g_index, box, zc)
    tag, resid, witness = _aggregate(_labeled(rep.checks))
    detail = (f"dG/dt = {format_expr(rep.gamma)} in (t, G)"
              if rep.gamma is not None else "rate depends on other coordinates")
    return tag, resid, witness, detail


def _check_gamma(problem, state, box, zc, cfg):
    _phase_context(problem, state)
    candidate = problem.candidates.get("Gamma")
    _need(candidate is not None, "no time-dependent integral candidate")
    verdict = lam_mod.verify_time_dependent_integral(state["sys"], candidate, box, zc)
    tag, resid, witness = _aggregate([verdict])
    return tag, resid, witness, f"Gamma = {format_expr(candidate)}"


def _check_mon(problem, state, box, zc, cfg):
    _phase_context(problem, state)
    ics = problem.candidates.get("initial_conditions")
    _need(ics, "no initial conditions supplied")
    sys = state["sys"]
    gamma_law = problem.candidates.get("gamma")
    big_gamma = problem.candidates.get("Gamma")
    g = state.get("g_candidate")
    _need(gamma_law is not None or big_gamma is not None,
          "nothing to monitor (no gamma or Gamma candidate)")
    worst = 0.0
    notes = []
    for ic in ics:
        u0 = list(ic)
        if problem.kind == "lagrangian":
            # file rows are (q..., dq...); map to phase space via momenta
            from .expr import evaluate
            lag = state["lag"]
            point = dict(zip(("t",) + lag.q + lag.dq, (0.0,) + tuple(ic)))
            u0 = list(ic[:problem.n]) + [evaluate(m, point)
                                         for m in lagmod.conjugate_momenta(lag)]
        traj = numeric.integrate_hamiltonian(sys, u0, 0.0,
                                             cfg.trajectory_t1, cfg.trajectory_h)
        if traj.truncated:
            raise RuntimeError(f"trajectory truncated: {traj.reason}")
        if big_gamma is not None:
            series = numeric.monitor(traj, [big_gamma])[0]
            drift = float(np.max(np.abs(series.values - series.values[0])))
            worst = max(worst, drift)
            notes.append(f"drift {drift:.3e}")
        if gamma_law is not None and g is not None:
            series = numeric.monitor(traj, [g])[0]
            dev = numeric.compare_with_scalar_ode(series, gamma_law,
                                                  float(series.values[0]),
                                                  cfg.trajectory_h)
            worst = max(worst, dev)
            notes.append(f"scalar-law deviation {dev:.3e}")
    verdict = "NumericallyZero" if worst <= cfg.monitor_tol else "NonZero"
    return verdict, worst, None, "; ".join(notes)


# ------------------------------------------------------- lagrangian pipeline

def _lag_context(problem: ProblemFile, state: dict):
    if "lag" not in state:
        state["lag"] = problem.lagrangian_system()
        state["xl"] = problem.config_field()
        state["laml"] = problem.lam or lam_mod.LambdaMatrix.zeros(
            problem.n, lam_mod.LAGRANGIAN_SIDE)


def _check_xll(problem, state, box, zc, cfg):
    _lag_context(problem, state)
    verdict = lagmod.check_lagrangian_lambda_invariance(
        state["lag"], state["xl"], state["laml"], box, zc)
    tag, resid, witness = _aggregate([verdict])
    return tag, resid, witness, "perturbed invariance residual"


def _check_leg(problem, state, box, zc, cfg):
    _lag_context(problem, state)
    vmap = problem.candidates.get("velocity_map")
    h = problem.candidates.get("H_for_legendre")
    _need(vmap is not None and h is not None,
          "velocity map and Hamiltonian are required")
    rep = lagmod.verify_legendre(state["lag"], vmap, h, box, zc)
    verdicts = _labeled(rep.momentum_checks) + [rep.energy_check]
    tag, resid, witness = _aggregate(verdicts)
    return tag, resid, witness, f"min |Hessian det| sampled: {rep.min_hessian_det:.3e}"


def _check_xh(problem, state, box, zc, cfg):
    _lag_context(problem, state)
    laml = state["laml"]
    if laml.velocity_dependent:
        x = lagmod.extend_vector_field_velocity_dependent(
            state["lag"], state["xl"], laml,
            problem.candidates.get("velocity_map"))
        g = None
        note = "velocity-dependent extension; no generating function"
    else:
        x, g = lagmod.extend_vector_field(state["xl"])
        note = f"G = {format_expr(g)}"
        state["g_extended"] = g
    state["x"] = x
    psi = ", ".join(format_expr(c) for c in x.psi)
    return "ProvenZero", None, None, f"psi = ({psi}); {note}"


def _check_lh(problem, state, box, zc, cfg):
    _lag_context(problem, state)
    _need_passed(state, "xll", "perturbed invariance does not hold")
    rep = lagmod.extend_lambda(state["xl"], state["laml"],
                               problem.candidates.get("lambda2_candidate"),
                               box, zc)
    state["lam_full"] = rep.matrix
    tag, resid, witness = _aggregate(_labeled(rep.constraint_checks))
    how = "solved" if rep.solved else "verified candidate"
    return tag, resid, witness, f"lower-right block {how}"


def _check_gl(problem, state, box, zc, cfg):
    _lag_context(problem, state)
    _need_passed(state, "xll", "perturbed invariance does not hold")
    ics = problem.candidates.get("initial_conditions")
    _need(ics, "no initial conditions supplied")
    rep = lagmod.check_noether_lambda(state["lag"], state["xl"], state["laml"],
                                      box, ics, cfg.noether_t1,
                                      cfg.trajectory_h, cfg.noether_tol)
    verdict = "NumericallyZero" if rep.holds else "NonZero"
    return verdict, rep.max_residual, None, \
        f"{len(rep.residuals)} trajectories, tol {rep.tol:g}"


def _check_lala(problem, state, box, zc, cfg):
    _lag_context(problem, state)
    rep = lagmod.check_scalar_condition(state["xl"], state["laml"], box, zc)
    if rep.scalar is None:
        return "NonZero", None, None, "no scalar reduction on the configuration side"
    detail = f"lambda = {format_expr(rep.scalar)}"
    if not rep.is_constant:
        return "NumericallyZero", 0.0, None, detail + " (not constant; extension not asserted)"
    if not rep.extended_checks:
        return "NumericallyZero", 0.0, None, detail + f"; {rep.note}"
    tag, resid, witness = _aggregate(_labeled(rep.extended_checks))
    return tag, resid, witness, detail + "; extended matrix scales the field"


def _check_lz(problem, state, box, zc, cfg):
    _lag_context(problem, state)
    theta = problem.candidates.get("theta")
    reduced_l = problem.candidates.get("reduced_L")
    particular = problem.candidates.get("particular_solution")
    _need(theta is not None and reduced_l is not None and particular is not None,
          "theta, reduced_L and particular_solution are required")
    eta = problem.candidates.get("eta", ())
    rep = lagmod.partial_reduction_check(
        state["lag"], state["xl"], state["laml"], eta, theta, reduced_l,
        particular, box, zc, t1=cfg.trajectory_t1, h=cfg.trajectory_h,
        tol=cfg.reduction_tol)
    verdicts = _labeled(rep.invariance) + [rep.composition, rep.annihilation]
    tag, resid, witness = _aggregate(verdicts)
    if rep.el_residual > rep.tol:
        tag = "NonZero"
    detail = f"constraint-flow residual {rep.el_residual:.3e} (tol {rep.tol:g})"
    return tag, max(resid or 0.0, rep.el_residual), witness, detail


_HAM_CHECKS = {
    "cs": _check_cs, "ds": _check_ds, "g": _check_g, "case": _check_case,
    "las": _check_las, "dtg": _check_dtg, "dts": _check_dts,
    "chart": _check_chart, "wzl": _check_wzl, "sep": _check_sep,
    "gamma": _check_gamma, "mon": _check_mon,
}

_LAG_CHECKS = dict(_HAM_CHECKS)
_LAG_CHECKS.update({
    "xll": _check_xll, "leg": _check_leg, "xh": _check_xh, "lh": _check_lh,
    "gl": _check_gl, "lala": _check_lala, "lz": _check_lz,
})

_CHECKS = {"hamiltonian": _HAM_CHECKS, "lagrangian": _LAG_CHECKS}


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
