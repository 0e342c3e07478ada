"""Problem files: JSON descriptions of a system plus the objects to verify.

A problem file carries either a Hamiltonian or a Lagrangian, the vector
field under test, and optional ingredients (perturbation matrix, domain
box, reduction chart, candidate quantities, initial conditions).  All
expressions are strings in the expression grammar; numeric parameters
are substituted exactly before any check.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .expr import Const, DomainBox, Expr, ParseError, free_vars, parse, substitute
from .lagrangian import ConfigVectorField, LagrangianSystem
from .lambda_symmetry import (
    HAMILTONIAN_SIDE,
    LAGRANGIAN_SIDE,
    LambdaMatrix,
    ReductionChart,
)
from .mechanics import PhaseSystem, PhaseVectorField


class ProblemError(ValueError):
    """Schema violation in a problem file; message carries the field path."""


@dataclass
class ProblemFile:
    name: str
    kind: str
    n: int
    hamiltonian: Optional[Expr] = None
    lagrangian: Optional[Expr] = None
    phi: tuple = ()
    psi: tuple = ()
    tau: Optional[Expr] = None
    lam: Optional[LambdaMatrix] = None
    box: DomainBox = field(default_factory=DomainBox)
    chart: Optional[ReductionChart] = None
    candidates: dict = field(default_factory=dict)

    def phase_system(self) -> PhaseSystem:
        if self.kind != "hamiltonian":
            raise ProblemError("problem is not hamiltonian-kind")
        return PhaseSystem(self.n, self.hamiltonian)

    def lagrangian_system(self) -> LagrangianSystem:
        if self.kind != "lagrangian":
            raise ProblemError("problem is not lagrangian-kind")
        return LagrangianSystem(self.n, self.lagrangian)

    def vector_field(self) -> PhaseVectorField:
        from .expr import ZERO
        return PhaseVectorField(self.phi, self.psi, self.tau if self.tau is not None else ZERO)

    def config_field(self) -> ConfigVectorField:
        return ConfigVectorField(self.phi)


def _fail(path: str, message: str):
    raise ProblemError(f"{path}: {message}")


def _object(value, path: str) -> dict:
    """value as a dict; an absent or null item is an empty one."""
    if value is None:
        return {}
    if not isinstance(value, dict):
        _fail(path, f"expected an object, got {type(value).__name__}")
    return value


def _float(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, f"expected a number, got {type(value).__name__}")
    try:
        x = float(value)
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        _fail(path, "expected a finite number")
    return x


def _parse_expr(text, path: str, params: dict, names: Optional[frozenset] = None) -> Expr:
    """The expression with params substituted; one with a variable outside
    names, unless names is None, is an error."""
    if not isinstance(text, str):
        _fail(path, f"expected an expression string, got {type(text).__name__}")
    try:
        e = substitute(parse(text), params)
    except ParseError as err:
        _fail(path, f"parse error: {err}")
    if names is not None and free_vars(e) - names:
        _fail(path, f"unknown variables {sorted(free_vars(e) - names)}")
    return e


def _expr_list(values, path: str, params: dict, names: frozenset,
               expected: Optional[int] = None) -> tuple:
    if not isinstance(values, list):
        _fail(path, "expected a list of expression strings")
    if expected is not None and len(values) != expected:
        _fail(path, f"expected {expected} entries, got {len(values)}")
    return tuple(_parse_expr(v, f"{path}[{i}]", params, names) for i, v in enumerate(values))


def _exact_number(value, path: str) -> Fraction:
    if isinstance(value, bool):
        _fail(path, "expected a number")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, (float, str)):
        try:
            return Fraction(str(value))
        except ValueError:
            _fail(path, f"cannot read {value!r} as an exact number")
    _fail(path, f"expected a number, got {type(value).__name__}")


_CANDIDATE_EXPRS = ("G", "S_expected", "gamma", "Gamma", "H_for_legendre",
                    "theta", "reduced_L")
_CANDIDATE_LISTS = ("velocity_map", "eta", "particular_solution")


def load_problem(path: str) -> ProblemFile:
    """Load and validate a problem file, substituting parameters exactly."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as err:
            raise ProblemError(f"{path}: invalid JSON: {err}") from None
    if not isinstance(raw, dict):
        raise ProblemError(f"{path}: expected a JSON object, got {type(raw).__name__}")
    name = raw.get("name") or str(path)

    kind = raw.get("kind")
    if kind not in ("hamiltonian", "lagrangian"):
        _fail("kind", f"must be 'hamiltonian' or 'lagrangian', got {kind!r}")
    if "n" not in raw:
        _fail("n", "missing")
    n = raw["n"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        _fail("n", f"must be a positive integer, got {n!r}")

    # the variables an item may use: t, q and p (and their velocities dq and
    # dp), the chart's w and z, G of gamma, and theta, eta and deta of reduced_L
    q, p = [f"q{i+1}" for i in range(n)], [f"p{i+1}" for i in range(n)]
    eta = [f"eta{r+1}" for r in range(n - 1)]
    tq, dq = frozenset(["t", *q]), frozenset("d" + v for v in q)
    phase = tq | set(p)
    lifted = phase | dq | {"d" + v for v in p}
    chart_names = frozenset(["t", "z", *(f"w{j+1}" for j in range(2 * n - 1))])
    reduced = frozenset(["t", "theta", *eta, *("d" + v for v in eta)])
    params = {}
    for pname, pval in _object(raw.get("parameters"), "parameters").items():
        if pname in lifted | chart_names | reduced | {"G"}:
            _fail(f"parameters.{pname}", "is the name of a variable")
        params[pname] = Const(_exact_number(pval, f"parameters.{pname}"))

    problem = ProblemFile(name=name, kind=kind, n=n)
    problem_key = "hamiltonian" if kind == "hamiltonian" else "lagrangian"
    if problem_key not in raw:
        _fail(problem_key, "missing")
    setattr(problem, problem_key, _parse_expr(raw[problem_key], problem_key, params))

    vf = raw.get("vector_field")
    if not isinstance(vf, dict) or "phi" not in vf:
        _fail("vector_field", "missing phi")
    problem.phi = _expr_list(vf["phi"], "vector_field.phi", params,
                             phase if kind == "hamiltonian" else tq, n)
    if kind == "hamiltonian":
        if "psi" not in vf:
            _fail("vector_field.psi", "missing for hamiltonian kind")
        problem.psi = _expr_list(vf["psi"], "vector_field.psi", params, phase, n)
        if "tau" in vf:
            problem.tau = _parse_expr(vf["tau"], "vector_field.tau", params, phase)
    elif "psi" in vf:
        _fail("vector_field.psi", "not allowed for lagrangian kind")

    if "lambda" in raw and raw["lambda"] is not None:
        lam_raw = raw["lambda"]
        if not isinstance(lam_raw, dict) or "entries" not in lam_raw:
            _fail("lambda", "expected {entries: [[..]], velocity_dependent?: bool}")
        side = HAMILTONIAN_SIDE if kind == "hamiltonian" else LAGRANGIAN_SIDE
        want = 2 * n if kind == "hamiltonian" else n
        entries = lam_raw["entries"]
        if not isinstance(entries, list) or len(entries) != want:
            _fail("lambda.entries", f"expected {want} rows for {kind} kind")
        names = lifted if kind == "hamiltonian" else tq | dq
        rows = tuple(_expr_list(row, f"lambda.entries[{i}]", params, names, want)
                     for i, row in enumerate(entries))
        try:
            problem.lam = LambdaMatrix(rows, side)
        except ValueError as err:
            _fail("lambda", str(err))
        # optional; when given it must say what the entries say
        stated = lam_raw.get("velocity_dependent", problem.lam.velocity_dependent)
        if not isinstance(stated, bool):
            _fail("lambda.velocity_dependent", f"expected true or false, got {stated!r}")
        if stated != problem.lam.velocity_dependent:
            _fail("lambda.velocity_dependent",
                  f"is {str(stated).lower()}, but the entries "
                  f"{'do not ' if stated else ''}contain velocity symbols")

    if "box" in raw and raw["box"] is not None:
        intervals = {}
        for vname, bounds in _object(raw["box"], "box").items():
            if (not isinstance(bounds, list)) or len(bounds) != 2:
                _fail(f"box.{vname}", "expected [lo, hi]")
            intervals[vname] = tuple(_float(b, f"box.{vname}[{i}]") for i, b in enumerate(bounds))
        try:
            problem.box = DomainBox(intervals)
        except ValueError as err:
            _fail("box", str(err))

    if "chart" in raw and raw["chart"] is not None:
        ch = _object(raw["chart"], "chart")
        for key in ("w", "z", "inverse"):
            if key not in ch:
                _fail(f"chart.{key}", "missing")
        w = _expr_list(ch["w"], "chart.w", params, phase, 2 * n - 1)
        z = _parse_expr(ch["z"], "chart.z", params, phase)
        inverse = {vname: _parse_expr(txt, f"chart.inverse.{vname}", params, chart_names)
                   for vname, txt in _object(ch["inverse"], "chart.inverse").items()}
        missing = [v for v in q + p if v not in inverse]
        if missing:
            _fail("chart.inverse", f"misses phase variables {missing}")
        problem.chart = ReductionChart(w, z, inverse)

    cand = _object(raw.get("candidates"), "candidates")
    for key in cand:
        if key not in _CANDIDATE_EXPRS + _CANDIDATE_LISTS + (
                "lambda2_candidate", "initial_conditions"):
            _fail(f"candidates.{key}", "unknown candidate")
    names = {"gamma": frozenset(["t", "G"]), "theta": tq | dq, "reduced_L": reduced,
             "eta": tq, "particular_solution": tq}
    for key in _CANDIDATE_EXPRS:
        if key in cand:
            problem.candidates[key] = _parse_expr(cand[key], f"candidates.{key}", params,
                                                  names.get(key, phase))
    for key in _CANDIDATE_LISTS:
        if key in cand:
            expected = {"velocity_map": n, "particular_solution": n,
                        "eta": n - 1}.get(key)
            problem.candidates[key] = _expr_list(cand[key], f"candidates.{key}",
                                                 params, names.get(key, phase), expected)
    if "lambda2_candidate" in cand:
        rows = cand["lambda2_candidate"]
        if not isinstance(rows, list) or len(rows) != n:
            _fail("candidates.lambda2_candidate", f"expected {n} rows")
        problem.candidates["lambda2_candidate"] = tuple(
            _expr_list(row, f"candidates.lambda2_candidate[{i}]", params, lifted, n)
            for i, row in enumerate(rows))
    if "initial_conditions" in cand:
        ics = cand["initial_conditions"]
        if not isinstance(ics, list):
            _fail("candidates.initial_conditions", "expected a list of state rows")
        rows = []
        for i, row in enumerate(ics):
            if not isinstance(row, list) or len(row) != 2 * n:
                _fail(f"candidates.initial_conditions[{i}]",
                      f"expected {2*n} numbers")
            rows.append(tuple(_float(v, f"candidates.initial_conditions[{i}][{j}]")
                              for j, v in enumerate(row)))
        problem.candidates["initial_conditions"] = tuple(rows)

    return problem
