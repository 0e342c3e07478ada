"""Problem files: JSON descriptions of a system plus the objects to verify.

A problem file carries either a Hamiltonian or a Lagrangian, the vector
field under test, and optional ingredients (perturbation matrix, domain
box, reduction chart, candidate quantities, initial conditions).  All
expressions are strings in the expression grammar; numeric parameters
are substituted exactly before any check.  One table, `_items`, gives
each expression item, H and L included, its shape, its length and the
variables it may use; a file that breaks it, names a parameter like one
of those variables, or bounds a box name that is none of them, is refused
at load.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Optional

from .expr import (Const, DomainBox, Expr, ParseError, Record, ZERO, free_vars, parse,
                   substitute)
from .lagrangian import ConfigVectorField, LagrangianSystem, reduced_variables
from .lambda_symmetry import (
    HAMILTONIAN_SIDE,
    LAGRANGIAN_SIDE,
    LambdaMatrix,
    ReductionChart,
)
from .mechanics import Coordinates, PhaseSystem, PhaseVectorField


class ProblemError(ValueError):
    """Schema violation in a problem file; message carries the field path."""


class ProblemFile(Record):
    __slots__ = ("name", "kind", "n", "hamiltonian", "lagrangian", "phi", "psi", "tau", "lam",
                 "box", "chart", "candidates")

    def __init__(self, name: str, kind: str, n: int, hamiltonian: Optional[Expr] = None,
                 lagrangian: Optional[Expr] = None, phi: tuple = (), psi: tuple = (),
                 tau: Optional[Expr] = None, lam: Optional[LambdaMatrix] = None,
                 box: Optional[DomainBox] = None, chart: Optional[ReductionChart] = None,
                 candidates: Optional[dict] = None):
        Record.__init__(self, name, kind, n, hamiltonian, lagrangian, phi, psi, tau, lam,
                        DomainBox() if box is None else box, chart,
                        {} if candidates is None else candidates)

    def phase_system(self) -> PhaseSystem:
        if self.kind != "hamiltonian":
            raise ProblemError("problem is not hamiltonian-kind")
        return PhaseSystem(self.n, self.hamiltonian)

    def lagrangian_system(self) -> LagrangianSystem:
        if self.kind != "lagrangian":
            raise ProblemError("problem is not lagrangian-kind")
        return LagrangianSystem(self.n, self.lagrangian)

    def vector_field(self) -> PhaseVectorField:
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


def _items(kind: str, n: int) -> dict:
    """Every expression item of a problem file of this kind with n degrees
    of freedom, by path: (shape, the variables it may use, length).  The
    shape is "expr" for one expression, "map" for an object of them,
    "list" for a list of length of them and "rows" for length such lists."""
    c = Coordinates(n)
    config = frozenset([c.t, *c.q])
    phase = frozenset([c.t, *c.u])
    velocity = config | set(c.dq)
    lifted = phase | set(c.velocities)
    theta, eta, deta = reduced_variables(n)
    reduced = frozenset([c.t, theta, *eta, *deta])
    ham = kind == "hamiltonian"
    return {
        kind: ("expr", phase if ham else velocity, None),
        "vector_field.phi": ("list", phase if ham else config, n),
        "vector_field.psi": ("list", phase, n),
        "vector_field.tau": ("expr", phase, None),
        "lambda.entries": ("rows", lifted if ham else velocity, 2 * n if ham else n),
        "chart.w": ("list", phase, 2 * n - 1),
        "chart.z": ("expr", phase, None),
        "chart.inverse": ("map", frozenset(ReductionChart.variables_for(2 * n - 1)), None),
        "candidates.G": ("expr", phase, None),
        "candidates.S_expected": ("expr", phase, None),
        "candidates.gamma": ("expr", frozenset([c.t, "G"]), None),
        "candidates.Gamma": ("expr", phase, None),
        "candidates.H_for_legendre": ("expr", phase, None),
        "candidates.theta": ("expr", velocity, None),
        "candidates.reduced_L": ("expr", reduced, None),
        "candidates.velocity_map": ("list", phase, n),
        "candidates.eta": ("list", config, n - 1),
        "candidates.particular_solution": ("list", config, n),
        "candidates.lambda2_candidate": ("rows", lifted, n),
    }


def _read(value, path: str, params: dict, shape: str, names: frozenset, length):
    """The item at path in its shape, with params substituted; an
    expression with a variable outside names is an error."""
    if shape == "map":
        return {k: _read(v, f"{path}.{k}", params, "expr", names, None)
                for k, v in _object(value, path).items()}
    if shape == "rows" and (not isinstance(value, list) or len(value) != length):
        _fail(path, f"expected {length} rows")
    if shape == "list" and not isinstance(value, list):
        _fail(path, "expected a list of expression strings")
    if shape == "list" and len(value) != length:
        _fail(path, f"expected {length} entries, got {len(value)}")
    if shape != "expr":
        inner = "list" if shape == "rows" else "expr"
        return tuple(_read(v, f"{path}[{i}]", params, inner, names, length)
                     for i, v in enumerate(value))
    if not isinstance(value, str):
        _fail(path, f"expected an expression string, got {type(value).__name__}")
    try:
        e = substitute(parse(value), params)
    except ParseError as err:
        _fail(path, f"parse error: {err}")
    if free_vars(e) - names:
        _fail(path, f"unknown variables {sorted(free_vars(e) - names)}")
    return e


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

    items = _items(kind, n)
    variables = frozenset().union(*(names for _, names, _ in items.values()))
    params = {}
    for pname, pval in _object(raw.get("parameters"), "parameters").items():
        if pname in variables:
            _fail(f"parameters.{pname}", "is the name of a variable")
        params[pname] = Const(_exact_number(pval, f"parameters.{pname}"))

    def read(path: str, within: dict):
        """The item at path, read from within, its parent; a missing item
        is an error."""
        key = path.rpartition(".")[2]
        if key not in within:
            _fail(path, "missing")
        return _read(within[key], path, params, *items[path])

    system = {kind: read(kind, raw)}

    vf = _object(raw.get("vector_field"), "vector_field")
    phi, psi, tau = read("vector_field.phi", vf), (), None
    if kind == "hamiltonian":
        psi = read("vector_field.psi", vf)
        if "tau" in vf:
            tau = read("vector_field.tau", vf)
    else:
        for key in ("psi", "tau"):
            if key in vf:
                _fail(f"vector_field.{key}", "not allowed for lagrangian kind")

    lam = box = chart = None
    if "lambda" in raw and raw["lambda"] is not None:
        lam_raw = _object(raw["lambda"], "lambda")
        side = HAMILTONIAN_SIDE if kind == "hamiltonian" else LAGRANGIAN_SIDE
        rows = read("lambda.entries", lam_raw)
        try:
            lam = LambdaMatrix(rows, side)
        except ValueError as err:
            _fail("lambda", str(err))
        # optional; when given it must say what the entries say
        stated = lam_raw.get("velocity_dependent", lam.velocity_dependent)
        if not isinstance(stated, bool):
            _fail("lambda.velocity_dependent", f"expected true or false, got {stated!r}")
        if stated != lam.velocity_dependent:
            _fail("lambda.velocity_dependent",
                  f"is {str(stated).lower()}, but the entries "
                  f"{'do not ' if stated else ''}contain velocity symbols")

    if "box" in raw and raw["box"] is not None:
        intervals = {}
        for vname, bounds in _object(raw["box"], "box").items():
            if vname not in variables:
                _fail(f"box.{vname}", "is not the name of a variable")
            if (not isinstance(bounds, list)) or len(bounds) != 2:
                _fail(f"box.{vname}", "expected [lo, hi]")
            intervals[vname] = tuple(_float(b, f"box.{vname}[{i}]") for i, b in enumerate(bounds))
        try:
            box = DomainBox(intervals)
        except ValueError as err:
            _fail("box", str(err))

    if "chart" in raw and raw["chart"] is not None:
        ch = _object(raw["chart"], "chart")
        w, z, inverse = (read(f"chart.{key}", ch) for key in ("w", "z", "inverse"))
        missing = [v for v in Coordinates(n).u if v not in inverse]
        if missing:
            _fail("chart.inverse", f"misses phase variables {missing}")
        chart = ReductionChart(w, z, inverse)

    cand, candidates = _object(raw.get("candidates"), "candidates"), {}
    for key in cand:
        if f"candidates.{key}" not in items and key != "initial_conditions":
            _fail(f"candidates.{key}", "unknown candidate")
    for path in items:
        head, _, key = path.partition(".")
        if head == "candidates" and key in cand:
            candidates[key] = read(path, cand)
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
        candidates["initial_conditions"] = tuple(rows)

    return ProblemFile(name, kind, n, **system, phi=phi, psi=psi, tau=tau, lam=lam, box=box,
                       chart=chart, candidates=candidates)
