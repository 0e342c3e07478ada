"""Problem files: JSON descriptions of a system plus the objects to verify.

A problem file carries either a Hamiltonian or a Lagrangian, the vector
field under test, and optional ingredients (perturbation matrix, domain
box, reduction chart, candidate quantities, initial conditions).  One
table, `_items`, gives every value of a file but its name, kind, n and
`lambda.velocity_dependent` its shape and the variables it may use, and
`_read` reads them all: expressions are strings in the expression
grammar, numbers are JSON numbers or constant expressions, and numeric
parameters are substituted exactly before any check.  A file with a key
the table does not name, a value that breaks its row, a parameter named
like a variable, or a box or inverse-chart key that names no variable of
its kind, is refused at load.
"""

from __future__ import annotations

import json
from typing import Optional

from .expr import (MAX_LITERAL_DIGITS, Const, DomainBox, Expr, ParseError, Record, ZERO, coerce,
                   free_vars, parse, simplify, substitute)
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


def _echo(value) -> str:
    """repr(value), cut after 40 characters: a message quotes no file at length."""
    text = repr(value)
    return text if len(text) <= 40 else f"{text[:40]}... ({len(text)} characters)"


def _object(value, path: str) -> dict:
    """value as a dict; an absent or null item is an empty one."""
    if value is None:
        return {}
    if not isinstance(value, dict):
        _fail(path, f"expected an object, got {type(value).__name__}")
    return value


def _list(value, path: str, length) -> list:
    """value as a list of length entries, or of any number when length is None."""
    if not isinstance(value, list):
        _fail(path, f"expected a list, got {type(value).__name__}")
    if length is not None and len(value) != length:
        _fail(path, f"expected {length} entries, got {len(value)}")
    return value


def _int(digits: str):
    """json's reading of an integer; one past MAX_LITERAL_DIGITS characters
    stays text, which the reader of its item refuses with its path."""
    return int(digits) if len(digits) <= MAX_LITERAL_DIGITS else digits


def _items(kind: str, n: int) -> dict:
    """Every item of a problem file of this kind with n degrees of freedom,
    by path: (shape, the variables its leaves may use).  The shape lists
    the containers around a leaf, outermost first: "map" for an object, a
    length for a list of that length and None for a list of any length.  A
    leaf with no variables is a number, any other an expression string."""
    c = Coordinates(n)
    config = frozenset([c.t, *c.q])
    phase = frozenset([c.t, *c.u])
    velocity = config | set(c.dq)
    lifted = phase | set(c.velocities)
    theta, eta, deta = reduced_variables(n)
    reduced = frozenset([c.t, theta, *eta, *deta])
    number = frozenset()
    ham = kind == "hamiltonian"
    size = 2 * n if ham else n
    return {
        "parameters": (("map",), number),
        kind: ((), phase if ham else velocity),
        "vector_field.phi": ((n,), phase if ham else config),
        **({"vector_field.psi": ((n,), phase), "vector_field.tau": ((), phase)} if ham else {}),
        "lambda.entries": ((size, size), lifted if ham else velocity),
        "box": (("map", 2), number),
        "chart.w": ((2 * n - 1,), phase),
        "chart.z": ((), phase),
        "chart.inverse": (("map",), frozenset(ReductionChart.variables_for(2 * n - 1))),
        "candidates.G": ((), phase),
        "candidates.S_expected": ((), phase),
        "candidates.gamma": ((), frozenset([c.t, "G"])),
        "candidates.Gamma": ((), phase),
        "candidates.H_for_legendre": ((), phase),
        "candidates.theta": ((), velocity),
        "candidates.reduced_L": ((), reduced),
        "candidates.velocity_map": ((n,), phase),
        "candidates.eta": ((n - 1,), config),
        "candidates.particular_solution": ((n,), config),
        "candidates.lambda2_candidate": ((n, n), lifted),
        "candidates.initial_conditions": ((None, 2 * n), number),
    }


# the items that must be there when their section is given (phi is checked first)
_REQUIRED = ("vector_field.psi", "lambda.entries", "chart.w", "chart.z", "chart.inverse")


def _read(value, path: str, params: dict, shape: tuple, names: frozenset):
    """The item at path in its shape, with params substituted.  A leaf with
    names is an expression string that uses no other variable; one with
    none is a number: a JSON number, or an expression string, that
    simplifies to a constant whose float is finite."""
    if shape and shape[0] == "map":
        return {k: _read(v, f"{path}.{k}", params, shape[1:], names)
                for k, v in _object(value, path).items()}
    if shape:
        return tuple(_read(v, f"{path}[{i}]", params, shape[1:], names)
                     for i, v in enumerate(_list(value, path, shape[0])))
    if isinstance(value, str):
        try:
            value = substitute(parse(value), params)
        except ParseError as err:
            _fail(path, f"parse error: {err}")
        if free_vars(value) - names:
            _fail(path, f"unknown variables {sorted(free_vars(value) - names)}")
        if names:
            return value
    elif names or isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, f"expected {'an expression string' if names else 'a number'}, "
                    f"got {type(value).__name__}")
    try:
        e = simplify(coerce(value))
        if type(e) is Const:
            float(e.value)      # OverflowError past the float range
            return e
    except (ValueError, OverflowError):     # also an infinity, a nan, or past MAX_CONST_BITS
        pass
    _fail(path, "expected a finite number")


def _floats(value):
    """The floats of a number, or of a tuple of them, as read by _read."""
    return float(value.value) if type(value) is Const else tuple(map(_floats, value))


def load_problem(path: str) -> ProblemFile:
    """Load and validate a problem file, substituting parameters exactly."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh, parse_int=_int)
        except json.JSONDecodeError as err:
            raise ProblemError(f"{path}: invalid JSON: {err}") from None
    if not isinstance(raw, dict):
        raise ProblemError(f"{path}: expected a JSON object, got {type(raw).__name__}")
    name = raw.get("name")
    if name is not None and not isinstance(name, str):
        _fail("name", f"expected a string, got {type(name).__name__}")
    name = name or str(path)

    kind = raw.get("kind")
    if kind not in ("hamiltonian", "lagrangian"):
        _fail("kind", f"must be 'hamiltonian' or 'lagrangian', got {_echo(kind)}")
    if "n" not in raw:
        _fail("n", "missing")
    n = raw["n"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        _fail("n", f"must be a positive integer, got {_echo(n)}")
    # phi bounds n before _items builds its sets of 2n and more names
    vf = _object(raw.get("vector_field"), "vector_field")
    if "phi" not in vf:
        _fail("vector_field.phi", "missing")
    _list(vf["phi"], "vector_field.phi", n)

    items = _items(kind, n)
    # a key that names no item would be dropped, and its item read as absent
    known = {*items, "name", "kind", "n", "lambda.velocity_dependent"}
    tops = {p.partition(".")[0] for p in known}
    unknown = [key for key in raw if key not in tops] + [
        f"{top}.{key}" for top in sorted(tops - known) for key in _object(raw.get(top), top)
        if f"{top}.{key}" not in known]
    for key in unknown:
        other = "lagrangian" if kind == "hamiltonian" else "hamiltonian"
        _fail(key, f"not allowed for {kind} kind" if key in _items(other, 1) else
              "unknown candidate" if key.startswith("candidates.") else "unknown key")

    variables = frozenset().union(*(names for _, names in items.values()))
    for pname in _object(raw.get("parameters"), "parameters"):
        if pname in variables:
            _fail(f"parameters.{pname}", "is the name of a variable")
    for vname in _object(raw.get("box"), "box"):
        if vname not in variables:
            _fail(f"box.{vname}", "is not the name of a variable")

    # the parameters come first in items, and are read with none
    values = {}
    for path, (shape, names) in items.items():
        top, _, key = path.rpartition(".")
        within = _object(raw.get(top), top) if top else raw
        if key in within:
            values[path] = _read(within[key], path, values.get("parameters", {}), shape, names)
        elif path == kind or path in _REQUIRED and raw.get(top) is not None:
            _fail(path, "missing")

    lam = chart = None
    if "lambda.entries" in values:
        side = HAMILTONIAN_SIDE if kind == "hamiltonian" else LAGRANGIAN_SIDE
        try:
            lam = LambdaMatrix(values["lambda.entries"], side)
        except ValueError as err:
            _fail("lambda", str(err))
        # optional; when given it must say what the entries say
        stated = raw["lambda"].get("velocity_dependent", lam.velocity_dependent)
        if not isinstance(stated, bool):
            _fail("lambda.velocity_dependent", f"expected true or false, got {_echo(stated)}")
        if stated != lam.velocity_dependent:
            _fail("lambda.velocity_dependent",
                  f"is {str(stated).lower()}, but the entries "
                  f"{'do not ' if stated else ''}contain velocity symbols")

    try:
        box = DomainBox({v: _floats(b) for v, b in values.get("box", {}).items()})
    except ValueError as err:
        _fail("box", str(err))

    if "chart.w" in values:
        inverse, u = values["chart.inverse"], Coordinates(n).u
        missing = [v for v in u if v not in inverse]
        if missing:
            _fail("chart.inverse", f"misses phase variables {missing}")
        for v in sorted(inverse.keys() - set(u)):
            _fail(f"chart.inverse.{v}", "is not the name of a phase variable")
        chart = ReductionChart(values["chart.w"], values["chart.z"], inverse)

    candidates = {path.partition(".")[2]: value for path, value in values.items()
                  if path.startswith("candidates.")}
    if "initial_conditions" in candidates:
        candidates["initial_conditions"] = _floats(candidates["initial_conditions"])

    return ProblemFile(name, kind, n, **{kind: values[kind]}, phi=values["vector_field.phi"],
                       psi=values.get("vector_field.psi", ()), tau=values.get("vector_field.tau"),
                       lam=lam, box=box, chart=chart, candidates=candidates)
