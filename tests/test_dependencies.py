"""The package depends on nothing at run time beyond the standard library
and numpy."""

import ast
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "lamsym").glob("*.py"))
ALLOWED = sys.stdlib_module_names | {"numpy"}


def _imported_packages(path: Path) -> set:
    """Top-level names of the absolute imports in path, at any depth."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
    return {name.split(".")[0] for name in names}


def _foreign_imports(path: Path) -> set:
    """Top-level names of the absolute imports in path that are neither
    standard library nor numpy."""
    return _imported_packages(path) - ALLOWED


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_only_the_standard_library_and_numpy(path):
    assert not _foreign_imports(path)


def test_the_guard_flags_a_third_party_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("import json, numpy.linalg\nfrom . import expr\n"
                      "def f():\n    from hypothesis import given\n", encoding="utf-8")
    assert _foreign_imports(module) == {"hypothesis"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_imports_dataclasses(path):
    # records are expr.Record subclasses: a dataclass generates and execs
    # its methods in every process that imports it
    assert "dataclasses" not in _imported_packages(path)


def test_the_guard_flags_a_dataclasses_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("from .expr import Record\nimport json\n"
                      "def f():\n    from dataclasses import replace\n", encoding="utf-8")
    assert "dataclasses" in _imported_packages(module)
    module.write_text("import dataclasses as dc\n", encoding="utf-8")
    assert "dataclasses" in _imported_packages(module)


def test_importing_lamsym_and_its_cli_loads_neither_dataclasses_nor_argparse():
    # what each import adds, so that a site hook loading either is no matter
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = ("import sys\n"
            "slow = {'dataclasses', 'argparse'}\n"
            "before = set(sys.modules)\n"
            "import lamsym\n"
            "middle = set(sys.modules)\n"
            "import lamsym.cli\n"
            "print(sorted(slow & (middle - before)), sorted(slow & (set(sys.modules) - middle)))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[] []\n"


def _unused_imports(path: Path) -> set:
    """Names that the imports in path bind and that its code never reads;
    `from __future__` imports bind nothing."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    return bound - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    # __init__.py imports to re-export
    assert not _unused_imports(path)


def test_the_guard_flags_an_unused_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("from __future__ import annotations\nimport os.path, json as j\n"
                      "from typing import Optional, Sequence\n"
                      "def f(x: Optional[int]):\n    return os.sep\n", encoding="utf-8")
    assert _unused_imports(module) == {"j", "Sequence"}


# a literal q, p, dq or dp that ends right before a replacement field
_COORDINATE_PREFIX = re.compile(r"(?<!\w)d?[qp]$")


def _formatted_coordinate_names(path: Path) -> list:
    """Lines of the f-strings in path that format a q, p, dq or dp name."""
    lines = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.JoinedStr):
            parts = node.values
            if any(isinstance(a, ast.Constant) and isinstance(b, ast.FormattedValue)
                   and _COORDINATE_PREFIX.search(a.value) for a, b in zip(parts, parts[1:])):
                lines.add(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "mechanics.py"],
                         ids=lambda p: p.name)
def test_only_mechanics_formats_coordinate_names(path):
    # mechanics.Coordinates owns the names; every other module reads them there
    assert not _formatted_coordinate_names(path)


def test_the_guard_flags_a_formatted_coordinate_name(tmp_path):
    module = tmp_path / "m.py"
    module.write_text('a = [f"q{i+1}" for i in range(2)]\nb = f"(dp{k})"\n'
                      'c = f"step {k}"\nd = f"{p}{i}"\ne = f"loop{k}"\nf = f"x {p}"\n'
                      'g = f"{x}: p{a+1} consistency"\n', encoding="utf-8")
    assert _formatted_coordinate_names(module) == [1, 2, 7]


_COMPILERS = {"compile_expr", "compile_exprs", "_euler_lagrange_stage"}


def _kept_compilations(path: Path) -> list:
    """Lines of path that assign what compile_expr, compile_exprs or
    _euler_lagrange_stage returns to an attribute, directly or by setattr."""
    def compiles(node) -> bool:
        return any(isinstance(n, ast.Call) and (getattr(n.func, "id", None) in _COMPILERS
                                                or getattr(n.func, "attr", None) in _COMPILERS)
                   for n in ast.walk(node))

    lines = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)) and node.value is not None:
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if compiles(node.value) and any(isinstance(n, ast.Attribute)
                                            for t in targets for n in ast.walk(t)):
                lines.add(node.lineno)
        elif (isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None))
              in ("setattr", "__setattr__") and any(map(compiles, node.args[2:]))):
            lines.add(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "expr.py"],
                         ids=lambda p: p.name)
def test_generated_code_is_kept_only_by_the_keeper(path):
    # expr.generated keeps each tree's code while the tree lives; code kept
    # on another object outlives or duplicates it
    assert not _kept_compilations(path)


def test_the_guard_flags_compiled_code_kept_on_an_attribute(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("f = compile_expr(e, names)\nself._flow = compile_exprs(rhs, names)\n"
                      "sys.fn = sys.fn or expr.compile_expr(e, names)\n"
                      "a.b, c = numeric._euler_lagrange_stage(lag), 1\n"
                      "setattr(lag, '_flow', _euler_lagrange_stage(lag))\n"
                      "object.__setattr__(self, 'f', compile_expr(e, n))\n"
                      "g = generated(e, key, compile_exprs, [e], names)\n"
                      "self.x: int = len(names)\n", encoding="utf-8")
    assert _kept_compilations(module) == [2, 3, 4, 5, 6]


_TOLERANCES = {"MONITOR_TOL", "NOETHER_TOL", "REDUCTION_TOL", "tol"}


def _tolerance_comparisons(path: Path) -> list:
    """Lines of path that compare a value with MONITOR_TOL, NOETHER_TOL,
    REDUCTION_TOL or a name or attribute `tol`."""
    return sorted({node.lineno for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"),
                                                                   str(path)))
                   if isinstance(node, ast.Compare)
                   and any(getattr(n, "id", getattr(n, "attr", None)) in _TOLERANCES
                           for n in ast.walk(node))})


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name in ("runner.py", "lagrangian.py")],
                         ids=lambda p: p.name)
def test_trajectory_residuals_are_decided_by_the_one_constructor(path):
    # expr.ZeroVerdict.within decides a residual by its tolerance; a
    # comparison beside it would be another verdict shape
    assert not _tolerance_comparisons(path)


def test_the_guard_flags_a_tolerance_comparison(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("ok = worst <= MONITOR_TOL\nif rep.el_residual > rep.tol:\n    pass\n"
                      "v = ZeroVerdict.within(r, NOETHER_TOL, n)\nb = 2 * tol > r\n"
                      "c = tolerance < 1\nd = max(r, REDUCTION_TOL)\n", encoding="utf-8")
    assert _tolerance_comparisons(module) == [1, 2, 5]


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name in ("runner.py", "cli.py")],
                         ids=lambda p: p.name)
def test_the_front_end_imports_no_numpy(path):
    # runner and cli reach numpy only through the modules whose work they call
    assert "numpy" not in _imported_packages(path)


def test_the_guard_flags_a_numpy_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("from . import numeric\nimport json\n"
                      "def f(values):\n    import numpy as np\n    return np.max(values)\n",
                      encoding="utf-8")
    assert "numpy" in _imported_packages(module)


_TAGS = {"ProvenZero", "NumericallyZero", "NonZero", "Skipped", "Error"}


def _hand_decided_tags(path: Path) -> list:
    """Lines of path that call _aggregate outside run_checks, or where a
    _check_* function returns a tuple that starts with a verdict tag."""
    lines = set()
    for top in ast.parse(path.read_text(encoding="utf-8"), str(path)).body:
        name = getattr(top, "name", None)
        for node in ast.walk(top):
            if (isinstance(node, ast.Call) and name != "run_checks"
                    and getattr(node.func, "id", getattr(node.func, "attr", None)) == "_aggregate"):
                lines.add(node.lineno)
            elif (isinstance(node, ast.Return) and (name or "").startswith("_check_")
                  and isinstance(node.value, ast.Tuple) and node.value.elts
                  and isinstance(node.value.elts[0], ast.Constant)
                  and node.value.elts[0].value in _TAGS):
                lines.add(node.lineno)
    return sorted(lines)


def test_only_run_checks_decides_a_tag():
    # each _check_* returns (checks, detail); run_checks aggregates them
    assert not _hand_decided_tags(SOURCES[0].parent / "runner.py")


def test_the_guard_flags_a_tag_decided_outside_run_checks(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("def _aggregate(checks, detail):\n"
                      "    return 'ProvenZero', None, None, detail\n"
                      "def _check_a(ctx):\n"
                      "    return _aggregate(ctx.checks, 'a')\n"
                      "def _check_b(ctx):\n"
                      "    if ctx.x:\n"
                      "        return 'NonZero', None, None, 'no reduction'\n"
                      "    return (), 'b'\n"
                      "def run_checks(fns, ctx):\n"
                      "    return [_aggregate(*fn(ctx)) for fn in fns]\n"
                      "first = runner._aggregate((), '')\n", encoding="utf-8")
    assert _hand_decided_tags(module) == [4, 7, 11]


def _called(node) -> str:
    """The name a call node calls, as a name or an attribute, else ""."""
    return getattr(node.func, "id", getattr(node.func, "attr", "")) if isinstance(
        node, ast.Call) else ""


def _number(node) -> bool:
    """Whether node is a number literal, signed, or a tuple of them."""
    if isinstance(node, ast.Tuple):
        return bool(node.elts) and all(map(_number, node.elts))
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    return isinstance(node, ast.Constant) and type(node.value) in (int, float)


def _module_settings(path: Path) -> list:
    """Lines of path that assign a number at module level, other than
    MONITOR_TOL."""
    return [node.lineno for node in ast.parse(path.read_text(encoding="utf-8"), str(path)).body
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None
            and _number(node.value)
            and {getattr(t, "id", None) for t in
                 (node.targets if isinstance(node, ast.Assign) else [node.target])}
            != {"MONITOR_TOL"}]


def test_the_runner_sets_no_trajectory_setting_but_mon_tolerance():
    # gl and lz read their horizon and tolerances from lagrangian, every
    # integrating check its step from numeric
    assert not _module_settings(SOURCES[0].parent / "runner.py")


def test_the_guard_flags_a_trajectory_setting_in_the_runner(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("TRAJECTORY_H = 1e-3\nMONITOR_TOL = 1e-6\nNOETHER_T1 = 0.5\n"
                      "_RANK = {'a': 0}\nTOL = -1e-5\nT1, H = 1.0, 1e-3\nN: int = 4\n"
                      "def f():\n    h = 1e-3\n", encoding="utf-8")
    assert _module_settings(module) == [1, 3, 5, 6, 7]


def _passed_settings(path: Path) -> list:
    """Lines of path where check_noether_lambda or partial_reduction_check
    is passed t1, h or tol, by keyword or by position."""
    from lamsym import lagrangian
    first = {name: list(inspect.signature(getattr(lagrangian, name)).parameters).index("t1")
             for name in ("check_noether_lambda", "partial_reduction_check")}
    return sorted({node.lineno for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                   if _called(node) in first
                   and (len(node.args) > first[_called(node)]
                        or {k.arg for k in node.keywords} & {"t1", "h", "tol"})})


def test_the_runner_passes_no_trajectory_setting_to_gl_or_lz():
    assert not _passed_settings(SOURCES[0].parent / "runner.py")


def test_the_guard_flags_a_trajectory_setting_passed_to_gl_or_lz(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("a = lagmod.check_noether_lambda(lag, xl, laml, ics, box)\n"
                      "b = lagmod.check_noether_lambda(lag, xl, laml, ics, box, 0.5)\n"
                      "c = check_noether_lambda(lag, xl, laml, ics, tol=1e-5)\n"
                      "d = partial_reduction_check(lag, xl, laml, e, th, rl, ps, box, zc)\n"
                      "e = partial_reduction_check(lag, xl, laml, e, th, rl, ps, box, zc,\n"
                      "                            h=1e-3)\n"
                      "f = integrate_hamiltonian(sys, u0, 0.0, 1.0, 1e-3)\n", encoding="utf-8")
    assert _passed_settings(module) == [2, 3, 5]


def _stray_calls(path: Path, callee: str, prefix: str) -> list:
    """Lines of path that call `callee` outside every top-level function
    whose name starts with `prefix`."""
    return sorted({node.lineno for top in ast.parse(path.read_text(encoding="utf-8")).body
                   if not getattr(top, "name", "").startswith(prefix)
                   for node in ast.walk(top) if _called(node) == callee})


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_the_integrators_run_the_rk4_loop(path):
    # compare_with_scalar_ode integrates its law through integrate_first_order
    assert not _stray_calls(path, "_rk4_loop", "integrate_")


def test_the_guard_flags_the_rk4_loop_outside_an_integrator(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("def integrate_flow(f, y0):\n    return _rk4_loop(f, y0, 0.0, 1.0, 1e-3)\n"
                      "def compare(law, g0):\n    return numeric._rk4_loop(law, [g0], 0.0, 1.0, 1e-3)\n"
                      "states = _rk4_loop(f, y0, 0.0, 1.0, 1e-3)\n", encoding="utf-8")
    assert _stray_calls(module, "_rk4_loop", "integrate_") == [4, 5]


def test_the_scalar_law_is_integrated_by_integrate_first_order():
    numeric = SOURCES[0].parent / "numeric.py"
    top = next(node for node in ast.parse(numeric.read_text(encoding="utf-8")).body
               if getattr(node, "name", "") == "compare_with_scalar_ode")
    assert "integrate_first_order" in {_called(node) for node in ast.walk(top)}


def test_only_the_run_context_builds_a_zero_matrix():
    # a file without a matrix means Lambda = 0, said once in runner._Context
    assert not _stray_calls(SOURCES[0].parent / "runner.py", "zeros", "_Context")


def test_the_guard_flags_a_zero_matrix_built_in_a_check(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("class _Context:\n    def __init__(self, n):\n"
                      "        self.lam = LambdaMatrix.zeros(2 * n)\n"
                      "def _check_wzl(ctx):\n"
                      "    lam = ctx.lam or lam_mod.LambdaMatrix.zeros(2 * ctx.problem.n)\n",
                      encoding="utf-8")
    assert _stray_calls(module, "zeros", "_Context") == [5]


def test_the_scalar_condition_report_has_no_second_verdict():
    # check_scalar_condition returns the verdicts to report in every branch
    from lamsym.lagrangian import ScalarConditionReport
    assert "holds" not in vars(ScalarConditionReport)


def _literal_defaults(path: Path) -> list:
    """Lines of path that give an option a number literal as its default."""
    return sorted({node.lineno for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                   if _called(node) == "add_argument"
                   and any(k.arg == "default" and _number(k.value) for k in node.keywords)})


def test_the_cli_states_no_default_the_library_holds():
    assert not _literal_defaults(SOURCES[0].parent / "cli.py")


def test_the_guard_flags_a_literal_cli_default(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("ap.add_argument('--seed', type=int, default=0)\n"
                      "ap.add_argument('--tol', type=float, default=zc.abs_tol)\n"
                      "ap.add_argument('--report', default='text')\n"
                      "pi.add_argument('--step', type=float, default=1e-3)\n", encoding="utf-8")
    assert _literal_defaults(module) == [1, 4]


def _code_from_text(path: Path) -> list:
    """Lines of path that call eval, or exec outside expr.py's `_define`."""
    home = "_define" if path.name == "expr.py" else None
    return sorted({node.lineno for top in ast.parse(path.read_text(encoding="utf-8")).body
                   for node in ast.walk(top)
                   if _called(node) == "eval"
                   or _called(node) == "exec" and getattr(top, "name", None) != home})


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_expr_define_turns_source_into_code(path):
    # every generated function is defined in the one environment, so one
    # place can count or time them all
    assert not _code_from_text(path)


def test_the_package_has_one_exec_call():
    assert sum(_called(node) == "exec" for path in SOURCES
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))) == 1


def test_the_guard_flags_code_made_outside_expr_define(tmp_path):
    source = ("def _define(lines, name, **env):\n    exec('\\n'.join(lines), env)\n"
              "def _generated(lines, name):\n    exec('\\n'.join(lines), {})\n"
              "f = eval('lambda x: x')\n")
    home, other = tmp_path / "expr.py", tmp_path / "numeric.py"
    home.write_text(source, encoding="utf-8")
    other.write_text(source, encoding="utf-8")
    assert _code_from_text(home) == [4, 5]
    assert _code_from_text(other) == [2, 4, 5]


_KERNEL_HOOKS = {"_Fuser", "_define"}


def _kernel_internals(path: Path) -> list:
    """Lines of path that name a private attribute of expr other than _Fuser
    and _define, import one from it, or read an attribute `lines`."""
    lines = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute) and (
                node.attr == "lines" or getattr(node.value, "id", None) == "expr"
                and node.attr.startswith("_") and node.attr not in _KERNEL_HOOKS):
            lines.add(node.lineno)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").endswith("expr") and any(
                a.name.startswith("_") and a.name not in _KERNEL_HOOKS for a in node.names):
            lines.add(node.lineno)
    return sorted(lines)


def test_numeric_reaches_the_code_generator_through_two_names():
    # numeric builds its loops and stages with expr._define and the stage's
    # lines with expr._Fuser; the environment and the line buffer stay in expr
    assert not _kernel_internals(SOURCES[0].parent / "numeric.py")


def test_the_guard_flags_a_kernel_internal_read_in_numeric(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("fuser = expr._Fuser(rows, names)\nf = expr._define(lines, 'f')\n"
                      "mark = len(fuser.lines)\nenv = dict(expr._COMPILE_ENV)\n"
                      "body = expr._guarded(lines)\nfrom .expr import _guarded, Const\n"
                      "from lamsym.expr import _define\nlines = []\n", encoding="utf-8")
    assert _kernel_internals(module) == [3, 4, 5, 6]
