"""Which lamsym functions are traced, and the per-layer metrics of one pass.

Every per-layer metric is a total over one traced pass (set-up plus every
operation of the workload once), except the shares, which are taken over the
operations alone.  Self time is a span's duration minus its child spans, so
summing self times over a layer never counts time twice.
"""

from __future__ import annotations

import inspect
from collections import Counter, defaultdict

from tracer import END, INFO, NAME, OP, PARENT, START, Raised, self_times

SETUP_OP = "setup"

# modules whose every public function is one layer, reported as
# <module>.calls and <module>.self_ms
MODULE_LAYERS = ("mechanics", "symmetry", "lambda_symmetry", "lagrangian")
INTEGRATORS = ("numeric.integrate_hamiltonian", "numeric.integrate_euler_lagrange")
VERDICTS = ("ProvenZero", "NumericallyZero", "NonZero", "Skipped", "Error")
EXPR_FUNCS = ("simplify", "differentiate", "substitute", "parse", "compile_expr")

PER_LAYER = (
    [(f"expr.{f}.{m}", u) for f in EXPR_FUNCS for m, u in (("calls", "count"), ("self_ms", "ms"))]
    + [("expr.simplify.nodes_out", "count")]
    + [("expr.zero_test.calls", "count"), ("expr.zero_test.symbolic_ms", "ms"),
       ("expr.zero_test.sampling_ms", "ms"), ("expr.zero_test.proven", "count"),
       ("expr.zero_test.numeric_zero", "count"), ("expr.zero_test.nonzero", "count"),
       ("expr.zero_test.errors", "count"), ("expr.zero_test.proven_ratio", "ratio"),
       ("expr.zero_test.samples_evaluated", "count"),
       ("expr.zero_test.samples_rejected", "count")]
    + [(f"{i}.{m}", u) for i in INTEGRATORS for m, u in (("steps", "count"), ("us_per_step", "us"))]
    + [("numeric.truncated", "count"), ("numeric.monitor.points", "count"),
       ("numeric.monitor.self_ms", "ms"), ("numeric.compare_with_scalar_ode.self_ms", "ms"),
       ("numeric.trajectory_to_csv.self_ms", "ms"), ("numeric.trajectory_to_csv.bytes", "bytes")]
    + [(f"{m}.{k}", u) for m in MODULE_LAYERS for k, u in (("calls", "count"), ("self_ms", "ms"))]
    + [("problem.load_problem.calls", "count"), ("problem.load_problem.self_ms", "ms"),
       ("runner.run_checks.calls", "count"), ("runner.run_checks.self_ms", "ms")]
    + [(f"runner.verdict.{v}", "count") for v in VERDICTS]
    + [("runner.report_to_json.self_ms", "ms"), ("runner.report_to_json.bytes", "bytes"),
       ("share.integrator_pct", "%"), ("share.expr_pct", "%"),
       ("trace.overhead_ratio", "ratio")]
)


def _zero_test_info(default_samples):
    def hook(args, kwargs, verdict):
        cfg = args[2] if len(args) > 2 else kwargs.get("cfg")
        asked = cfg.samples if cfg is not None else default_samples
        return verdict.tag, verdict.samples, asked
    return hook


def install(tracer, m) -> None:
    """Wrap every traced function; `m` has the imported lamsym modules as
    attributes named after them (m.expr, m.numeric, ...)."""
    expr, numeric = m.expr, m.numeric
    tracer.install(expr, "simplify", "expr.simplify", lambda a, k, r: r)
    for fname in ("differentiate", "substitute", "parse", "compile_expr"):
        tracer.install(expr, fname, f"expr.{fname}")
    tracer.install(expr, "is_identically_zero", "expr.zero_test",
                   _zero_test_info(expr.ZeroTestConfig().samples))

    def trajectory_info(a, k, traj):
        return len(traj.states) - 1, bool(traj.truncated)
    for fname in ("integrate_hamiltonian", "integrate_euler_lagrange"):
        tracer.install(numeric, fname, f"numeric.{fname}", trajectory_info)
    tracer.install(numeric, "monitor", "numeric.monitor",
                   lambda a, k, series: sum(len(s.values) for s in series))
    tracer.install(numeric, "compare_with_scalar_ode", "numeric.compare_with_scalar_ode")
    tracer.install(numeric, "trajectory_to_csv", "numeric.trajectory_to_csv",
                   lambda a, k, r: (a[1] if len(a) > 1 else k["stream"]).tell())

    for modname in MODULE_LAYERS:
        mod = getattr(m, modname)
        for attr, value in list(vars(mod).items()):
            if (inspect.isfunction(value) and not attr.startswith("_")
                    and value.__module__ == mod.__name__):
                tracer.install(mod, attr, f"{modname}.{attr}")

    tracer.install(m.problem, "load_problem", "problem.load_problem")
    runner = m.runner
    tracer.install(runner, "run_checks", "runner.run_checks",
                   lambda a, k, report: [r.verdict for r in report.checks])
    tracer.install(runner, "report_to_json", "runner.report_to_json",
                   lambda a, k, text: len(text.encode("utf-8")))


def count_nodes(e, _cache=None) -> int:
    """Size of an expression tree, counting shared subtrees at every use."""
    cache = {} if _cache is None else _cache
    key = id(e)
    if key in cache:
        return cache[key]
    total = 1
    for value in _fields(e):
        if isinstance(value, tuple):
            total += sum(count_nodes(v, cache) for v in value if _is_node(v))
        elif _is_node(value):
            total += count_nodes(value, cache)
    cache[key] = total
    return total


def _is_node(v) -> bool:
    return type(v).__module__ == "lamsym.expr"


def _fields(e):
    if hasattr(e, "__dict__"):
        return vars(e).values()
    return [getattr(e, s) for cls in type(e).__mro__
            for s in getattr(cls, "__slots__", ()) if hasattr(e, s)]


def pass_metrics(spans: list, ops_wall_s: float) -> dict:
    """Per-layer metrics of one traced pass (see PER_LAYER for units)."""
    selfs = self_times(spans)
    # trace.overhead_ratio compares two passes; run.py sets it
    out = {name: 0.0 for name, _ in PER_LAYER if name != "trace.overhead_ratio"}
    self_ms = defaultdict(float)
    calls = Counter()
    verdicts = Counter()
    integrator_self = expr_self = 0.0
    node_cache: dict = {}
    for span, st in zip(spans, selfs):
        name, info = span[NAME], span[INFO]
        module = name.split(".", 1)[0]
        calls[name] += 1
        self_ms[name] += st * 1e3
        if module in MODULE_LAYERS:
            calls[module] += 1
            self_ms[module] += st * 1e3
        in_op = span[OP] != SETUP_OP
        if in_op and name in INTEGRATORS:
            integrator_self += st
        if in_op and module == "expr":
            expr_self += st
        if isinstance(info, Raised):
            if name == "expr.zero_test":
                out["expr.zero_test.errors"] += 1
            continue
        if name == "expr.simplify":
            out["expr.simplify.nodes_out"] += count_nodes(info, node_cache)
            parent = span[PARENT]
            if parent >= 0 and spans[parent][NAME] == "expr.zero_test":
                out["expr.zero_test.symbolic_ms"] += (span[END] - span[START]) * 1e3
        elif name == "expr.zero_test":
            tag, samples, asked = info
            key = {"ProvenZero": "proven", "NumericallyZero": "numeric_zero",
                   "NonZero": "nonzero"}[tag]
            out[f"expr.zero_test.{key}"] += 1
            if tag != "ProvenZero":
                out["expr.zero_test.samples_evaluated"] += samples
                out["expr.zero_test.samples_rejected"] += asked - samples
        elif name in INTEGRATORS:
            steps, truncated = info
            out[f"{name}.steps"] += steps
            out["numeric.truncated"] += truncated
        elif name == "numeric.monitor":
            out["numeric.monitor.points"] += info
        elif name == "numeric.trajectory_to_csv":
            out["numeric.trajectory_to_csv.bytes"] += info
        elif name == "runner.run_checks":
            verdicts.update(info)
        elif name == "runner.report_to_json":
            out["runner.report_to_json.bytes"] += info

    for f in EXPR_FUNCS:
        out[f"expr.{f}.calls"] = calls[f"expr.{f}"]
        out[f"expr.{f}.self_ms"] = self_ms[f"expr.{f}"]
    zt_calls = calls["expr.zero_test"]
    out["expr.zero_test.calls"] = zt_calls
    out["expr.zero_test.sampling_ms"] = self_ms["expr.zero_test"]
    out["expr.zero_test.proven_ratio"] = out["expr.zero_test.proven"] / zt_calls if zt_calls else 0.0
    for name in INTEGRATORS:
        steps = out[f"{name}.steps"]
        out[f"{name}.us_per_step"] = self_ms[name] * 1e3 / steps if steps else 0.0
    for name in ("numeric.monitor", "numeric.compare_with_scalar_ode",
                 "numeric.trajectory_to_csv", "problem.load_problem",
                 "runner.run_checks", "runner.report_to_json"):
        out[f"{name}.self_ms"] = self_ms[name]
    for name in ("problem.load_problem", "runner.run_checks"):
        out[f"{name}.calls"] = calls[name]
    for module in MODULE_LAYERS:
        out[f"{module}.calls"] = calls[module]
        out[f"{module}.self_ms"] = self_ms[module]
    for v in VERDICTS:
        out[f"runner.verdict.{v}"] = verdicts[v]
    if ops_wall_s > 0:
        out["share.integrator_pct"] = 100.0 * integrator_self / ops_wall_s
        out["share.expr_pct"] = 100.0 * expr_self / ops_wall_s
    return out
