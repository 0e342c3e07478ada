"""Command-line front end: verify problem files, integrate flows, and run
the bundled corpus of worked examples.

A usage error (a file that cannot be read or is malformed, an unknown
check, bad settings or initial conditions, an unwritable --out) raises
ValueError, RuntimeError or OSError in the command; `main` alone turns it
into one `error: ...` line and exit status 2."""

from __future__ import annotations

import sys
from contextlib import nullcontext
from importlib import resources

from .expr import ZeroTestConfig, parse
from .numeric import (DEFAULT_HORIZON, DEFAULT_STEP, integrate_euler_lagrange,
                      integrate_hamiltonian, monitor, trajectory_to_csv)
from .problem import load_problem
from .runner import report_to_json, report_to_text, run_checks

# Per-example check selections: checks that are expected to fail for
# mathematical reasons (e.g. the exact symmetry condition on a field that
# is only a perturbed symmetry) are not part of an example's selection.
# Example 6 lists every Lagrangian check, so a new check leaves its report as is.
CORPUS = (
    ("example1.json", ("cs", "ds", "case")),
    ("example2.json", ("las", "g", "dtg", "dts", "chart", "wzl", "sep", "gamma", "mon")),
    ("example3.json", ("las", "g", "dtg", "dts", "chart", "wzl", "sep")),
    ("example4.json", ("las", "dts")),
    ("example5.json", ("xll", "leg", "xh", "lh", "las", "g", "dtg", "gl", "lala")),
    ("example6.json", ("xll", "leg", "xh", "lh", "las", "g", "dtg", "dts", "chart", "wzl",
                       "sep", "gamma", "gl", "lala", "lz", "mon")),
    ("example7.json", ("xll", "leg", "xh", "lh", "las", "dts", "chart", "wzl", "gl", "lz")),
)


def _build_parser() -> argparse.ArgumentParser:
    import argparse   # here, not at module level: library callers of CORPUS never parse
    ap = argparse.ArgumentParser(prog="lamsym",
                                 description="Verify symmetries and perturbed "
                                             "symmetries of canonical equations.")
    sub = ap.add_subparsers(dest="command", required=True)
    # options of check and corpus; the zero-test ones (`_config`) default as ZeroTestConfig
    zc = ZeroTestConfig()
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--seed", type=int, default=zc.seed)
    shared.add_argument("--samples", type=int, default=zc.samples)
    shared.add_argument("--tol", type=float, default=zc.abs_tol)
    shared.add_argument("--report", choices=("text", "json"), default="text")
    shared.add_argument("--out")

    pc = sub.add_parser("check", parents=[shared], help="run checks on a problem file")
    pc.add_argument("--problem", required=True)
    pc.add_argument("--select", help="comma-separated check names")

    pi = sub.add_parser("integrate", help="integrate a problem's flow to CSV")
    pi.add_argument("--problem", required=True)
    pi.add_argument("--ic", required=True,
                    help="comma-separated assignments, e.g. q1=0.4,p1=0.2")
    pi.add_argument("--t1", type=float, default=DEFAULT_HORIZON)
    pi.add_argument("--step", type=float, default=DEFAULT_STEP)
    pi.add_argument("--monitor", help="semicolon-separated expressions")
    pi.add_argument("--out")

    sub.add_parser("corpus", parents=[shared], help="run all bundled examples")
    return ap


def _config(args) -> ZeroTestConfig:
    return ZeroTestConfig(seed=args.seed, samples=args.samples, abs_tol=args.tol)


def _output(path):
    """The file at path, open for writing, or stdout."""
    return open(path, "w", encoding="utf-8") if path else nullcontext(sys.stdout)


def _cmd_check(args) -> int:
    problem = load_problem(args.problem)
    selection = args.select.split(",") if args.select else None
    report = run_checks(problem, selection, _config(args))
    text = report_to_json(report) if args.report == "json" else report_to_text(report)
    with _output(args.out) as stream:
        stream.write(text + "\n")
    return 0 if report.status == "pass" else 1


def _parse_ic(text: str, names) -> list:
    values = {}
    for piece in text.split(","):
        if "=" not in piece:
            raise ValueError(f"bad assignment {piece!r}")
        name, val = (s.strip() for s in piece.split("=", 1))
        if name not in names:
            raise ValueError(f"initial condition names unknown variable {name!r}")
        if name in values:
            raise ValueError(f"initial condition assigns {name!r} twice")
        values[name] = float(val)
    missing = [n for n in names if n not in values]
    if missing:
        raise ValueError(f"initial condition misses {missing}")
    return [values[n] for n in names]


def _cmd_integrate(args) -> int:
    problem = load_problem(args.problem)
    if problem.kind == "hamiltonian":
        sys_obj = problem.phase_system()
        u0 = _parse_ic(args.ic, sys_obj.u)
        traj = integrate_hamiltonian(sys_obj, u0, 0.0, args.t1, args.step)
    else:
        lag = problem.lagrangian_system()
        y0 = _parse_ic(args.ic, lag.q + lag.dq)
        traj = integrate_euler_lagrange(lag, y0[:lag.n], y0[lag.n:], 0.0, args.t1, args.step)
    labels = [s.strip() for s in (args.monitor or "").split(";") if s.strip()]
    series = monitor(traj, [parse(s) for s in labels], labels)
    with _output(args.out) as stream:
        trajectory_to_csv(traj, stream, series)
    warnings = [traj.reason] if traj.truncated else []
    warnings += [f"monitor {s.label} {s.reason}" for s in series if s.reason is not None]
    for text in warnings:
        print(f"warning: {text}", file=sys.stderr)
    return 1 if warnings else 0


def corpus_reports(cfg: ZeroTestConfig) -> list:
    reports = []
    base = resources.files("lamsym").joinpath("problems")
    for fname, selection in CORPUS:
        with resources.as_file(base.joinpath(fname)) as path:
            problem = load_problem(str(path))
        reports.append(run_checks(problem, selection, cfg))
    return reports


def _cmd_corpus(args) -> int:
    reports = corpus_reports(_config(args))
    with _output(args.out) as stream:
        if args.report == "json":
            body = ",\n".join(report_to_json(r) for r in reports)
            stream.write("[\n" + body + "\n]\n")
        else:
            for r in reports:
                stream.write(report_to_text(r) + "\n\n")
    return 0 if all(r.status == "pass" for r in reports) else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    command = {"check": _cmd_check, "integrate": _cmd_integrate, "corpus": _cmd_corpus}
    try:
        return command[args.command](args)
    except (ValueError, RuntimeError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
