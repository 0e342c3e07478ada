"""Command-line front end: verify problem files, integrate flows, and run
the bundled corpus of worked examples."""

from __future__ import annotations

import argparse
import sys
from importlib import resources

from .expr import ParseError, ZeroTestConfig, parse
from .numeric import integrate_euler_lagrange, integrate_hamiltonian, monitor, trajectory_to_csv
from .problem import ProblemError, load_problem
from .runner import emit_report, report_to_json, report_to_text, run_checks

# Per-example check selections: checks that are expected to fail for
# mathematical reasons (e.g. the exact symmetry condition on a field that
# is only a perturbed symmetry) are not part of an example's selection.
CORPUS = (
    ("example1.json", ("cs", "ds", "case")),
    ("example2.json", ("las", "g", "dtg", "dts", "chart", "wzl", "sep", "gamma", "mon")),
    ("example3.json", ("las", "g", "dtg", "dts", "chart", "wzl", "sep")),
    ("example4.json", ("las", "dts")),
    ("example5.json", ("xll", "leg", "xh", "lh", "las", "g", "dtg", "gl", "lala")),
    ("example6.json", None),
    ("example7.json", ("xll", "leg", "xh", "lh", "las", "dts", "chart", "wzl", "gl", "lz")),
)


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="lamsym",
                                 description="Verify symmetries and perturbed "
                                             "symmetries of canonical equations.")
    sub = ap.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("check", help="run checks on a problem file")
    pc.add_argument("--problem", required=True)
    pc.add_argument("--select", help="comma-separated check names")
    pc.add_argument("--seed", type=int, default=0)
    pc.add_argument("--samples", type=int, default=100)
    pc.add_argument("--tol", type=float, default=1e-9)
    pc.add_argument("--report", choices=("text", "json"), default="text")
    pc.add_argument("--out")

    pi = sub.add_parser("integrate", help="integrate a problem's flow to CSV")
    pi.add_argument("--problem", required=True)
    pi.add_argument("--ic", required=True,
                    help="comma-separated assignments, e.g. q1=0.4,p1=0.2")
    pi.add_argument("--t1", type=float, default=1.0)
    pi.add_argument("--step", type=float, default=1e-3)
    pi.add_argument("--monitor", help="semicolon-separated expressions")
    pi.add_argument("--out")

    pk = sub.add_parser("corpus", help="run all bundled examples")
    pk.add_argument("--seed", type=int, default=0)
    pk.add_argument("--samples", type=int, default=100)
    pk.add_argument("--tol", type=float, default=1e-9)
    pk.add_argument("--report", choices=("text", "json"), default="text")
    pk.add_argument("--out")
    return ap


def _open_out(path):
    if path:
        return open(path, "w", encoding="utf-8")
    return None


def _cmd_check(args) -> int:
    try:
        problem = load_problem(args.problem)
    except (ProblemError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    selection = args.select.split(",") if args.select else None
    try:
        cfg = ZeroTestConfig(seed=args.seed, samples=args.samples, abs_tol=args.tol)
        report = run_checks(problem, selection, cfg)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    out = _open_out(args.out)
    try:
        emit_report(report, args.report, out or sys.stdout)
    finally:
        if out:
            out.close()
    return 0 if report.status == "pass" else 1


def _parse_ic(text: str, names) -> list:
    values = {}
    for piece in text.split(","):
        if "=" not in piece:
            raise ValueError(f"bad assignment {piece!r}")
        name, val = piece.split("=", 1)
        values[name.strip()] = float(val)
    missing = [n for n in names if n not in values]
    if missing:
        raise ValueError(f"initial condition misses {missing}")
    return [values[n] for n in names]


def _cmd_integrate(args) -> int:
    try:
        problem = load_problem(args.problem)
    except (ProblemError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    try:
        if problem.kind == "hamiltonian":
            sys_obj = problem.phase_system()
            names = sys_obj.u
            u0 = _parse_ic(args.ic, names)
            traj = integrate_hamiltonian(sys_obj, u0, 0.0, args.t1, args.step)
        else:
            lag = problem.lagrangian_system()
            names = lag.q + lag.dq
            y0 = _parse_ic(args.ic, names)
            traj = integrate_euler_lagrange(lag, y0[:lag.n], y0[lag.n:],
                                            0.0, args.t1, args.step)
        series = []
        if args.monitor:
            exprs = [parse(s) for s in args.monitor.split(";") if s.strip()]
            series = monitor(traj, exprs,
                             labels=[s.strip() for s in args.monitor.split(";") if s.strip()])
    except (ValueError, ParseError, RuntimeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    out = _open_out(args.out)
    try:
        trajectory_to_csv(traj, out or sys.stdout, series)
    finally:
        if out:
            out.close()
    if traj.truncated:
        print(f"warning: {traj.reason}", file=sys.stderr)
        return 1
    return 0


def corpus_reports(cfg: ZeroTestConfig) -> list:
    reports = []
    base = resources.files("lamsym").joinpath("problems")
    for fname, selection in CORPUS:
        with resources.as_file(base.joinpath(fname)) as path:
            problem = load_problem(str(path))
        reports.append(run_checks(problem, selection, cfg))
    return reports


def _cmd_corpus(args) -> int:
    try:
        cfg = ZeroTestConfig(seed=args.seed, samples=args.samples, abs_tol=args.tol)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    reports = corpus_reports(cfg)
    out = _open_out(args.out)
    stream = out or sys.stdout
    try:
        if args.report == "json":
            body = ",\n".join(report_to_json(r) for r in reports)
            stream.write("[\n" + body + "\n]\n")
        else:
            for r in reports:
                stream.write(report_to_text(r) + "\n\n")
    finally:
        if out:
            out.close()
    return 0 if all(r.status == "pass" for r in reports) else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "check":
        return _cmd_check(args)
    if args.command == "integrate":
        return _cmd_integrate(args)
    return _cmd_corpus(args)


if __name__ == "__main__":
    sys.exit(main())
