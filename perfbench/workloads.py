"""The benchmark's workloads: what one pass loads, the operations it times,
and how each operation's output is checked.

An operation is one call into a public entry point, as a user would make it:
  corpus        runner.run_checks + runner.report_to_json on one bundled
                example under its cli.CORPUS selection;
  symbolic      the same on one example, with every check that does not
                integrate (the kind's full check order minus mon, gl, lz);
  trajectories  an `integrate`-style flow: numeric.integrate_hamiltonian or
                numeric.integrate_euler_lagrange, then numeric.monitor of a
                quantity the flow conserves and numeric.trajectory_to_csv
                into memory.
Checks run outside the timed region.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
from importlib import resources
from typing import Callable, NamedTuple

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED = os.path.join(HERE, "expected")
INTEGRATING_CHECKS = ("mon", "gl", "lz")


class Op(NamedTuple):
    label: str
    run: Callable[[], object]
    check: Callable[[object], tuple]   # output -> (ok, why, digest)


def _expected(name: str):
    with open(os.path.join(EXPECTED, name), encoding="utf-8") as fh:
        return json.load(fh)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _tags(report_text: str) -> list:
    return [[c["name"], c["verdict"]] for c in json.loads(report_text)["checks"]]


def _bundled(fname: str) -> str:
    return str(resources.files("lamsym").joinpath("problems", fname))


class Corpus:
    """The seven bundled examples under their cli.CORPUS selections."""

    def __init__(self, m, seed: int, inputs: str):
        self.m, self.seed = m, seed
        self.problems = [(fname, selection, m.problem.load_problem(_bundled(fname)))
                         for fname, selection in m.cli.CORPUS]

    def ops(self) -> list:
        m = self.m
        cfg = m.runner.RunConfig(seed=self.seed)
        golden_path = os.path.join(EXPECTED, f"corpus_seed{self.seed}.json")
        with open(os.path.join(EXPECTED, "corpus_seed0.json"), encoding="utf-8") as fh:
            reference = [json.dumps(doc, indent=2) for doc in json.load(fh)]
        golden = None
        if os.path.exists(golden_path):
            with open(golden_path, encoding="utf-8") as fh:
                text = fh.read()
            golden = [json.dumps(doc, indent=2) for doc in json.loads(text)]
            if "[\n" + ",\n".join(golden) + "\n]\n" != text:
                raise ValueError(f"{golden_path} is not in `corpus --report json` layout")
        ops = []
        for i, (fname, selection, problem) in enumerate(self.problems):
            def run(problem=problem, selection=selection):
                return m.runner.report_to_json(m.runner.run_checks(problem, selection, cfg))

            def check(text, i=i):
                if golden is not None:
                    ok = text == golden[i]
                    return ok, "" if ok else "report bytes differ from the golden file", _digest(text)
                doc = json.loads(text)
                ok = (_tags(text) == _tags(reference[i]) and doc["seed"] == self.seed
                      and doc["status"] == "pass")
                return ok, "" if ok else "verdict tags differ from the seed-0 golden", _digest(text)
            ops.append(Op(fname, run, check))
        return ops


class Symbolic:
    """Every non-integrating check on each of the seven bundled examples."""

    def __init__(self, m, seed: int, inputs: str):
        self.m, self.seed = m, seed
        self.problems = [(fname, m.problem.load_problem(_bundled(fname)))
                         for fname, _ in m.cli.CORPUS]

    def ops(self) -> list:
        m = self.m
        cfg = m.runner.RunConfig(seed=self.seed)
        expected = _expected("symbolic_tags.json")
        ops = []
        for fname, problem in self.problems:
            order = (m.runner.HAMILTONIAN_CHECKS if problem.kind == "hamiltonian"
                     else m.runner.LAGRANGIAN_CHECKS)
            selection = [c for c in order if c not in INTEGRATING_CHECKS]

            def run(problem=problem, selection=selection):
                return m.runner.report_to_json(m.runner.run_checks(problem, selection, cfg))

            def check(text, want=expected[fname]):
                ok = _tags(text) == want
                return ok, "" if ok else "verdict tags differ from the expected table", _digest(text)
            ops.append(Op(fname, run, check))
        return ops


class Trajectories:
    """Long flows of bundled and generated systems, each monitored for a
    quantity it conserves and written as CSV into memory."""

    def __init__(self, m, seed: int, inputs: str):
        self.m = m
        with open(os.path.join(inputs, "flows.json"), encoding="utf-8") as fh:
            self.flows = json.load(fh)["flows"]
        files = {}
        for flow in self.flows:
            fname = flow["file"]
            if fname not in files:
                path = os.path.join(inputs, fname)
                files[fname] = m.problem.load_problem(
                    path if os.path.exists(path) else _bundled(fname))
        self.problems = files

    def _conserved(self, problem):
        """H for hamiltonian kind; the energy sum dq_a dL/ddq_a - L otherwise."""
        e = self.m.expr
        if problem.kind == "hamiltonian":
            return problem.hamiltonian
        lag = problem.lagrangian_system()
        parts = [e.mul(e.Var(v), e.differentiate(lag.lagrangian, v)) for v in lag.dq]
        return e.simplify(e.add(*parts, e.neg(lag.lagrangian)))

    def ops(self) -> list:
        numeric = self.m.numeric
        tolerances = _expected("trajectories.json")
        conserved = {fname: self._conserved(p) for fname, p in self.problems.items()}
        ops = []
        for flow in self.flows:
            problem = self.problems[flow["file"]]
            quantity = conserved[flow["file"]]
            t1, h, y0 = flow["t1"], flow["h"], flow["initial"]
            steps = int(round(t1 / h))

            def run(problem=problem, quantity=quantity, t1=t1, h=h, y0=y0):
                if problem.kind == "hamiltonian":
                    traj = numeric.integrate_hamiltonian(problem.phase_system(), y0, 0.0, t1, h)
                else:
                    n = problem.n
                    traj = numeric.integrate_euler_lagrange(
                        problem.lagrangian_system(), y0[:n], y0[n:], 0.0, t1, h)
                series = numeric.monitor(traj, [quantity], labels=["E"])
                out = io.StringIO()
                numeric.trajectory_to_csv(traj, out, series)
                return traj, series[0], out.getvalue()

            def check(output, steps=steps, tol=tolerances[flow["flow"]]["drift_tol"]):
                traj, series, csv = output
                if traj.truncated or len(traj.states) != steps + 1:
                    return False, f"trajectory truncated: {traj.reason}", None
                if series.truncated_at is not None or len(series.values) != steps + 1:
                    return False, "monitor series truncated", None
                e0 = float(series.values[0])
                drift = max(abs(float(v) - e0) for v in series.values) / (1.0 + abs(e0))
                if not drift <= tol:
                    return False, f"conserved quantity drifts by {drift:.3e} > {tol:g}", None
                if csv.count("\n") != steps + 2:
                    return False, "CSV has the wrong number of rows", None
                return True, "", _digest(csv)
            ops.append(Op(f"{flow['flow']}#{flow['copy']}", run, check))
        return ops


WORKLOADS = {"corpus": Corpus, "symbolic": Symbolic, "trajectories": Trajectories}
