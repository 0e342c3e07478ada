import inspect
import json
import re
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path

import pytest

from lamsym import lagrangian, lambda_symmetry, symmetry
from lamsym.cli import CORPUS, corpus_reports, main
from lamsym.expr import (MAX_SAMPLES, Const, Verdicts, ZeroTestConfig, format_expr, parse,
                         simplify)
from lamsym.problem import ProblemError, _items, load_problem
from lamsym.runner import (
    CHECKS,
    HAMILTONIAN_CHECKS,
    LAGRANGIAN_CHECKS,
    report_to_json,
    report_to_text,
    run_checks,
)
from fractions import Fraction


def bundled(name: str) -> str:
    with resources.as_file(resources.files("lamsym").joinpath("problems", name)) as p:
        return str(p)


def write_problem(tmp_path, doc, name="prob.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


MINIMAL = {
    "kind": "hamiltonian",
    "n": 1,
    "hamiltonian": "(p1^2+q1^2)/2",
    "vector_field": {"phi": ["q1"], "psi": ["p1"]},
}


# ------------------------------------------------------------------ loading

def test_load_bundled_crossed_example():
    problem = load_problem(bundled("example2.json"))
    assert problem.n == 2
    assert problem.kind == "hamiltonian"
    assert problem.lam.size == 4
    diag = [format_expr(problem.lam.entries[i][i]) for i in range(4)]
    assert diag == ["0", "0", "1", "1"]
    assert problem.chart is not None


@pytest.mark.parametrize("literal, message", [
    ("1e999999999", "number with an exponent beyond +-8515 (offset 0)"),
    ("9" * 5000, "number with a part of more than 4300 digits (offset 0)"),
])
def test_a_literal_past_the_limit_names_its_item(tmp_path, literal, message):
    doc = dict(MINIMAL, vector_field={"phi": [literal], "psi": ["p1"]})
    start = time.perf_counter()
    with pytest.raises(ProblemError) as err:
        load_problem(write_problem(tmp_path, doc))
    assert str(err.value) == f"vector_field.phi[0]: parse error: {message}"
    assert time.perf_counter() - start < 0.1


def test_missing_n_is_a_schema_error(tmp_path):
    doc = dict(MINIMAL)
    del doc["n"]
    with pytest.raises(ProblemError, match="n: missing"):
        load_problem(write_problem(tmp_path, doc))


def test_wrong_lambda_size_is_rejected(tmp_path):
    doc = dict(MINIMAL)
    doc["lambda"] = {"entries": [["0"] * 3] * 3}
    with pytest.raises(ProblemError, match="lambda.entries"):
        load_problem(write_problem(tmp_path, doc))


def test_expression_parse_error_carries_location(tmp_path):
    doc = dict(MINIMAL, hamiltonian="q1 + + p1")
    with pytest.raises(ProblemError, match="hamiltonian.*offset"):
        load_problem(write_problem(tmp_path, doc))


def test_parameters_are_substituted_exactly(tmp_path):
    doc = dict(MINIMAL, parameters={"eps": 0.1}, hamiltonian="eps*q1*p1")
    problem = load_problem(write_problem(tmp_path, doc))
    from lamsym.expr import simplify, parse
    assert simplify(problem.hamiltonian) == simplify(parse("q1*p1/10"))


def test_unknown_candidate_is_rejected(tmp_path):
    doc = dict(MINIMAL, candidates={"bogus": "1"})
    with pytest.raises(ProblemError, match="unknown candidate"):
        load_problem(write_problem(tmp_path, doc))


def test_lagrangian_kind_rejects_psi(tmp_path, capsys):
    # a Lagrangian file's field is phi alone: psi, and tau alike, would be dropped
    for key in ("psi", "tau"):
        doc = {
            "kind": "lagrangian", "n": 1, "lagrangian": "dq1^2/2",
            "vector_field": {"phi": ["q1"], key: ["p1"] if key == "psi" else "1"},
        }
        path = write_problem(tmp_path, doc)
        with pytest.raises(ProblemError,
                           match=f"^vector_field.{key}: not allowed for lagrangian kind$"):
            load_problem(path)
        assert main(["check", "--problem", path]) == 2
        assert capsys.readouterr().err.startswith(f"error: vector_field.{key}: ")


# ------------------------------------------------------------------ running

def test_perturbed_rotation_checks_pass():
    report = run_checks(load_problem(bundled("example4.json")), ("las", "dts"))
    assert report.status == "pass"
    assert report.record("las").verdict in ("ProvenZero", "NumericallyZero")
    assert "2*p1*q1" in report.record("dts").detail or "2*q1*p1" in report.record("dts").detail


def test_exact_symmetry_fails_on_perturbed_system():
    report = run_checks(load_problem(bundled("example4.json")), ("cs", "ds"))
    assert report.status == "fail"
    assert report.record("cs").verdict == "NonZero"
    assert report.record("cs").witness is not None
    assert report.record("ds").verdict == "Skipped"
    assert report.record("ds").detail == "point symmetry does not hold"


@pytest.mark.parametrize("fname,selection,prerequisites", [
    ("example2.json", ("dtg", "dts"), ("las",)),
    ("example1.json", ("ds", "case"), ("cs",)),
    ("example2.json", ("wzl", "sep"), ("chart",)),
    ("example6.json", ("lh", "gl"), ("xll",)),
    ("example5.json", ("las",), ("lh", "xll", "xh")),
    ("example6.json", ("las",), ("lh", "xll", "xh")),
    ("example7.json", ("chart",), ("xh",)),
    ("example7.json", ("las", "dts", "wzl"), ("lh", "xll", "xh", "chart")),
])
def test_skipped_names_a_prerequisite_that_was_not_selected(fname, selection, prerequisites):
    # each record names the first prerequisite; with all of them the checks pass
    report = run_checks(load_problem(bundled(fname)), selection)
    for record in report.checks:
        assert record.verdict == "Skipped"
        assert record.detail == f"prerequisite {prerequisites[0]} not selected"
    with_prerequisites = run_checks(load_problem(bundled(fname)), prerequisites + selection)
    for name in selection:
        assert with_prerequisites.record(name).verdict in ("ProvenZero", "NumericallyZero")


def test_reduction_on_a_lagrangian_problem_never_runs_without_its_pipeline():
    # wzl once reduced with a zero matrix when lh was not selected
    report = run_checks(load_problem(bundled("example6.json")), ("chart", "wzl"))
    assert [(r.verdict, r.detail) for r in report.checks] == [
        ("Skipped", "prerequisite xh not selected"),
        ("Skipped", "prerequisite lh not selected")]
    assert report.status == "pass"
    report = run_checks(load_problem(bundled("example6.json")), ("xll", "xh", "lh", "chart", "wzl"))
    assert report.record("wzl").verdict == "ProvenZero"


def test_phase_side_is_skipped_when_the_phase_field_was_not_constructed(tmp_path):
    doc = {
        "kind": "lagrangian", "n": 1,
        "lagrangian": "(dq1/q1 + 1)^2*exp(-2*q1)/2",
        "vector_field": {"phi": ["q1"]},
        "lambda": {"entries": [["q1+dq1^2"]], "velocity_dependent": True},
        "candidates": {"H_for_legendre": "p1^2/2"},
    }
    report = run_checks(load_problem(write_problem(tmp_path, doc)), ("xh", "g"))
    assert report.record("xh").verdict == "Error"
    assert report.record("g").verdict == "Skipped"
    assert report.record("g").detail == "phase field not constructed"


@pytest.mark.parametrize("kind,order", [("hamiltonian", HAMILTONIAN_CHECKS),
                                        ("lagrangian", LAGRANGIAN_CHECKS)])
def test_every_prerequisite_is_an_earlier_check_of_the_same_kind(kind, order):
    assert len(set(order)) == len(order)
    assert {name for name, check in CHECKS.items() if kind in check.needs} == set(order)
    file_items = {"lambda", "chart", "initial_conditions"}
    file_items |= {path.partition(".")[2] for path in _items(kind, 2)
                   if path.startswith("candidates.")}
    for name in order:
        inputs, prerequisites = CHECKS[name].needs[kind]
        for items, reason in inputs:
            assert set(items) <= file_items and reason
        for prerequisite, reason in prerequisites:
            assert prerequisite in order and reason
            assert order.index(prerequisite) < order.index(name)


def test_log_scaling_skips_separated_equation():
    report = run_checks(load_problem(bundled("example3.json")),
                        ("las", "chart", "wzl", "sep"))
    assert report.record("sep").verdict == "Skipped"
    assert "scalar" in report.record("sep").detail
    assert report.status == "pass"


def test_log_pair_full_pipeline_passes():
    report = run_checks(load_problem(bundled("example6.json")))
    assert report.status == "pass"
    names = [r.name for r in report.checks]
    assert names == ["xll", "leg", "xh", "lh", "las", "g", "dtg", "dts",
                     "chart", "wzl", "sep", "gamma", "gl", "lala", "lz", "mon"]


def test_unknown_selection_is_an_error():
    with pytest.raises(ValueError, match="unknown checks"):
        run_checks(load_problem(bundled("example1.json")), ("nope",))


def test_missing_inputs_give_skipped_not_failures():
    report = run_checks(load_problem(bundled("example1.json")),
                        ("las", "chart", "gamma"))
    for record in report.checks:
        assert record.verdict == "Skipped"
    assert report.status == "pass"


# ------------------------------------------------------------------ reports

def test_text_report_one_line_per_check():
    report = run_checks(load_problem(bundled("example4.json")), ("las", "dts"))
    text = report_to_text(report)
    lines = text.strip().split("\n")
    assert lines[1].startswith("las    [LAS] ")
    assert lines[2].startswith("dts    [DTS] ")
    assert lines[-1] == "status: pass"


def test_json_report_schema():
    report = run_checks(load_problem(bundled("example4.json")), ("las",))
    doc = json.loads(report_to_json(report))
    assert set(doc) == {"problem", "seed", "checks", "status"}
    assert doc["status"] == "pass"
    entry = doc["checks"][0]
    assert entry["name"] == "las"
    assert entry["eq"] == "LAS"
    assert entry["verdict"] in ("ProvenZero", "NumericallyZero")


# ------------------------------------------------------------------ corpus and cli

def test_corpus_all_examples_pass():
    reports = corpus_reports(ZeroTestConfig())
    assert len(reports) == len(CORPUS)
    for report in reports:
        assert report.status == "pass", report_to_text(report)


def test_cli_exit_codes(tmp_path, capsys):
    assert main(["check", "--problem", bundled("example4.json"),
                 "--select", "las,dts", "--out", str(tmp_path / "r.txt")]) == 0
    assert main(["check", "--problem", bundled("example4.json"),
                 "--select", "cs", "--out", str(tmp_path / "r2.txt")]) == 1
    # each error of use exits 2 with one line on stderr, never a traceback;
    # an --out that cannot be written is one, not a failed check
    missing, out = str(tmp_path / "missing.json"), str(tmp_path / "missing" / "r.txt")
    invalid = tmp_path / "invalid.json"
    invalid.write_text("{\"kind\": ", encoding="utf-8")
    check = ["check", "--problem", bundled("example4.json"), "--select", "las"]
    integrate = ["integrate", "--problem", bundled("example1.json"), "--ic", "q1=1,p1=0",
                 "--t1", "0.01"]
    capsys.readouterr()
    for argv, named in [
            (["check", "--problem", missing], missing),
            (["integrate", "--problem", missing, "--ic", "q1=1,p1=0"], missing),
            (["check", "--problem", str(invalid)], "invalid JSON"),
            (["integrate", "--problem", str(invalid), "--ic", "q1=1,p1=0"], "invalid JSON"),
            (["check", "--problem", bundled("example4.json"), "--select", "las,bogus"],
             "unknown checks for hamiltonian kind: ['bogus']"),
            (check + ["--samples", "0"], "samples must be at least 1"),
            (["corpus", "--samples", "0"], "samples must be at least 1"),
            (check + ["--out", out], out),
            (integrate + ["--out", out], out),
            (["corpus", "--out", out], out),
            (["integrate", "--problem", bundled("example1.json"), "--ic", "q1=1,p1"],
             "bad assignment 'p1'"),
            (integrate + ["--step", "-1"], "need h > 0 and t1 > t0")]:
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and named in err, (argv, err)
        assert "Traceback" not in err


@pytest.mark.parametrize("number", range(1, 8))
def test_full_order_report_matches_the_pinned_bytes(tmp_path, number):
    # every check of the kind, in order, at seed 0; tests/reports holds the
    # reports as they were before the check table replaced the hand-kept ones
    out = tmp_path / "r.json"
    main(["check", "--problem", bundled(f"example{number}.json"), "--seed", "0",
          "--report", "json", "--out", str(out)])
    pinned = Path(__file__).parent / "reports" / f"example{number}.json"
    assert out.read_bytes() == pinned.read_bytes()


def test_every_check_labels_its_verdicts_distinctly(monkeypatch):
    # tests look a verdict up by its label, so a repeated label would hide
    # one: record what each library check returns on the seven examples
    labels = {}

    def recorded(fn):
        def call(*args, **kwargs):
            out = fn(*args, **kwargs)
            if isinstance(out, Verdicts):
                labels.setdefault(fn.__name__, []).append([lbl for lbl, _ in out.checks])
            return out
        return call

    for mod in (symmetry, lambda_symmetry, lagrangian):
        for name, fn in list(vars(mod).items()):
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                monkeypatch.setattr(mod, name, recorded(fn))
    for number in range(1, 8):
        run_checks(load_problem(bundled(f"example{number}.json")))
    assert sorted(labels) == [
        "check_lambda_constant_G", "check_lambda_constant_S", "check_lambda_symmetry",
        "check_noether_lambda", "check_point_symmetry", "check_scalar_condition",
        "check_separated_G", "extend_lambda", "generating_function_test", "partial_reduction_check",
        "reduced_system", "verify_chart", "verify_legendre"]
    for name, runs in labels.items():
        for run in runs:
            assert len(set(run)) == len(run), (name, run)


def test_lz_keeps_the_symbolic_witness_beside_a_larger_flow_residual(tmp_path):
    # dq1 = 2 q1 log q1 breaks the annihilation and the constraint flow; the
    # flow's residual is the larger, and it carries no witness point
    doc = _bundled_doc("example6.json")
    doc["candidates"]["particular_solution"] = ["2*q1*log(q1)", "q2*(1/2 - log(q1))"]
    problem = load_problem(write_problem(tmp_path, doc))
    c = problem.candidates
    rep = lagrangian.partial_reduction_check(
        problem.lagrangian_system(), problem.config_field(), problem.lam, c["eta"],
        c["theta"], c["reduced_L"], c["particular_solution"], problem.box)
    annihilation = dict(rep.checks)["annihilation"]
    assert annihilation.tag == "NonZero" and annihilation.witness
    record = run_checks(problem, ["lz"]).record("lz")
    assert record.verdict == "NonZero"
    assert record.witness == annihilation.witness
    # max(symbolic, trajectory) is the trajectory residual the detail prints
    assert record.max_residual > max(1e-5, *(v.max_residual for _, v in rep.checks
                                             if v.tag != "ProvenZero" and v.witness))
    assert record.detail == f"constraint-flow residual {record.max_residual:.3e} (tol 1e-05)"


def test_lz_on_proven_symbolic_checks_reads_the_flow_tolerance(tmp_path):
    # every symbolic check of this reduction is ProvenZero; the constraint
    # flow is tolerance evidence, so the check reads NumericallyZero
    doc = {"kind": "lagrangian", "n": 1, "lagrangian": "dq1^2/2",
           "vector_field": {"phi": ["1"]},
           "candidates": {"theta": "dq1", "reduced_L": "theta^2/2",
                          "particular_solution": ["0"]}}
    problem = load_problem(write_problem(tmp_path, doc))
    c = problem.candidates
    rep = lagrangian.partial_reduction_check(
        problem.lagrangian_system(), problem.config_field(),
        lambda_symmetry.LambdaMatrix.zeros(1, lambda_symmetry.LAGRANGIAN_SIDE), (),
        c["theta"], c["reduced_L"], c["particular_solution"])
    assert [v.tag for _, v in rep.checks] == ["ProvenZero"] * 3 + ["NumericallyZero"]
    record = run_checks(problem, ["lz"]).record("lz")
    assert (record.verdict, record.max_residual, record.witness) == ("NumericallyZero", 0.0, None)
    assert record.detail == "constraint-flow residual 0.000e+00 (tol 1e-05)"


def test_mon_with_a_law_and_nothing_to_monitor_tests_no_residual(tmp_path):
    # a gamma law without G monitors nothing, yet reads NumericallyZero 0.0
    doc = _bundled_doc("example2.json")
    del doc["candidates"]["G"], doc["candidates"]["Gamma"]
    report = run_checks(load_problem(write_problem(tmp_path, doc)), ["mon"])
    assert json.loads(report_to_json(report))["checks"] == [
        {"name": "mon", "eq": "MON", "verdict": "NumericallyZero", "max_residual": 0.0}]


def test_lala_without_a_scalar_reduction_is_nonzero_with_no_residual(tmp_path, capsys):
    # Lambda phi = (q2, 0) is no multiple of phi = (q1, q2): nothing is
    # sampled, so the entry carries neither a residual nor a witness
    doc = {"kind": "lagrangian", "n": 2, "lagrangian": "(dq1^2+dq2^2)/2",
           "vector_field": {"phi": ["q1", "q2"]},
           "lambda": {"entries": [["0", "1"], ["0", "0"]]}}
    out = tmp_path / "r.json"
    assert main(["check", "--problem", write_problem(tmp_path, doc), "--select", "lala",
                 "--report", "json", "--out", str(out)]) == 1
    assert json.loads(out.read_text())["checks"] == [
        {"name": "lala", "eq": "LALA", "verdict": "NonZero",
         "detail": "no scalar reduction on the configuration side"}]


_SECOND_DOF = re.compile(r"\b(d?[qp])([12])\b")


def _swap_dofs(item):
    """item with q1, p1, dq1 and dp1 renamed to q2, p2, dq2 and dp2 and back."""
    if isinstance(item, str):
        return _SECOND_DOF.sub(lambda m: m[1] + "21"[int(m[2]) - 1], item)
    if isinstance(item, list):
        return [_swap_dofs(e) for e in item]
    if isinstance(item, dict):
        return {_swap_dofs(k): _swap_dofs(e) for k, e in item.items()}
    return item


def _swapped(row):
    """A row over (q1, q2) or (q1, q2, p1, p2), with its degrees of freedom swapped."""
    return [row[i] for i in (1, 0, 3, 2)[:len(row)]]


@pytest.mark.parametrize("name", ["example2.json", "example3.json", "example5.json",
                                  "example6.json"])
def test_swapping_the_degrees_of_freedom_keeps_every_tag(tmp_path, name):
    # names, the field, Lambda's rows and columns, the velocity map, the
    # particular solution and the initial conditions are all swapped; the
    # chart keeps its w1..w3 and z, and eta its order
    doc = _swap_dofs(_bundled_doc(name))
    doc["vector_field"] = {k: _swapped(v) for k, v in doc["vector_field"].items()}
    doc["lambda"]["entries"] = _swapped([_swapped(row) for row in doc["lambda"]["entries"]])
    candidates = doc["candidates"]
    for key in ("velocity_map", "particular_solution"):
        if key in candidates:
            candidates[key] = _swapped(candidates[key])
    if "initial_conditions" in candidates:
        candidates["initial_conditions"] = list(map(_swapped, candidates["initial_conditions"]))
    problem, swapped = load_problem(bundled(name)), load_problem(write_problem(tmp_path, doc))
    for seed in (0, 1, 3):
        cfg = ZeroTestConfig(seed=seed)
        tags = [[(r.name, r.verdict) for r in run_checks(p, None, cfg).checks]
                for p in (problem, swapped)]
        assert tags[0] == tags[1], seed


# the items a rational constant c shifts, with the sign of the shift: H or
# L by +c; with L, the Legendre Hamiltonian by -c and the reduced L by +c
_SHIFTED = {"hamiltonian": "+", "lagrangian": "+", "H_for_legendre": "-", "reduced_L": "+"}


@pytest.mark.parametrize("number", range(1, 8))
def test_adding_a_rational_constant_keeps_every_tag(tmp_path, number):
    name = f"example{number}.json"
    doc = _bundled_doc(name)
    for items in (doc, doc["candidates"]):
        for key in _SHIFTED.keys() & items.keys():
            items[key] = f"({items[key]}){_SHIFTED[key]}7/3"
    problem, shifted = load_problem(bundled(name)), load_problem(write_problem(tmp_path, doc))
    for seed in (0, 1, 3):
        cfg = ZeroTestConfig(seed=seed)
        tags = [[(r.name, r.verdict) for r in run_checks(p, None, cfg).checks]
                for p in (problem, shifted)]
        assert tags[0] == tags[1], seed


def test_cli_corpus_json_is_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["corpus", "--seed", "7", "--report", "json", "--out", str(a)]) == 0
    assert main(["corpus", "--seed", "7", "--report", "json", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_integrate_emits_csv(tmp_path):
    out = tmp_path / "traj.csv"
    code = main(["integrate", "--problem", bundled("example1.json"),
                 "--ic", "q1=1.0,p1=0.0", "--t1", "0.01", "--step", "0.001",
                 "--monitor", "(p1^2+q1^2)/2", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "t,q1,p1,(p1^2+q1^2)/2"
    assert len(lines) == 12
    assert float(lines[-1].split(",")[3]) == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("ic, message", [
    ("q1=0.4,p1=0.2,q9=7,q1=0.5", "initial condition names unknown variable 'q9'"),
    ("q1=0.4,p1=0.2,q1=0.5", "initial condition assigns 'q1' twice"),
    ("q1=0.4, p1 =0.2,q1 = 0.5", "initial condition assigns 'q1' twice"),
])
def test_cli_integrate_rejects_unknown_and_repeated_names(tmp_path, capsys, ic, message):
    out = tmp_path / "traj.csv"
    code = main(["integrate", "--problem", bundled("example1.json"), "--ic", ic,
                 "--t1", "0.01", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("text, reason", [
    ("(q1-200000)^(p1*q1*10^300)", "negative base with non-finite exponent"),     # inf
    ("(q1-200000)^(p1*q1*10^300*0)", "negative base with non-finite exponent"),   # nan
    ("sin(10^300*q1*p1)", "sin or cos of an infinite argument"),
])
def test_cli_monitor_of_a_non_finite_argument_truncates_with_a_warning(tmp_path, capsys,
                                                                      text, reason):
    doc = dict(MINIMAL, hamiltonian="p1^2/2 - cos(q1)")
    out = tmp_path / "traj.csv"
    code = main(["integrate", "--problem", write_problem(tmp_path, doc),
                 "--ic", "q1=100000,p1=100000", "--t1", "0.01", "--monitor", text,
                 "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == f"warning: monitor {text} truncated at step 0: {reason}\n"
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 12 and all(line.endswith(",") for line in lines[1:])


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "lamsym.cli", "check", "--problem",
         bundled("example1.json"), "--select", "cs"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "cs" in proc.stdout


def test_cli_integrate_lagrangian_kind(tmp_path):
    out = tmp_path / "traj.csv"
    code = main(["integrate", "--problem", bundled("example7.json"),
                 "--ic", "q1=0.5,dq1=0.1", "--t1", "0.05", "--step", "0.001",
                 "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "t,q1,dq1"
    assert len(lines) == 52


def test_runner_records_error_for_impossible_extension(tmp_path):
    # velocity-dependent matrix without a velocity map: construction fails
    doc = {
        "kind": "lagrangian", "n": 1,
        "lagrangian": "(dq1/q1 + 1)^2*exp(-2*q1)/2",
        "vector_field": {"phi": ["q1"]},
        "lambda": {"entries": [["q1+dq1^2"]], "velocity_dependent": True},
    }
    problem = load_problem(write_problem(tmp_path, doc))
    report = run_checks(problem, ("xh",))
    assert report.record("xh").verdict == "Error"
    assert "velocity map" in report.record("xh").detail


def test_constant_beyond_float_range_is_an_error_verdict(tmp_path):
    doc = dict(MINIMAL, vector_field={"phi": ["10^400*q1*sin(q1)"], "psi": ["p1"]})
    out = tmp_path / "r.json"
    assert main(["check", "--problem", write_problem(tmp_path, doc), "--select", "cs",
                 "--report", "json", "--out", str(out)]) == 1
    record = json.loads(out.read_text())["checks"][0]
    assert record["verdict"] == "Error"
    assert "float range" in record["detail"]


# 2^2^2^2^2^2 is 2^(2^65536): 2^65536 has 19,729 digits, past Python's
# 4,300-digit limit on int to text, so it must stay a power
_TOWER = "2^2^2^2^2^2"


def test_a_power_tower_in_the_field_is_a_sampling_error_verdict(tmp_path):
    doc = dict(MINIMAL, vector_field={"phi": [f"{_TOWER}*t"], "psi": ["p1"]})
    out = tmp_path / "r.json"
    assert main(["check", "--problem", write_problem(tmp_path, doc), "--select", "cs",
                 "--report", "json", "--out", str(out)]) == 1
    assert json.loads(out.read_text())["checks"] == [
        {"name": "cs", "eq": "CS", "verdict": "Error",
         "detail": "100/100 sample points rejected: 100 overflowed"}]


def test_a_power_tower_in_the_hamiltonian_integrates_until_it_overflows(tmp_path, capsys):
    doc = dict(MINIMAL, hamiltonian=f"{_TOWER}*p1^2/2")
    assert main(["integrate", "--problem", write_problem(tmp_path, doc), "--ic", "q1=0.1,p1=0.2",
                 "--t1", "0.01", "--out", str(tmp_path / "t.csv")]) == 1
    assert capsys.readouterr().err == "warning: state left safety box at t=0.001\n"


def test_a_constant_past_the_kernel_limit_is_an_error_verdict(tmp_path):
    # each power folds, but their product would have 20,307 bits
    doc = dict(MINIMAL, hamiltonian="2^7000*3^4000*5^3000*p1^2/2")
    report = run_checks(load_problem(write_problem(tmp_path, doc)), ["cs"])
    assert (report.record("cs").verdict, report.record("cs").detail) == (
        "Error", "constant beyond the limit of 14000 bits")


def test_cli_defaults_are_the_library_defaults():
    from lamsym import numeric
    from lamsym.cli import _build_parser, _config
    parser = _build_parser()
    for argv in (["check", "--problem", "p.json"], ["corpus"]):
        assert _config(parser.parse_args(argv)) == ZeroTestConfig()
    args = parser.parse_args(["integrate", "--problem", "p.json", "--ic", "q1=0"])
    assert (args.t1, args.step) == (numeric.DEFAULT_HORIZON, numeric.DEFAULT_STEP)


def test_deeply_nested_input_exits_with_status_2(tmp_path, capsys):
    doc = dict(MINIMAL, hamiltonian="(" * 3000 + "p1^2+q1^2" + ")" * 3000)
    assert main(["check", "--problem", write_problem(tmp_path, doc)]) == 2
    assert "nested deeper" in capsys.readouterr().err


def _bundled_doc(name: str):
    with open(bundled(name), encoding="utf-8") as fh:
        return json.load(fh)


def _set(doc, keys, value):
    for key in keys[:-1]:
        doc = doc[key]
    doc[keys[-1]] = value


# (bundled example, keys of the replaced item, replacement, field path named)
MALFORMED = [
    ("example1.json", ("parameters",), ["eps"], "parameters"),
    ("example1.json", ("parameters",), [], "parameters: expected an object, got list"),
    ("example1.json", ("box",), [[0.1, 1.0]], "box"),
    ("example2.json", ("chart", "inverse"), ["(w1+w3)/2"], "chart.inverse"),
    ("example1.json", ("box",), {"q1": ["a", 1.0]}, r"box.q1\[0\]"),
    ("example1.json", ("box",), {"p1": [0.2, None]}, r"box.p1\[1\]"),
    ("example2.json", ("candidates", "initial_conditions"), [[0.4, "a", 0.2, 0.1]],
     r"candidates.initial_conditions\[0\]\[1\]"),
    ("example2.json", ("candidates", "initial_conditions"), [[0.4, 0.3, 0.2, None]],
     r"candidates.initial_conditions\[0\]\[3\]"),
    ("example2.json", ("lambda", "velocity_dependent"), "no", "lambda.velocity_dependent"),
    ("example1.json", ("box",), {"q1": [0.1, 10 ** 400]}, r"box.q1\[1\]: expected a finite"),
    # the stated flag disagrees with the entries, in either direction
    ("example7.json", ("lambda", "velocity_dependent"), False,
     "lambda.velocity_dependent: is false, but the entries contain velocity symbols"),
    ("example5.json", ("lambda", "velocity_dependent"), True,
     "lambda.velocity_dependent: is true, but the entries do not contain velocity symbols"),
    # a variable the item may not use: a would be sampled as a variable, and
    # cs read ProvenZero and ds NonZero
    ("example1.json", ("vector_field",), {"phi": ["a*q1"], "psi": ["a*p1"]},
     r"^vector_field.phi\[0\]: unknown variables \['a'\]$"),
    ("example1.json", ("vector_field", "psi"), ["dp1"], r"vector_field.psi\[0\]: unknown"),
    ("example1.json", ("vector_field", "tau"), "z", "vector_field.tau: unknown"),
    ("example1.json", ("candidates", "S_expected"), "2*dq1", "candidates.S_expected: unknown"),
    ("example2.json", ("chart", "w"), ["q1-q2", "p1-p2", "w1"], r"chart.w\[2\]: unknown"),
    ("example2.json", ("chart", "z"), "(p1+p2)/2+dp1", "chart.z: unknown"),
    ("example2.json", ("chart", "inverse", "q1"), "(w1+w3)/2+q2",
     r"^chart.inverse.q1: unknown variables \['q2'\]$"),
    ("example2.json", ("candidates", "G"), "q1+q3", "candidates.G: unknown"),
    ("example2.json", ("candidates", "gamma"), "-G*q1", "candidates.gamma: unknown"),
    ("example2.json", ("candidates", "Gamma"), "G*exp(t)", "candidates.Gamma: unknown"),
    ("example2.json", ("lambda", "entries", 0, 0), "w1", r"lambda.entries\[0\]\[0\]: unknown"),
    ("example5.json", ("vector_field", "phi"), ["q1", "p1"],
     r"vector_field.phi\[1\]: unknown"),
    ("example5.json", ("lambda", "entries", 1, 1), "dp1", r"lambda.entries\[1\]\[1\]: unknown"),
    ("example5.json", ("candidates", "velocity_map"), ["q1", "dq1"],
     r"candidates.velocity_map\[1\]: unknown"),
    ("example5.json", ("candidates", "H_for_legendre"), "dq1", "candidates.H_for_legendre: unknown"),
    ("example6.json", ("candidates", "theta"), "p1", "candidates.theta: unknown"),
    ("example6.json", ("candidates", "eta"), ["q1*dq2"], r"candidates.eta\[0\]: unknown"),
    ("example6.json", ("candidates", "reduced_L"), "theta^2/2 + deta2^2",
     "candidates.reduced_L: unknown"),
    ("example6.json", ("candidates", "particular_solution"), ["q1", "p2"],
     r"candidates.particular_solution\[1\]: unknown"),
    ("example7.json", ("candidates", "lambda2_candidate"), [["q1+w1"]],
     r"candidates.lambda2_candidate\[0\]\[0\]: unknown"),
    # a parameter may not replace a variable
    ("example1.json", ("parameters",), {"q1": 2}, "^parameters.q1: is the name of a variable$"),
    ("example2.json", ("parameters",), {"G": 2}, "^parameters.G: is the name of a variable$"),
    ("example6.json", ("parameters",), {"deta1": 2}, "parameters.deta1: is the name"),
    # H and L follow the same rule; a stray variable would make every check
    # that builds the system an Error
    ("example1.json", ("hamiltonian",), "(p1^2+q1^2)/2 + a*q1",
     r"^hamiltonian: unknown variables \['a'\]$"),
    ("example7.json", ("lagrangian",), "(dq1/q1 + 1)^2*exp(-2*q1)/2 + p1*q1",
     r"^lagrangian: unknown variables \['p1'\]$"),
    # a Lagrangian file's field is phi alone
    ("example7.json", ("vector_field", "tau"), "1",
     "^vector_field.tau: not allowed for lagrangian kind$"),
    # a box key that names no variable would leave every check on the default interval
    ("example1.json", ("box",), {"Q1": [5, 6]}, r"^box.Q1: is not the name of a variable$"),
]


@pytest.mark.parametrize("name, keys, value, where", MALFORMED)
def test_malformed_problem_file_is_a_schema_error(tmp_path, capsys, name, keys, value, where):
    doc = _bundled_doc(name)
    _set(doc, keys, value)
    path = write_problem(tmp_path, doc)
    with pytest.raises(ProblemError, match=where):
        load_problem(path)
    assert main(["check", "--problem", path]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_each_item_may_use_its_own_variables(tmp_path):
    # velocities of q and p in a hamiltonian-side matrix, t everywhere, and
    # parameters with names no item of an n = 2 problem uses
    doc = _bundled_doc("example2.json")
    doc["parameters"] = {"a": 2, "w4": 3, "eta2": 5}
    doc["lambda"]["entries"][0][0] = "a*dq1*dp2*t"
    doc["candidates"].update(G="q1+q2+w4*t", gamma="-G+eta2*t")
    problem = load_problem(write_problem(tmp_path, doc))
    assert format_expr(problem.lam.entries[0][0]) == "2*dp2*dq1*t"
    assert simplify(problem.candidates["gamma"]) is simplify(parse("-G+5*t"))


@pytest.mark.parametrize("name", ["example1.json", "example2.json"])
def test_top_level_document_must_be_an_object(tmp_path, name):
    path = write_problem(tmp_path, [_bundled_doc(name)])
    with pytest.raises(ProblemError, match="expected a JSON object, got list"):
        load_problem(path)
    assert main(["check", "--problem", path]) == 2


@pytest.mark.parametrize("name", ["example2.json", "example7.json"])
def test_velocity_dependence_is_read_off_the_entries_when_not_stated(tmp_path, name):
    doc = _bundled_doc(name)
    stated = doc["lambda"].pop("velocity_dependent", False)
    assert load_problem(write_problem(tmp_path, doc)).lam.velocity_dependent is stated


@pytest.mark.parametrize("command", ["check", "corpus"])
@pytest.mark.parametrize("option, value, message", [
    ("--samples", "0", "samples must be at least 1"),
    ("--samples", "-5", "samples must be at least 1"),
    ("--samples", "100001", "samples must be at most 100000"),
    ("--samples", "1000000000", "samples must be at most 100000"),
    ("--tol", "nan", "tolerance must be finite"),
    ("--tol", "inf", "tolerance must be finite"),
    ("--tol", "-1e-9", "non-negative"),
])
def test_bad_sampling_settings_exit_with_status_2(tmp_path, capsys, command, option, value,
                                                   message):
    argv = [command, f"{option}={value}", "--out", str(tmp_path / "r.txt")]
    if command == "check":
        argv[1:1] = ["--problem", bundled("example4.json")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not (tmp_path / "r.txt").exists()


def test_zero_test_config_is_keyword_only_and_checked():
    with pytest.raises(TypeError):
        ZeroTestConfig(100)
    with pytest.raises(ValueError, match="samples"):
        ZeroTestConfig(samples=0)
    with pytest.raises(ValueError, match="samples must be at most"):
        ZeroTestConfig(samples=MAX_SAMPLES + 1)
    assert ZeroTestConfig(samples=MAX_SAMPLES).samples == MAX_SAMPLES
    assert ZeroTestConfig(seed=3) == ZeroTestConfig(samples=100, seed=3, abs_tol=1e-9)
