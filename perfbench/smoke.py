"""Smoke test of the benchmark itself: one short run per workload must check
every output and find no failure, the tracer must compute self time as the
span minus its children, and the committed verdict table must agree with
the facts the acceptance suite asserts.

    python3 -m pytest -q perfbench/smoke.py

The file name keeps it out of the default test collection; it spawns a few
fresh interpreters and takes about ten seconds.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from layers import PER_LAYER  # noqa: E402
from run import END_TO_END_UNITS  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402

OK = ("ProvenZero", "NumericallyZero")


def bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        cwd=os.path.dirname(HERE), capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["corpus", "symbolic", "trajectories"])
def test_short_run_has_no_failed_operation(workload):
    doc = bench(workload, 0)
    assert doc["attempted"] >= 1
    assert doc["failed"] == 0 and doc["correct"]
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == END_TO_END_UNITS
    assert all(v["value"] > 0 for v in doc["metrics"].values())


def test_traced_run_reports_every_layer():
    doc = bench("symbolic", 1)
    assert doc["failed"] == 0
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == dict(PER_LAYER)
    assert doc["metrics"]["expr.zero_test.calls"]["value"] > 0
    assert doc["metrics"]["numeric.integrate_euler_lagrange.steps"]["value"] == 0


def test_self_time_excludes_children_and_recursion_is_one_span():
    tracer = Tracer()
    calls = []

    def inner(k):
        calls.append(k)
        return inner_w(k - 1) if k > 0 else 0

    inner_w = tracer.wrap("inner", inner)
    outer_w = tracer.wrap("outer", lambda: inner_w(3))
    tracer.active = True
    outer_w()
    names = [s[0] for s in tracer.spans]
    assert names == ["outer", "inner"] and calls == [3, 2, 1, 0]
    spans = [["a", 0.0, 10.0, -1, 0, None], ["b", 1.0, 4.0, 0, 0, None],
             ["c", 2.0, 3.0, 1, 0, None], ["d", 5.0, 9.0, 0, 0, None]]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]


# (example, check) -> what tests/test_acceptance.py asserts about it
ACCEPTANCE_FACTS = {
    ("example1.json", "ds"): OK,     # criterion 1: S = 2 is proven
    ("example1.json", "case"): OK,   # criterion 1: classifies constant-S
    ("example2.json", "las"): OK,    # criterion 2: perturbed symmetry
    ("example2.json", "dtg"): OK,    # criterion 2: deviation law
    ("example2.json", "wzl"): OK,    # criterion 2: reduction certificates
    ("example2.json", "gamma"): OK,  # criterion 2: time-dependent integral
    ("example3.json", "las"): OK,    # criterion 3: perturbed symmetry
    ("example3.json", "sep"): ("Skipped",),  # criterion 3: no scalar reduction
    ("example3.json", "wzl"): OK,    # criterion 3: certificates hold
    ("example4.json", "las"): OK,    # criterion 4: perturbed symmetry
    ("example4.json", "dts"): OK,    # criterion 4: S deviation law
    ("example5.json", "xll"): OK,    # criterion 5: perturbed invariance
    ("example5.json", "leg"): OK,    # criterion 5: legendre data
    ("example5.json", "dtg"): OK,    # criterion 5: deviation law
    ("example6.json", "xll"): OK,    # criterion 6: perturbed invariance
    ("example6.json", "lala"): OK,   # criterion 6: extended matrix scales the field
    ("example6.json", "leg"): OK,    # criterion 6: legendre against printed H
    ("example6.json", "chart"): OK,  # criterion 6: chart verification (bundled)
    ("example6.json", "sep"): OK,    # criterion 6: separated dG/dt = -G
    ("example7.json", "xll"): OK,    # criterion 7: perturbed invariance
    ("example7.json", "g"): ("NonZero",),  # criterion 7: closedness fails
    ("example7.json", "lh"): OK,     # criterion 7: extension constraint verified
    ("example7.json", "las"): OK,    # criterion 7: perturbed symmetry
    ("example7.json", "dts"): OK,    # criterion 7: S deviation law
}


def test_symbolic_table_agrees_with_acceptance_suite_and_golden():
    with open(os.path.join(HERE, "expected", "symbolic_tags.json")) as fh:
        table = {f: dict(pairs) for f, pairs in json.load(fh).items()}
    for (fname, check), allowed in ACCEPTANCE_FACTS.items():
        assert table[fname][check] in allowed, (fname, check)
    # where the corpus selection runs a non-integrating check, its golden tag
    # must match the table
    with open(os.path.join(HERE, "expected", "corpus_seed0.json")) as fh:
        golden = json.load(fh)
    for fname, doc in zip(sorted(table), golden):
        for c in doc["checks"]:
            if c["name"] in table[fname]:
                assert table[fname][c["name"]] == c["verdict"], (fname, c["name"])
