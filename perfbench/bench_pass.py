"""One pass of a workload in a fresh interpreter: import lamsym, load the
workload's problem files, run every operation once, check the outputs, and
print one JSON object on stdout.

    python3 perfbench/bench_pass.py --workload corpus --seed 0 --trace 0 \
        --inputs DIR

`DIR` holds the seeded inputs written by inputs.write_inputs.  With
--trace 1 the pass records spans around lamsym's public functions and adds
the per-layer metrics of layers.pass_metrics.

A shared machine can change speed by up to 40% for seconds at a time
(other tenants share its cores).  So a fixed pure-Python calibration
loop runs before the set-up and between operations, and every time is also
reported rescaled by CALIBRATION_REF_S / (mean of the calibrations on either
side of it): the time the work would take at the speed at which the loop
reads CALIBRATION_REF_S.  The rescaling depends only on the machine, never
on lamsym's code.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
CALIBRATION_LOOPS = 12_000
CALIBRATION_REF_S = 0.0045   # the loop's time on the reference machine when quiet


class _Cell:
    __slots__ = ("value", "next")

    def __init__(self, value, nxt):
        self.value = value
        self.next = nxt


def calibrate() -> float:
    """Wall time of a fixed pure-Python loop doing what lamsym's kernel does
    most: build small objects and tuples and hash them into a dict.  It
    tracks the machine's speed for such code far better than an integer loop
    does.  At most 97 cells are alive at once, so the loop reuses memory
    instead of faulting in new pages, and the collector is off while it
    runs, since the cost of a collection depends on how many objects the
    pass holds."""
    gc.disable()
    try:
        start = time.perf_counter()
        table: dict = {}
        for i in range(CALIBRATION_LOOPS):
            key = (i % 97, "x")
            prev = table.get(key)
            table[key] = _Cell((i, i + 1), prev.value if prev else None)
        return time.perf_counter() - start
    finally:
        gc.enable()


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--inputs", required=True)
    args = ap.parse_args()

    import layers
    import workloads
    from tracer import Tracer

    calib_start = calibrate()
    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    from lamsym import (cli, expr, lagrangian, lambda_symmetry, mechanics,
                        numeric, problem, runner, symmetry)
    import_s = time.perf_counter() - t0
    m = SimpleNamespace(cli=cli, expr=expr, lagrangian=lagrangian,
                        lambda_symmetry=lambda_symmetry, mechanics=mechanics,
                        numeric=numeric, problem=problem, runner=runner,
                        symmetry=symmetry)

    tracer = None
    if args.trace:
        tracer = Tracer()
        layers.install(tracer, m)
        tracer.op = layers.SETUP_OP
        tracer.active = True
    t1 = time.perf_counter()
    workload = workloads.WORKLOADS[args.workload](m, args.seed, args.inputs)
    setup_s = import_s + time.perf_counter() - t1
    if tracer:
        tracer.active = False
    calib = calibrate()
    setup_scale = 2 * CALIBRATION_REF_S / (calib_start + calib)

    ops = workload.ops()
    results = []
    ops_wall = ops_scaled = 0.0
    for i, op in enumerate(ops):
        if tracer:
            tracer.op = i
            tracer.active = True
        start = time.perf_counter()
        try:
            output = op.run()
        except Exception as err:  # an operation that raises is a failed operation
            output, error = None, f"{type(err).__name__}: {err}"
        else:
            error = None
        elapsed = time.perf_counter() - start
        if tracer:
            tracer.active = False
        calib_before, calib = calib, calibrate()
        scaled = elapsed * 2 * CALIBRATION_REF_S / (calib_before + calib)
        ops_wall += elapsed
        ops_scaled += scaled
        if error is None:
            ok, why, digest = op.check(output)
        else:
            ok, why, digest = False, error, None
        results.append({"label": op.label, "ms": scaled * 1e3, "raw_ms": elapsed * 1e3,
                        "ok": ok, "why": why, "digest": digest})

    doc = {"setup_s": setup_s * setup_scale, "raw_setup_s": setup_s,
           "ops_wall_s": ops_wall, "ops_scaled_s": ops_scaled, "ops": results,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer:
        doc["layers"] = layers.pass_metrics(tracer.spans, ops_wall)
    sys.stdout.write(json.dumps(doc) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
