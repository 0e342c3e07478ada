"""Benchmark entry point: one closed loop with one client, each pass in a fresh
interpreter, for a fixed wall time.

    python3 perfbench/run.py --workload corpus --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout (the program is imported from
`src/`).  The seed makes the inputs: the generated n = 4 systems, the
perturbed initial conditions and the zero-test seed.  Passes run one after
another, so at most this process and one child run at any time.

With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 passes alternate untraced and traced, and it carries the
per-layer metrics (medians over traced passes) and trace.overhead_ratio.
Every operation's output is checked; `failed` counts the operations that
raised, returned a wrong verdict tag or wrong report bytes, produced a
truncated trajectory or a drifting conserved quantity, or whose output
differs between passes of the same seed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import inputs  # noqa: E402
from layers import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

PASS_TIMEOUT_S = 120
# lamsym's matrices are at most 4 x 4, where BLAS worker threads do no useful
# work; left on, they start with numpy and compete with the pass for the
# machine's cores, which made the set-up time bimodal.
PASS_ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                MKL_NUM_THREADS="1")
END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_ms.p50": "ms",
                    "op_ms.p90": "ms", "peak_rss_mb": "MB"}


def run_pass(workload: str, seed: int, trace: int, inputs_dir: str) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "bench_pass.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace), "--inputs", inputs_dir]
    proc = subprocess.run(cmd, cwd=ROOT, env=PASS_ENV, capture_output=True, text=True,
                          timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"pass of {workload} exited with status {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: int, inputs_dir: str):
    """Run passes until `seconds` of wall time are used; returns the passes
    and the wall time they took."""
    passes = []
    start = time.perf_counter()
    while True:
        traced = trace == 1 and len(passes) % 2 == 1
        doc = run_pass(workload, seed, 1 if traced else 0, inputs_dir)
        doc["traced"] = traced
        passes.append(doc)
        elapsed = time.perf_counter() - start
        enough = elapsed >= seconds and (trace == 0 or len(passes) >= 2)
        if enough:
            return passes, elapsed


def count_failures(passes: list) -> tuple:
    """(attempted, failed, reasons): an operation fails when its own check
    failed or its output differs from the same operation in the first pass."""
    reference = [op["digest"] for op in passes[0]["ops"]]
    attempted = failed = 0
    reasons = []
    for doc in passes:
        for i, op in enumerate(doc["ops"]):
            attempted += 1
            why = op["why"]
            if op["ok"] and op["digest"] != reference[i]:
                why = "output differs between passes of the same seed"
            if not op["ok"] or why:
                failed += 1
                reasons.append(f"{op['label']}: {why}")
    return attempted, failed, reasons


def end_to_end(passes: list, key: str = "ms", setup_key: str = "setup_s") -> dict:
    """End-to-end metrics from the rescaled times (key "ms"), or from the raw
    wall times (key "raw_ms")."""
    latencies = [op[key] for doc in passes for op in doc["ops"]]
    deciles = statistics.quantiles(latencies, n=10) if len(latencies) > 1 else latencies * 9
    return {
        "setup_s": statistics.median(d[setup_key] for d in passes),
        "ops_per_s": 1e3 * len(latencies) / sum(latencies),
        "op_ms.p50": statistics.median(latencies),
        "op_ms.p90": deciles[8],
        "peak_rss_mb": statistics.median(d["peak_rss_mb"] for d in passes),
    }


def per_layer(passes: list) -> dict:
    traced = [d for d in passes if d["traced"]]
    plain = [d for d in passes if not d["traced"]]
    out = {name: statistics.median(d["layers"][name] for d in traced)
           for name in traced[0]["layers"]}
    out["trace.overhead_ratio"] = (statistics.median(d["ops_scaled_s"] for d in traced)
                                   / statistics.median(d["ops_scaled_s"] for d in plain))
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "lamsym", "__init__.py")):
        print(f"error: no lamsym sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    inputs_dir = tempfile.mkdtemp(prefix=".bench_inputs-", dir=ROOT)
    try:
        inputs.write_inputs(args.seed, inputs_dir)
        passes, elapsed = measure(args.workload, args.seed, args.seconds, args.trace,
                                  inputs_dir)
    finally:
        shutil.rmtree(inputs_dir, ignore_errors=True)

    attempted, failed, reasons = count_failures(passes)
    for why in reasons[:20]:
        print(f"failed: {why}")
    print(f"{args.workload} seed {args.seed}: {len(passes)} passes in {elapsed:.1f} s,"
          f" {attempted} operations, {failed} failed")
    print(f"  error_ratio = {failed / attempted:.6g} ratio")
    if args.trace:
        values, units = per_layer(passes), dict(PER_LAYER)
    else:
        values, units = end_to_end(passes), END_TO_END_UNITS
        raw = end_to_end(passes, "raw_ms", "raw_setup_s")
        beyond = sum(1 for d in passes for op in d["ops"] if op["ms"] > values["op_ms.p90"])
        print(f"  latency samples: {attempted}, {beyond} beyond p90")
    for name, value in values.items():
        extra = f"   (raw wall time: {raw[name]:.6g})" if not args.trace and name != "peak_rss_mb" else ""
        print(f"  {name} = {value:.6g} {units[name]}{extra}")
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
