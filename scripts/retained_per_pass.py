#!/usr/bin/env python3
"""Predict the memory a benchmark run keeps: raw pass time and the kB each pass leaves behind.

The benchmark worker keeps every operation of every pass with its output until
the run ends, so a run's peak memory grows with the number of passes that fit
in its time, and a faster pass reads as a memory rise. This script loads
`perfbench/workloads.py` read-only, sets each workload up as the worker does,
and runs --passes passes twice: once untimed under tracemalloc, keeping each
operation and its output as the worker keeps them, and once timed without it.
Per workload it prints

    workload: pass <raw s>  kept <kB>/pass  run <MB> (<passes> passes in <run_seconds> s)

The pass time is the sum over operations of each one's median raw time, as
the worker reports it before scaling to reference seconds. The kept kB is the
median over passes of the traced memory a pass adds and leaves. The run
figure is that times the passes that fit in BENCHMARK.json's run_seconds.
Compare it between two checkouts to predict their `peak_rss_mb` move before
running pairs.
"""

import argparse
import importlib.util
import json
import math
import os
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# one BLAS thread, as the benchmark runs; a caller's own setting wins
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
sys.path.insert(0, str(ROOT / "src"))


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while the file runs
    spec.loader.exec_module(module)
    return module


def kept_per_pass(workload, vec, seed: int, passes: int) -> float:
    """Median bytes that one pass's operations and outputs hold once the pass is over."""
    kept, grown = [], []
    tracemalloc.start()
    try:
        for p in range(passes):
            before = tracemalloc.get_traced_memory()[0]
            kept.extend((op, op.run()) for op in workload.ops(vec, seed, p))
            grown.append(tracemalloc.get_traced_memory()[0] - before)
    finally:
        tracemalloc.stop()
    return statistics.median(grown)


def pass_seconds(workload, vec, seed: int, passes: int) -> float:
    """Sum over a pass's operations of each one's median raw time."""
    slots = []
    for p in range(passes):
        for slot, op in enumerate(workload.ops(vec, seed, p)):
            t0 = time.perf_counter()
            op.run()
            if slot == len(slots):
                slots.append([])
            slots[slot].append(time.perf_counter() - t0)
    return sum(statistics.median(times) for times in slots)


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--passes", type=int, default=3, help="passes per measurement (default 3)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workload", action="append", help="only this workload (repeatable; default all)")
    args = parser.parse_args()
    if args.passes < 1:
        parser.error("--passes must be at least 1")
    run_seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    workloads = load_workloads()
    for name in args.workload or list(workloads.WORKLOADS):
        workload = workloads.WORKLOADS[name]
        vec = workload.setup()
        kept = kept_per_pass(workload, vec, args.seed, args.passes)
        seconds = pass_seconds(workload, vec, args.seed, args.passes)
        fitted = max(1, math.ceil(run_seconds / seconds))
        print(
            f"{name}: pass {seconds:.4f} s  kept {kept / 1024:.1f} kB/pass  "
            f"run {fitted * kept / 2**20:.2f} MB ({fitted} passes in {run_seconds:g} s)"
        )


if __name__ == "__main__":
    main()
