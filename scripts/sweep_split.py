#!/usr/bin/env python3
"""Split each benchmark table's sweep into its eigensolves and the rest, and count its faces by cluster kind.

Loads `perfbench/workloads.py` read-only and, for every table of every
workload, builds the table's operator set as `workloads.run_table` does and
times `numrange.faces` over its sweep grid (the median of --repeats calls).
It then times the `linalg.band_top` calls of one such sweep alone, replayed
with the same bands and counts, and prints per table:

    workload: label  faces <ms>  band_top <ms> (<calls> calls)  one <n>  per block <n>  in block <n>

The census sorts each face by its top cluster: one state, one state in each
of several blocks (a direct sum), or several states in one block.
"""

import argparse
import importlib.util
import os
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# one BLAS thread, as the benchmark runs; a caller's own setting wins
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from specrange import linalg, numrange, spinops  # noqa: E402


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while the file runs
    spec.loader.exec_module(module)
    return module


def table_set(table):
    """The operator set a table sweeps, built as workloads.run_table builds it."""
    j = spinops.HalfInt(table.twice)
    if table.family == "jsq2d":
        return spinops.jsq_pair(j)
    if table.family == "jpow3":
        return spinops.scale_uniform(spinops.power_vec(j, 3), 1.0 / j.j**3)
    return spinops.anticomm_vec(j, 1)


def census(vec, records) -> tuple[int, int, int]:
    """Faces whose cluster is one state, one state in each of several blocks, and several states in one block."""
    owners = np.zeros(vec.dim, dtype=int)
    for k, block in enumerate(vec.blocks):
        owners[block.index] = k
    one = per_block = in_block = 0
    for sf in records:
        homes = [int(owners[np.flatnonzero(col)[0]]) for col in sf.eigenbasis.T]
        if len(homes) == 1:
            one += 1
        elif len(set(homes)) == len(homes):
            per_block += 1
        else:
            in_block += 1
    return one, per_block, in_block


def band_top_calls(vec, directions) -> list[tuple]:
    """The (band, k, vectors) arguments of every band_top call one faces sweep makes, in order."""
    calls = []
    solve = numrange.band_top

    def recording(band, k, vectors=True):
        calls.append((band, k, vectors))
        return solve(band, k, vectors)

    numrange.band_top = recording
    try:
        numrange.faces(vec, directions)
    finally:
        numrange.band_top = solve
    return calls


def median_seconds(run, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        run()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--repeats", type=int, default=7, help="timed calls per table (default 7)")
    args = parser.parse_args()
    workloads = load_workloads()
    for name, workload in workloads.WORKLOADS.items():
        for table in workload.tables:
            vec = table_set(table)
            grid = table.grid if isinstance(table.grid, tuple) else int(table.grid)
            directions = numrange.sweep_directions(vec.n, grid)
            records = numrange.faces(vec, directions)  # also warms the set's cached blocks
            faces_s = median_seconds(lambda: numrange.faces(vec, directions), args.repeats)
            calls = band_top_calls(vec, directions)

            def replay():
                for band, k, vectors in calls:
                    linalg.band_top(band, k, vectors)

            solve_s = median_seconds(replay, args.repeats)
            one, per_block, in_block = census(vec, records)
            print(
                f"{name}: {table.label}  faces {1e3 * faces_s:.1f} ms  band_top {1e3 * solve_s:.1f} ms"
                f" ({len(calls)} calls)  one {one}  per block {per_block}  in block {in_block}"
            )


if __name__ == "__main__":
    main()
