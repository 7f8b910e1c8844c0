#!/usr/bin/env python3
"""Print a sha256 per benchmark bound table and query set, so two checkouts can be diffed.

Loads `perfbench/workloads.py` read-only, runs every table of every workload
once on this checkout's src (`workloads.run_table`, the call a benchmark pass
makes) and prints `sha256  workload: label` per table. The digest covers the
table's io text and `repr(sorted(values.items()))`, its checked values with
full float repr. A workload with queries adds one line,
`sha256  workload: queries seed 0`, over the repr of the list of outputs of
the non-table operations of its first pass at seed 0 (`workload.ops(vec, 0,
0)`), in order. Run it in two checkouts and diff the printouts to check that
their outputs are byte-identical.
"""

import hashlib
import importlib.util
import os
import sys
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


def main():
    workloads = load_workloads()
    for name, workload in workloads.WORKLOADS.items():
        for table in workload.tables:
            out = workloads.run_table(table)
            data = (out.text + repr(sorted(out.values.items()))).encode()
            print(f"{hashlib.sha256(data).hexdigest()}  {name}: {table.label}")
        if workload.queries is not None:
            outputs = [op.run() for op in workload.ops(workload.setup(), 0, 0) if op.kind != "table"]
            print(f"{hashlib.sha256(repr(outputs).encode()).hexdigest()}  {name}: queries seed 0")


if __name__ == "__main__":
    main()
