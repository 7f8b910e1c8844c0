"""One benchmark run in the current process: set-up, timed passes, checks, metrics.

Started by run.py in a fresh process with BLAS pinned to one thread; prints
one JSON object on its last stdout line. With --setup-only it stops after
set-up and reports only the set-up time, in measured seconds; run.py puts it
in reference seconds with kernel samples taken just before and after the process.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from dataclasses import dataclass  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import workloads  # noqa: E402
from refspeed import Calibration  # noqa: E402
from specrange.errors import SpecRangeError  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402


@dataclass
class Record:
    pass_index: int
    slot: int
    op: workloads.Op
    seconds: float
    output: object
    problems: list[str]
    cal_mark: int = -1  # Calibration.mark() when the op started; -1 when the run is not scaled


def run_op(op: workloads.Op, pass_index: int, slot: int, cal_mark: int = -1) -> Record:
    t0 = time.perf_counter()
    try:
        output, problems = op.run(), []
    except SpecRangeError as exc:
        output, problems = None, [f"{op.label}: {type(exc).__name__}: {exc}"]
    return Record(pass_index, slot, op, time.perf_counter() - t0, output, problems, cal_mark)


def run_pass(ops, pass_index: int, deadline: float | None, cal: Calibration) -> list[Record]:
    """Issue ops one after another, sampling the reference kernel between them when due;
    stop early at the deadline when one is given."""
    records = []
    for slot, op in enumerate(ops):
        if deadline is not None and time.perf_counter() >= deadline:
            break
        records.append(run_op(op, pass_index, slot, cal.mark()))
        cal.sample()
    return records


def check(records: list[Record]) -> None:
    """Append each record's correctness problems; repeated table outputs must match the first."""
    first: dict[int, object] = {}
    for rec in records:
        if rec.problems:
            continue
        rec.problems.extend(rec.op.check(rec.output))
        if rec.op.kind == "table":
            want = first.setdefault(rec.slot, rec.output)
            if rec.output != want:
                rec.problems.append(f"{rec.op.label}: output differs between passes")


def compare(plain: list[Record], traced: list[Record]) -> None:
    """Traced outputs must equal the untraced outputs of the same pass, exactly."""
    for a, b in zip(plain, traced):
        if not b.problems and a.output != b.output:
            b.problems.append(f"{b.op.label}: traced output differs from untraced")


def _slot_medians(records: list[Record], cal: Calibration | None = None) -> list[float]:
    """Median time of each slot of a pass, in reference seconds when ``cal`` is given."""
    by_slot: dict[int, list[float]] = {}
    for rec in records:
        seconds = rec.seconds if cal is None else cal.to_ref(rec.seconds, rec.cal_mark)
        by_slot.setdefault(rec.slot, []).append(seconds)
    return [statistics.median(by_slot[slot]) for slot in sorted(by_slot)]


def _pass_seconds(records: list[Record], cal: Calibration | None = None) -> float:
    """Time of one pass over the workload: the sum over its slots of each slot's median."""
    return sum(_slot_medians(records, cal))


def end_to_end(records: list[Record], cal: Calibration) -> dict[str, float]:
    failed = sum(bool(r.problems) for r in records)
    return {
        "pass_ref_s": _pass_seconds(records, cal),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": 1.0 - failed / len(records),
    }


def latencies(records: list[Record]) -> dict[str, float]:
    """Median and 90th percentile of each query kind's latency; 0 where a workload has none."""
    out = {}
    for kind, name in (("membership", "query_ms"), ("limit", "limit_ms")):
        ms = [1e3 * r.seconds for r in records if r.op.kind == kind]
        for q in (50, 90):
            out[f"{name}.p{q}"] = float(np.percentile(ms, q)) if ms else 0.0
    return out


def timed_run(wl, vec, seed: int, seconds: float) -> tuple[list[Record], dict, dict]:
    """Untraced closed loop: the first pass always completes, later ones stop at the deadline.

    Also returns the raw times, for the log.
    """
    cal = Calibration()
    cal.sample(force=True)
    deadline = time.perf_counter() + seconds
    records = run_pass(wl.ops(vec, seed, 0), 0, None, cal)
    p = 0
    while time.perf_counter() < deadline:
        p += 1
        records += run_pass(wl.ops(vec, seed, p), p, deadline, cal)
    cal.sample(force=True)
    check(records)
    info = {"slot_s": _slot_medians(records), "kernel_samples": len(cal.samples)}
    return records, {**end_to_end(records, cal), **latencies(records)}, info


def traced_run(wl, vec, seed: int, seconds: float) -> tuple[list[Record], dict, dict]:
    """Whole passes in which every op runs twice back to back, untraced then traced.

    Running the pair back to back keeps slow spells of a shared machine out of
    the difference. The first two passes always run, so counts can be compared
    between passes; another starts only if it should end before the deadline.
    """
    start = time.perf_counter()
    deadline = start + seconds
    tracer = Tracer()
    records, untraced, plain_s, traced_s, layers = [], [], [], [], []
    p = 0
    while p < 2 or time.perf_counter() + (time.perf_counter() - start) / p <= deadline:
        plain, traced = [], []
        tracer.reset()
        for slot, op in enumerate(wl.ops(vec, seed, p)):
            plain.append(run_op(op, p, slot))
            tracer.case = slot
            with tracer.installed():
                traced.append(run_op(op, p, slot))
        layers.append(layer_metrics(tracer.spans))
        check(plain)
        check(traced)
        compare(plain, traced)
        records += plain + traced
        untraced += plain
        plain_s.append(sum(r.seconds for r in plain))
        traced_s.append(sum(r.seconds for r in traced))
        p += 1
    metrics = {}
    for name, value in layers[0].items():
        if name.endswith("_s"):
            metrics[name] = statistics.median(m[name] for m in layers)
        else:
            metrics[name] = value
            if any(m[name] != value for m in layers):
                records[-1].problems.append(f"count {name} differs between traced passes")
    errors = [
        err
        for r in records
        if r.op.kind == "table" and r.output is not None
        for err in workloads.table_errors(r.op.table, r.output).values()
    ]
    metrics["bounds.ref_err_max"] = max(errors, default=0.0)
    metrics["trace.overhead_s"] = statistics.median(traced_s) - statistics.median(plain_s)
    metrics["trace.pass_s"] = statistics.median(traced_s)
    metrics.update(latencies(untraced))
    return records, metrics, {}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS library loaded into this process."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _git_commit(root: str) -> str:
    """HEAD of the checkout's own .git, if it has one (no search above the root)."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "specrange_threads": os.environ.get("SPECRANGE_THREADS"),
        "seed": seed,
        "commit": _git_commit(workloads.ROOT),
    }


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    wl = workloads.WORKLOADS[args.workload]
    vec = wl.setup()
    setup_s = time.perf_counter() - T_START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return
    run = traced_run if args.trace else timed_run
    records, metrics, info = run(wl, vec, args.seed, args.seconds)
    problems = [p for r in records for p in r.problems]
    print(json.dumps({
        "setup_s": setup_s,
        "info": info,
        "attempted": len(records),
        "failed": sum(bool(r.problems) for r in records),
        "passes": 1 + max(r.pass_index for r in records),
        "problems": problems[:20],
        "metrics": metrics,
        "env": environment(args.seed),
    }))


if __name__ == "__main__":
    main()
