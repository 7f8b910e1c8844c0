#!/usr/bin/env python3
"""Run the benchmark's workloads over several seeds and write each end-to-end metric's median and IQR as JSON.

    python3 scripts/bench.py --out BENCH_31.json --checkout parent=../parent --checkout change=.

Each --checkout LABEL=PATH names a source checkout; the default is this one,
labelled `change`. For every seed and workload the script runs that
checkout's own `perfbench/run.py` unchanged and untraced (--trace 0) with
the workload's seed and run time, one run at a time. The labels take turns
per (seed, workload), and their order flips from one seed to the next, so
no side always runs first. Seeds are --first-seed, --first-seed + 1, ...,
--runs of them, and the run time is BENCHMARK.json's `run_seconds` unless
--seconds is given.

Per label and workload the file holds the checkout's git commit (when the
path is a git checkout, with `-dirty` when its tracked files differ from
it), the seeds, each run's pass count (the closed-loop passes the worker
completed), how many runs reported correct, and per end-to-end metric of
BENCHMARK.json its unit, every run's value, the median and the IQR (the
distance between the quartiles, 0 for one run). A label
already in --out that this call does not run is kept, so the two sides may
also come from separate calls on one machine.
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_LIMIT_S = 600.0


def checkout_arg(text: str) -> tuple[str, Path]:
    label, sep, path = text.partition("=")
    if not sep or not label or not path:
        raise argparse.ArgumentTypeError(f"expected LABEL=PATH, got {text!r}")
    return label, Path(path).resolve()


def commit_of(path: Path) -> str | None:
    """The checkout's HEAD commit, with -dirty when its tracked files differ from it, or None outside git."""
    command = ["git", "-C", str(path), "describe", "--always", "--dirty", "--abbrev=12"]
    proc = subprocess.run(command, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_once(path: Path, workload: str, seed: int, seconds: float) -> tuple[dict, int]:
    """One untraced run.py run in the checkout: its final JSON object and the worker's pass count."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(command, cwd=path, capture_output=True, text=True, timeout=RUN_LIMIT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(command)} in {path} exited {proc.returncode}:\n{proc.stderr}")
    passes = re.search(r"^workload \S+, seed \d+, (\d+) passes, trace 0$", proc.stdout, re.M)
    if passes is None:
        raise RuntimeError(f"{' '.join(command)} in {path} printed no pass count:\n{proc.stdout}")
    return json.loads(lines[-1]), int(passes.group(1))


def summary(values: list[float]) -> dict:
    """The median of the values and the distance between their quartiles."""
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "iqr": q3 - q1}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", required=True, type=Path, help="JSON file to write (labels already in it are kept)")
    parser.add_argument("--checkout", action="append", type=checkout_arg, metavar="LABEL=PATH",
                        help="a checkout to run under a label (default: change=this checkout)")
    parser.add_argument("--workload", action="append", help="run only this workload (repeatable; default: all)")
    parser.add_argument("--runs", type=int, default=3, help="seeds per workload and label (default 3)")
    parser.add_argument("--first-seed", type=int, default=1, help="the first seed (default 1)")
    parser.add_argument("--seconds", type=float, help="run time of each run (default: BENCHMARK.json's run_seconds)")
    args = parser.parse_args()
    if args.runs < 1:
        parser.error("--runs must be at least 1")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    workloads = args.workload or names
    unknown = sorted(set(workloads) - set(names))
    if unknown:
        parser.error(f"unknown workload(s): {', '.join(unknown)}")
    checkouts = args.checkout or [("change", ROOT)]
    seconds = args.seconds if args.seconds is not None else float(spec["run_seconds"])
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}

    runs = {label: {w: [] for w in workloads} for label, _ in checkouts}
    for i, seed in enumerate(seeds):
        for workload in workloads:
            for label, path in checkouts if i % 2 == 0 else checkouts[::-1]:
                result, passes = run_once(path, workload, seed, seconds)
                runs[label][workload].append((result, passes))
                shown = " ".join(f"{m} {result['metrics'][m]['value']:.6g}" for m in units)
                print(f"{label} {workload} seed {seed}: {passes} passes, correct {result['correct']}, {shown}",
                      flush=True)

    report = json.loads(args.out.read_text()) if args.out.exists() else {}
    report.update({
        "benchmark": {"run_seconds": seconds, "end_to_end": units},
        "machine": {"cpus": os.cpu_count(), "python": platform.python_version(), "system": platform.system()},
    })
    labels = report.setdefault("labels", {})
    for label, path in checkouts:
        labels[label] = {"commit": commit_of(path), "seeds": seeds, "workloads": {}}
        for workload, done in runs[label].items():
            metrics = {}
            for name, unit in units.items():
                values = [result["metrics"][name]["value"] for result, _ in done]
                metrics[name] = {"unit": unit, "values": values, **summary(values)}
            labels[label]["workloads"][workload] = {
                "passes": [passes for _, passes in done],
                "correct": sum(bool(result["correct"]) for result, _ in done),
                "metrics": metrics,
            }
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
