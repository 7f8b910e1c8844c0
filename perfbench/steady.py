"""Steadiness self-check: repeat each workload over seeds, compare spreads with the bounds.

    python3 perfbench/steady.py [--runs N] [--first-seed S] [--workloads a,b] [--trace]

Runs run.py N times per workload, one seed each, for BENCHMARK.json's
run_seconds. For every end-to-end metric it prints the median and quartiles
(statistics.quantiles, n=4) and the spread (q3 - q1) / median against the
metric's bound: "steady" below a third of the bound, "within" up to the bound,
"UNSTEADY" beyond it. It also prints the spread of the raw pass time, which
is not gated, to show what the reference-speed scaling removes. With --trace it runs the traced variant instead and
checks that every per-layer metric that is not a time repeats exactly.
Exits 1 if any run fails its correctness checks or a check here fails.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, int, float | None]:
    """The run's result object, how many passes its worker began and its raw pass time."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    passes = next(int(m.group(1)) for line in lines if (m := re.match(r"workload .*, (\d+) passes", line)))
    raw = next((float(m.group(1)) for line in lines if (m := re.match(r"  raw pass time (\S+) s", line))), None)
    return json.loads(lines[-1]), passes, raw


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    ok = True
    for workload in names:
        results, raws = [], []
        for k in range(args.runs):
            seed = args.first_seed + k
            res, passes, raw = run_once(workload, seed, spec["run_seconds"], int(args.trace))
            raws.append(raw)
            values = json.dumps({n: m["value"] for n, m in res["metrics"].items()})
            print(f"{workload} seed {seed}, {passes} passes: {values}", flush=True)
            if not res["correct"] or res["failed"]:
                print(f"{workload} seed {seed}: {res['failed']} of {res['attempted']} operations failed")
                ok = False
            results.append(res)
        if args.trace:
            for m in spec["per_layer"]:
                values = {r["metrics"][m["name"]]["value"] for r in results}
                if m["unit"] not in ("s", "ms") and len(values) > 1:
                    print(f"{workload} {m['name']}: differs between runs: {sorted(values)}")
                    ok = False
            continue
        print(f"{workload}: {args.runs} runs")
        print(f"  {'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            spread = (q3 - q1) / med if med else float("inf")
            verdict = "steady" if spread < m["bound"] / 3 else "within" if spread <= m["bound"] else "UNSTEADY"
            if verdict == "UNSTEADY":
                ok = False
            print(f"  {m['name']:<16} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} {m['bound']:6.3g} {verdict}")
        if len(raws) > 1:
            q1, med, q3 = statistics.quantiles(raws, n=4)
            print(f"  {'raw pass s':<16} {med:12.6g} {q1:12.6g} {q3:12.6g} {(q3 - q1) / med:8.4f}    (not gated)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
