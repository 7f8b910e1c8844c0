"""Run one benchmark workload and print its result as the last line of stdout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src`` directory and the reference values from ``tests``. Every run uses
fresh processes: a few set-up probes, whose median is ``setup_s``, then one
worker that runs the closed loop for S seconds; the worker's own set-up is not
counted. End-to-end times are in reference seconds (see refspeed.py), so that
the speed swings of a shared host cancel out; the raw pass time is printed in
the log. BLAS is pinned to one thread and ``SPECRANGE_THREADS`` is removed, so
each run is the plain single-threaded baseline. ``--trace 0`` reports the
end-to-end metrics of BENCHMARK.json, ``--trace 1`` the per-layer ones from a
traced run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

# the reference kernel runs in this process too, on one BLAS thread like the workers
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from refspeed import Calibration  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PROBES = 9
RUN_LIMIT_S = 170.0
# layer times whose share of a traced pass shows which layer a workload stresses
SHARES = ("linalg.eig_s", "numrange.face_self_s", "bounds.self_s", "numrange.membership_s", "definetti.limit_s",
          "io.serialize_s", "spinops.build_s")


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("SPECRANGE_THREADS", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def worker(args: list[str], deadline: float) -> dict:
    """Run worker.py to completion and return the JSON object on its last stdout line."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), *args],
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1])


def setup_probes(common: list[str], deadline: float) -> list[float]:
    """Set-up times of SETUP_PROBES fresh processes, in reference seconds.

    Each probe is scaled by reference kernel samples taken in this warm
    process just before and just after it.
    """
    cal = Calibration()
    cal.sample(force=True)
    setups = []
    for _ in range(SETUP_PROBES):
        mark = cal.mark()
        seconds = worker(common + ["--setup-only"], deadline)["setup_s"]
        cal.sample(force=True)
        setups.append(cal.to_ref(seconds, mark))
    return setups


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + RUN_LIMIT_S

    needed = [os.path.join(ROOT, "BENCHMARK.json"), os.path.join(ROOT, "src", "specrange", "__init__.py"),
              os.path.join(ROOT, "tests", "reference_values.py")]
    missing = [path for path in needed if not os.path.isfile(path)]
    if missing:
        print(f"not a specrange checkout, missing: {', '.join(missing)}", file=sys.stderr)
        return 2
    with open(needed[0]) as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    common = ["--workload", args.workload]
    try:
        setups = [] if args.trace else setup_probes(common, deadline)
        result = worker(common + ["--seed", str(args.seed), "--seconds", str(args.seconds),
                                  "--trace", str(args.trace)], deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(exc, file=sys.stderr)
        return 1

    measured = dict(result["metrics"])
    pass_s = measured.pop("trace.pass_s", None)
    if not args.trace:
        measured["setup_s"] = statistics.median(setups)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    absent = [m["name"] for m in wanted if m["name"] not in measured]
    if absent:
        print(f"worker did not report: {', '.join(absent)}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    attempted, failed = result["attempted"], result["failed"]
    print("env " + json.dumps(result["env"]))
    print(f"workload {args.workload}, seed {args.seed}, {result['passes']} passes, trace {args.trace}")
    if result["info"]:
        slots, samples = result["info"]["slot_s"], result["info"]["kernel_samples"]
        print(f"  raw pass time {sum(slots):.6g} s, scaled by {samples} reference kernel samples")
        print(f"  raw median per operation (s): {' '.join(f'{t:.3g}' for t in slots[:12])}{' ...' * (len(slots) > 12)}")
    for name, m in metrics.items():
        print(f"  {name:<34} {m['value']:.6g} {m['unit']}")
    for name in sorted(n for n in measured.keys() - metrics.keys() if measured[n]):
        print(f"  {name:<34} {measured[name]:.6g} {units[name]} (per-layer, from this untraced run)")
    print(f"  {'fail_frac':<34} {failed / attempted:.6g} ({failed} of {attempted} operations)")
    if pass_s:
        print(f"share of a traced pass ({pass_s:.4g} s, median over passes):")
        for name in SHARES:
            print(f"  {name:<34} {measured[name] / pass_s:.3f}")
    for problem in result["problems"]:
        print(f"problem: {problem}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
