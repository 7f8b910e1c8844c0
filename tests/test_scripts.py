"""Smoke runs of the experiment scripts on small inputs: each exits 0 and writes output."""

import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def benchmark_names() -> tuple[list[str], list[str]]:
    """"workload: label" of every table of every workload in perfbench/workloads.py
    (loaded, not edited), and "workload: queries seed 0" of every query set."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while the file runs
    spec.loader.exec_module(module)
    tables, queries = [], []
    for name, workload in module.WORKLOADS.items():
        tables.extend(f"{name}: {table.label}" for table in workload.tables)
        if workload.queries is not None:
            queries.append(f"{name}: queries seed 0")
    return tables, queries


def digest_lines() -> list[re.Pattern]:
    """The lines table_digests.py must print once each: one per table and one per query set."""
    tables, queries = benchmark_names()
    return [re.compile(rf"^[0-9a-f]{{64}}  {re.escape(name)}$", re.M) for name in tables + queries]


def split_lines() -> list[re.Pattern]:
    """The lines sweep_split.py must print once each: one per table."""
    number = r"[0-9]+(?:\.[0-9]+)?"
    fields = (
        rf"  sweep {number} ms  band_top {number} ms \({number} calls\)"
        rf"  solved {number}  one {number}  per block {number}  in block {number}"
    )
    return [re.compile(rf"^{re.escape(name)}{fields}$", re.M) for name in benchmark_names()[0]]


# the families each digest script prints one line for, in order
DIGEST_FAMILIES = {
    "face_digests.py": ("jsq2d", "J", "ladder1", "ladder2", "ladder3", "ladder4", "jpow2", "jpow3", "jpow4", "anticomm1", "anticomm2", "random"),
    "bound_digests.py": ("jsq2d", "J", "ladder1", "ladder2", "ladder3", "jpow2", "jpow3", "anticomm1", "anticomm2"),
}


@pytest.mark.parametrize(
    "script, args",
    [
        ("limit_surfaces.py", ["--j-max", "3/2", "--mu-steps", "9", "--nu-steps", "18"]),
        ("sweep_bound_lists.py", ["--j-max", "3/2", "--theta-steps", "6", "--phi-steps", "12"]),
        ("reproduce_bound_tables.py", ["--j-list", "5/2", "--phi-steps", "36"]),
        ("readme_outputs.py", []),
        ("table_digests.py", []),
        ("sweep_split.py", ["--repeats", "1"]),
        ("face_digests.py", []),
        ("retained_per_pass.py", ["--passes", "1", "--workload", "point_queries"]),
        ("bound_digests.py", []),
        ("bench.py", ["--workload", "point_queries", "--runs", "1", "--seconds", "1", "--out", "BENCH.json"]),
    ],
)
def test_script_runs(script, args, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    if script == "table_digests.py":
        for line in digest_lines():
            assert len(line.findall(proc.stdout)) == 1, (line.pattern, proc.stdout)
    if script in DIGEST_FAMILIES:
        assert re.findall(r"^[0-9a-f]{64}  (\S+)$", proc.stdout, re.M) == list(DIGEST_FAMILIES[script]), proc.stdout
    if script == "retained_per_pass.py":
        assert re.fullmatch(
            r"point_queries: pass [0-9.]+ s  kept [0-9.]+ kB/pass  run [0-9.]+ MB \([0-9]+ passes in [0-9.]+ s\)\n",
            proc.stdout,
        ), proc.stdout
    if script == "sweep_split.py":
        for line in split_lines():
            assert len(line.findall(proc.stdout)) == 1, (line.pattern, proc.stdout)
    if script == "bench.py":
        report = json.loads((tmp_path / "BENCH.json").read_text())
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        (label,) = report["labels"]
        queries = report["labels"][label]["workloads"]["point_queries"]
        assert label == "change" and list(report["labels"][label]["workloads"]) == ["point_queries"]
        assert queries["correct"] == 1 and len(queries["passes"]) == 1 and queries["passes"][0] >= 1
        assert list(queries["metrics"]) == [m["name"] for m in spec["end_to_end"]]
        for metric in queries["metrics"].values():
            assert len(metric["values"]) == 1 and metric["median"] == metric["values"][0] and metric["iqr"] == 0.0
    for path in tmp_path.iterdir():
        assert path.stat().st_size > 0, path.name
