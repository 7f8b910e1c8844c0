"""Smoke runs of the experiment scripts on small inputs: each exits 0 and writes output."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# lines a script must print once: table_digests.py digests the benchmark's query set
EXPECTED_LINES = {"table_digests.py": re.compile(r"^[0-9a-f]{64}  point_queries: queries seed 0$", re.M)}


@pytest.mark.parametrize(
    "script, args",
    [
        ("limit_surfaces.py", ["--j-max", "3/2", "--mu-steps", "9", "--nu-steps", "18"]),
        ("sweep_bound_lists.py", ["--j-max", "3/2", "--theta-steps", "6", "--phi-steps", "12"]),
        ("reproduce_bound_tables.py", ["--j-list", "5/2", "--phi-steps", "36"]),
        ("readme_outputs.py", []),
        ("table_digests.py", []),
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
    if script in EXPECTED_LINES:
        assert len(EXPECTED_LINES[script].findall(proc.stdout)) == 1, proc.stdout
    for path in tmp_path.iterdir():
        assert path.stat().st_size > 0, path.name
