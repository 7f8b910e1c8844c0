"""Smoke runs of the experiment scripts on small inputs: each exits 0 and writes output."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


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
    for path in tmp_path.iterdir():
        assert path.stat().st_size > 0, path.name
