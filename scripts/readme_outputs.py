#!/usr/bin/env python3
"""Print the sha256 of every README CLI example's output.

Reads the `specrange ...` lines of the README's CLI block, runs each through
`python -m specrange.cli` on this checkout's src in a temporary directory,
and prints `sha256  command` per example: the digest of the file named by
--out, or of stdout when the example has no --out. Run it in two checkouts
and diff the printouts to check that their CLI outputs are byte-identical.
"""

import hashlib
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def readme_examples() -> list[str]:
    text = (ROOT / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("specrange ")]


def main():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    with tempfile.TemporaryDirectory() as tmp:
        for line in readme_examples():
            args = shlex.split(line)[1:]
            proc = subprocess.run(
                [sys.executable, "-m", "specrange.cli", *args], cwd=tmp, env=env, capture_output=True
            )
            if proc.returncode != 0:
                sys.exit(f"exit {proc.returncode}: {line}\n{proc.stderr.decode()}")
            out = args[args.index("--out") + 1] if "--out" in args else "-"
            data = proc.stdout if out == "-" else (Path(tmp) / out).read_bytes()
            print(f"{hashlib.sha256(data).hexdigest()}  {line}")


if __name__ == "__main__":
    main()
