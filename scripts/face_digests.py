#!/usr/bin/env python3
"""Print a sha256 per operator family over the faces of fixed sets, so two checkouts can be diffed.

The families are jsq2d, the J triple, ladder gamma = 1..4, jpow gamma =
2..4 (gamma = 1 is the J triple) and anticomm gamma = 1, 2, each at 2j =
1..20, 41, 60 and 100. A 2-operator set is swept on the 48-step ring, a
3-operator set on the 6x12 grid plus the four body diagonals, one
`numrange.faces` call per set on this checkout's src. Each family's digest
covers every face's lambda_max, multiplicity, gap and vertex count (as
repr), then its eigenbasis bytes and vertex bytes, and the script prints
`sha256  family` per family. Run it in two checkouts and diff the printouts
to check that the face layer's outputs are byte-identical.
"""

import hashlib
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# one BLAS thread, as the benchmark runs; a caller's own setting wins
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
sys.path.insert(0, str(ROOT / "src"))

from specrange import numrange  # noqa: E402
from specrange.spinops import HalfInt, anticomm_vec, j_triple, jsq_pair, ladder_combo, power_vec  # noqa: E402

TWICE_J = (*range(1, 21), 41, 60, 100)
FAMILIES = {
    "jsq2d": jsq_pair,
    "J": j_triple,
    **{f"ladder{g}": (lambda j, g=g: ladder_combo(j, g)) for g in range(1, 5)},
    **{f"jpow{g}": (lambda j, g=g: power_vec(j, g)) for g in range(2, 5)},
    **{f"anticomm{g}": (lambda j, g=g: anticomm_vec(j, g)) for g in (1, 2)},
}


def directions(n: int) -> list:
    if n == 2:
        return numrange.sweep_directions(2, 48)
    return numrange.sweep_directions(3, (6, 12)) + numrange.diag_directions()


def main():
    for name, build in FAMILIES.items():
        digest = hashlib.sha256()
        for twice in TWICE_J:
            vec = build(HalfInt(twice))
            for sf in numrange.faces(vec, directions(vec.n)):
                digest.update(repr((sf.lambda_max, sf.multiplicity, sf.gap, len(sf.vertices))).encode())
                digest.update(sf.eigenbasis.tobytes())
                digest.update(sf.vertices.tobytes())
        print(f"{digest.hexdigest()}  {name}")


if __name__ == "__main__":
    main()
