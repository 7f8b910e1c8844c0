#!/usr/bin/env python3
"""Print a sha256 per operator family over the bounds of fixed sets, so two checkouts can be diffed.

The families are jsq2d, the J triple, ladder gamma = 1..3, jpow gamma = 2, 3
(gamma = 1 is the J triple) and anticomm gamma = 1, 2, each at 2j = 1, 2, 3,
4, 5, 7, 10, 15 and 21. A 2-operator set is swept on the 48-step ring, a
3-operator set on the 6x12 grid, and `bounds.optimize_bounds` gives the
bounds of h, u0.5, u2 and umax on this checkout's src. Each family's digest
covers every set's `io.bounds_json` text and the repr of each result's
(value, angles), or, where the sweep or the bounds raise, the error's type
and text; the script prints `sha256  family` per family. Run it in two
checkouts and diff the printouts to check that the bound layer's outputs
are byte-identical.
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

from specrange import io, numrange  # noqa: E402
from specrange.bounds import optimize_bounds  # noqa: E402
from specrange.spinops import HalfInt, anticomm_vec, j_triple, jsq_pair, ladder_combo, power_vec  # noqa: E402

TWICE_J = (1, 2, 3, 4, 5, 7, 10, 15, 21)
MEASURES = ("h", "u0.5", "u2", "umax")
FAMILIES = {
    "jsq2d": jsq_pair,
    "J": j_triple,
    **{f"ladder{g}": (lambda j, g=g: ladder_combo(j, g)) for g in range(1, 4)},
    **{f"jpow{g}": (lambda j, g=g: power_vec(j, g)) for g in (2, 3)},
    **{f"anticomm{g}": (lambda j, g=g: anticomm_vec(j, g)) for g in (1, 2)},
}


def bound_text(name: str, j: HalfInt) -> str:
    """The bounds' JSON and (value, angles) reprs of one set, or the error it raises."""
    try:
        vec = FAMILIES[name](j)
        boundary = numrange.boundary2d(vec, 48) if vec.n == 2 else numrange.boundary3d(vec, 6, 12)
        report = optimize_bounds(vec, boundary, MEASURES)
    except Exception as err:  # the type and text are digested
        return f"{type(err).__name__}: {err}\n"
    pairs = "".join(f"{(res.value, res.angles)!r}\n" for res in report.results)
    return io.bounds_json(report, j, name, vec.gamma) + pairs


def main():
    for name in FAMILIES:
        digest = hashlib.sha256()
        for twice in TWICE_J:
            digest.update(bound_text(name, HalfInt(twice)).encode())
        print(f"{digest.hexdigest()}  {name}")


if __name__ == "__main__":
    main()
