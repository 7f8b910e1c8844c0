"""The benchmark's workloads: the operations one caller issues, and their checks.

Every workload is a closed loop with one caller. A pass is a fixed list of
operations; the caller repeats passes until its time is up. An operation is
one of three requests a user of specrange makes:

- ``table``: a bound table for one operator family at one j (sweep, tight
  bounds, serialization), checked against the frozen reference lists in
  ``tests/reference_values.py`` (1e-4) or the exact closed forms (1e-8);
- ``membership``: the signed margin of a mean vector against one operator
  set; its sign is checked against a point inside or outside by construction;
- ``limit``: membership in the large-j anticommutator limit region, checked
  the same way.

Table inputs do not depend on the seed. Query points come from the seed and
the pass index, so every query of a run is new.
"""

from __future__ import annotations

import importlib.util
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg

from specrange import bounds, definetti, io, numrange, spinops

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_reference_values():
    path = os.path.join(ROOT, "tests", "reference_values.py")
    spec = importlib.util.spec_from_file_location("reference_values", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ref = _load_reference_values()

LIST_TOL = 1e-4
EXACT_TOL = 1e-8
MEMBERSHIP_RTOL = 1e-9
# outside points sit this share of the operator norm bound past a supporting
# hyperplane, so a 12x24 direction grid always separates them
OUTSIDE_MARGIN = (0.5, 1.0)
LIMIT_OUTSIDE_MARGIN = (0.02, 0.3)
# inside limit points are shrunk toward the centre, far past the sampled hull's error
LIMIT_SHRINK = 0.9

SQ2 = math.sqrt(2.0)
# criterion 7: anticommutator triple at twice-j = 2, all four measures, exact
ANTICOMM_EXACT = {
    "h": (6 * math.log(6) - 5 * math.log(5)) / 2,
    "u0.5": 1 + 2 * SQ2,
    "u2": 13.0 / 6.0,
    "umax": 5.0 / 2.0,
}


@dataclass(frozen=True)
class Op:
    """One request: ``run`` returns its output, ``check`` lists what it got wrong."""

    kind: str  # "table" | "membership" | "limit"
    label: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]
    table: "Table | None" = None


@dataclass(frozen=True)
class TableOutput:
    values: dict[str, float]
    text: str  # everything the io emitters produced for this table


@dataclass(frozen=True)
class Table:
    family: str  # "jsq2d" | "jpow3" | "anticomm"
    twice: int
    grid: object  # steps (2D) or (theta_steps, phi_steps) (3D)
    measures: tuple[str, ...]
    expected: dict[str, float]
    tol: float

    @property
    def label(self) -> str:
        return f"{self.family} j={spinops.HalfInt(self.twice)} grid={self.grid}"


def jsq2d_table(twice: int) -> Table:
    idx = ref.jsq_index(twice)
    expected = {
        "h": ref.JSQ_H[idx], "u0.5": ref.JSQ_U_HALF[idx], "u2": ref.JSQ_U2[idx], "umax": ref.JSQ_UMAX[idx],
    }
    return Table("jsq2d", twice, 360, ("h", "u0.5", "u2", "umax"), expected, LIST_TOL)


def jpow3_table(twice: int, grid: tuple[int, int]) -> Table:
    return Table("jpow3", twice, grid, ("umax",), {"umax": ref.POW3_UMAX[ref.pow3_index(twice)]}, LIST_TOL)


def anticomm_table(twice: int, grid: tuple[int, int], measures=("h", "u2", "umax")) -> Table:
    idx = ref.jsq_index(twice)
    lists = {"h": ref.ANTI_H, "u2": ref.ANTI_U2, "umax": ref.ANTI_UMAX}
    expected = {m: lists[m][idx] for m in measures} | {"mean_eta1": ref.ANTI_MEAN_ETA1[idx]}
    return Table("anticomm", twice, grid, tuple(measures), expected, LIST_TOL)


def anticomm_exact_table(grid: tuple[int, int]) -> Table:
    return Table("anticomm", 2, grid, ("h", "u0.5", "u2", "umax"), dict(ANTICOMM_EXACT), EXACT_TOL)


def run_table(t: Table) -> TableOutput:
    """Sweep, bounds and serialization for one table, through the public API."""
    j = spinops.HalfInt(t.twice)
    if t.family == "jsq2d":
        vec = spinops.jsq_pair(j)
        region = numrange.boundary2d(vec, t.grid)
        text = io.boundary_csv(region)
    else:
        if t.family == "jpow3":
            vec = spinops.scale_uniform(spinops.power_vec(j, 3), 1.0 / j.j**3)
        else:
            vec = spinops.anticomm_vec(j, 1)
        region = numrange.boundary3d(vec, *t.grid)
        text = io.mesh_csv(region)
    report = bounds.optimize_bounds(vec, region, list(t.measures))
    text += io.bounds_json(report, j, t.family, vec.gamma)
    values = {str(r.kind): r.value for r in report.results}
    if "mean_eta1" in t.expected:
        series = definetti.convergence_sweep("ANTICOMM", 1, [j], "MEAN_ETA1")
        values["mean_eta1"] = series[0][1]
        text += io.sweep_csv(series, "MEAN_ETA1")
    return TableOutput(values=values, text=text)


def table_errors(t: Table, out: TableOutput) -> dict[str, float]:
    """Absolute error of every checked value (inf when a value is missing)."""
    return {k: abs(out.values[k] - want) if k in out.values else math.inf for k, want in t.expected.items()}


def _check_table(t: Table, out: TableOutput) -> list[str]:
    return [f"{t.label} {k}: error {err:.3g} > {t.tol:g}" for k, err in table_errors(t, out).items() if not err <= t.tol]


def table_op(t: Table) -> Op:
    return Op("table", t.label, lambda: run_table(t), lambda out: _check_table(t, out), t)


@dataclass(frozen=True)
class QuerySet:
    """The anticommutator set membership queries run against, and how many of each query per pass."""

    twice: int
    grid: tuple[int, int]
    count: int

    def build(self):
        return spinops.anticomm_vec(spinops.HalfInt(self.twice), 1)


def _unit(rng, n: int) -> np.ndarray:
    v = rng.normal(size=n)
    return v / np.linalg.norm(v)


def _top(mats, eta) -> tuple[float, np.ndarray]:
    """Top eigenpair of eta.A, by scipy rather than specrange's own eigensolver path."""
    values, vectors = scipy.linalg.eigh(sum(float(c) * m for c, m in zip(eta, mats)))
    return float(values[-1]), vectors[:, -1]


def norm_bound(mats) -> float:
    """sqrt(sum |A_i|^2): bounds |lambda_max(eta.A)| and its Lipschitz constant in eta."""
    return math.sqrt(sum(float(np.linalg.norm(m, 2)) ** 2 for m in mats))


def membership_point(mats, scale: float, rng, inside: bool) -> np.ndarray:
    """Mean vector of a random state (inside) or a point past a supporting hyperplane (outside).

    ``scale`` is ``norm_bound(mats)``.
    """
    eta = _unit(rng, len(mats))
    lam, top = _top(mats, eta)
    if inside:
        d = top.shape[0]
        psi = top + rng.uniform(0.0, 1.0) * (rng.normal(size=d) + 1j * rng.normal(size=d)) / math.sqrt(d)
        psi /= np.linalg.norm(psi)
        return np.array([float(np.real(psi.conj() @ (m @ psi))) for m in mats])
    return eta * (lam + rng.uniform(*OUTSIDE_MARGIN) * scale)


def _roman(b: np.ndarray) -> np.ndarray:
    x, y, z = b
    return np.array([2 * x * z, 2 * y * z, 2 * x * y])


def limit_point(rng, inside: bool) -> np.ndarray:
    """A point of the gamma=1 anticommutator limit region, or one past its support plane.

    Inside: the limit mean vector of a random mixture of four coherent states
    with the maximally mixed state (weight 1 - LIMIT_SHRINK). Outside: past
    the support value max_b b.M(eta).b, the top eigenvalue of a 3x3 matrix.
    """
    if inside:
        weights = rng.dirichlet(np.ones(4))
        return LIMIT_SHRINK * sum(w * _roman(_unit(rng, 3)) for w in weights)
    eta = _unit(rng, 3)
    m = np.array([[0.0, eta[2], eta[0]], [eta[2], 0.0, eta[1]], [eta[0], eta[1], 0.0]])
    support = float(scipy.linalg.eigvalsh(m)[-1])
    return eta * (support + rng.uniform(*LIMIT_OUTSIDE_MARGIN))


def _check_margin(label: str, inside: bool, tol: float, margin: float) -> list[str]:
    ok = margin >= -tol if inside else margin < 0.0
    return [] if ok else [f"{label}: margin {margin:.6g}"]


def _check_flag(label: str, inside: bool, got: bool) -> list[str]:
    return [] if got == inside else [f"{label}: returned {got}"]


def query_ops(qs: QuerySet, vec, seed: int, pass_index: int) -> list[Op]:
    """``qs.count`` membership and ``qs.count`` limit queries, interleaved, each side 50/50 at random."""
    rng = np.random.default_rng([seed, pass_index])
    mats = vec.mats
    scale = norm_bound(mats)
    tol = MEMBERSHIP_RTOL * scale
    ops = []
    for k in range(qs.count):
        inside = bool(rng.integers(2))
        r = membership_point(mats, scale, rng, inside)
        label = f"membership #{k} {'in' if inside else 'out'}"
        ops.append(Op(
            "membership", label,
            lambda r=r: numrange.membership(vec, r, qs.grid),
            lambda m, label=label, inside=inside: _check_margin(label, inside, tol, m),
        ))
        inside = bool(rng.integers(2))
        p = limit_point(rng, inside)
        label = f"limit #{k} {'in' if inside else 'out'}"
        ops.append(Op(
            "limit", label,
            lambda p=p: definetti.limit_region_contains("ANTICOMM", 1, p),
            lambda got, label=label, inside=inside: _check_flag(label, inside, got),
        ))
    return ops


@dataclass(frozen=True)
class Workload:
    name: str
    tables: tuple[Table, ...] = ()
    queries: QuerySet | None = None
    warmup: tuple[Table, ...] = ()

    def setup(self):
        """Import-time work is done; warm every code path once and fill lazy caches.

        Returns the operator set the membership queries run against, if any.
        """
        for t in self.warmup:
            run_table(t)
        if self.queries is None:
            return None
        vec = self.queries.build()
        rng = np.random.default_rng(0)
        numrange.membership(vec, membership_point(vec.mats, norm_bound(vec.mats), rng, True), self.queries.grid)
        # the first limit query builds definetti's hull cache and imports linprog
        definetti.limit_region_contains("ANTICOMM", 1, limit_point(rng, True))
        return vec

    def ops(self, vec, seed: int, pass_index: int) -> list[Op]:
        """The operations of one pass."""
        ops = [table_op(t) for t in self.tables]
        if self.queries is not None:
            ops += query_ops(self.queries, vec, seed, pass_index)
        return ops


def _tiny(family: str, twice: int) -> Table:
    """A small unchecked table that runs the same code paths as ``family``'s tables."""
    if family == "jsq2d":
        return Table(family, twice, 16, ("h", "u0.5", "u2", "umax"), {}, LIST_TOL)
    return Table(family, twice, (4, 8), ("umax",), {}, LIST_TOL)


# Each pass takes about 4 to 9 s on one core of a 2 GHz Xeon, so a run of 30 s
# times every operation three to seven times and pass_ref_s reads medians, not single passes.
WORKLOADS = {
    w.name: w
    for w in (
        # d up to 101: the eigensolve dominates and faces are cheap
        Workload(
            "large_j_tables",
            tables=(jsq2d_table(20), jsq2d_table(60), jsq2d_table(100), jpow3_table(40, (12, 24))),
            warmup=(_tiny("jsq2d", 4), _tiny("jpow3", 2)),
        ),
        # d <= 21: face rebuilding and measure scoring dominate and eigensolves are
        # cheap; at j = 2 the refinement alone rebuilds about 3000 faces
        Workload(
            "small_j_mesh",
            tables=(
                anticomm_exact_table((12, 24)), anticomm_table(3, (12, 24)), anticomm_table(4, (12, 24)),
                # h at j = 10 alone would add a fifth to the pass
                anticomm_table(20, (12, 24), ("u2", "umax")),
            ),
            warmup=(_tiny("anticomm", 2),),
        ),
        # membership reads only lambda_max (no faces, no refinement) and re-solves
        # every direction per query; limit queries exercise the hull test
        Workload("point_queries", queries=QuerySet(40, (12, 24), 25)),
    )
}
