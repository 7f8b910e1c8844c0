"""Uncertainty/certainty measures on mean vectors and their tight bounds.

Each coordinate x with spectral interval [lo, hi] is mapped to the pair
dot = (hi-x)/(hi-lo), ring = (x-lo)/(hi-lo); concave measures (entropy-like h,
u_kappa for kappa < 1) are minimized over the boundary, convex ones
(u_kappa for kappa > 1, u_max) maximized. Only MeasureKind knows which: every
search maximizes the exactly negated oriented score sign * value, so ties and
orders are unchanged, and a bound is turned back only when reported. Optima
found on the sweep grid are refined by successive linearization: each step
solves the face at the measure's gradient, whose best vertex is the next
point. Every ascent of a table, over all its measures, advances in lockstep
rounds of array code (_refine), one numrange.faces call a round.

Scoring is array code. _weights maps a (V, n) vertex array to its (dot, ring)
weights, and _scores sums each vertex's MeasureKind.terms in coordinate
order, so a whole sweep is scored in one call per measure and each face's
best value is a reduceat over its vertex range. Logarithms and powers are
taken element by element with math.log and Python's float power, not with
numpy's vectorized log and power, which differ from libm in the last ulp on
some arguments; so every value is bitwise that of one scalar measure call per
coordinate. normalize_mean, measure and combined are the array functions at
one point.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateRange, DimensionMismatch, EmptyBoundary
# face is not called here; the benchmark's tracer (perfbench/tracer.py) wraps bounds.face by name
from .numrange import Boundary, Hyperrect, direction, face, faces, hyperrect  # noqa: F401
from .numrange import grid_size, local_optima
from .spinops import ObservableVec

MIN = "min"
MAX = "max"

RANGE_TOL = 1e-12
CLAMP_TOL = 1e-9
# uncertified weights this close to an endpoint are floored, never zeroed:
# kappa < 1 measures have unbounded slope there, and flooring keeps local
# search from undercutting the true optimum inside the coordinate noise zone
# (exact endpoints arrive bitwise from certified face vertices); below the
# smallest normal float, which no coordinate noise reaches, the floor ramps in
# linearly from 0 so the measure stays continuous above an exact lo
RING_FLOOR = 5e-16
RING_RAMP = sys.float_info.min
VALUE_TOL = 1e-9
ANGLE_TOL = 1e-7
REGION_TOL = 1e-9
TRIVIAL_TOL = 1e-6
MAX_REFINE = 16
MAX_STEPS = 64


@dataclass(frozen=True)
class MeasureKind:
    """h | u(kappa) | umax."""

    tag: str
    kappa: float | None = None

    def __post_init__(self):
        if self.tag not in ("h", "u", "umax"):
            raise ValueError(f"unknown measure tag {self.tag!r}")
        if self.tag == "u":
            if self.kappa is None or not 0 < self.kappa < math.inf:
                raise ValueError("u measure needs a finite kappa > 0")
        elif self.kappa is not None:
            raise ValueError(f"{self.tag} takes no kappa")

    @property
    def sign(self) -> float:
        """-1.0 for a concave measure, bounded from below, and +1.0 for a convex one; the search maximizes sign * value."""
        return -1.0 if self.tag == "h" or (self.tag == "u" and self.kappa < 1) else 1.0

    @property
    def sense(self) -> str:
        """Concave measures bound from below (MIN), convex from above (MAX)."""
        return MIN if self.sign < 0 else MAX

    def terms(self, dot: np.ndarray, ring: np.ndarray) -> np.ndarray:
        """The per-coordinate measure of each (dot, ring) weight pair; h's w ln w is 0 at w = 0."""
        if self.tag == "h":
            dot_log = dot * _map(math.log, np.where(dot > 0.0, dot, 1.0))
            ring_log = ring * _map(math.log, np.where(ring > 0.0, ring, 1.0))
            return (0.0 - dot_log) - ring_log
        if self.tag == "u":
            return _map(pow, dot, self.kappa) + _map(pow, ring, self.kappa)
        return np.maximum(dot, ring)

    def slopes(self, dot: np.ndarray, ring: np.ndarray) -> np.ndarray:
        """d term / d ring with dot = 1 - ring; a minimized measure's is unbounded, and undefined, at a zero weight."""
        if self.tag == "h":
            return _map(math.log, dot / ring)
        if self.tag == "u":
            return self.kappa * (_map(pow, ring, self.kappa - 1.0) - _map(pow, dot, self.kappa - 1.0))
        return np.sign(ring - dot)

    @classmethod
    def h(cls) -> "MeasureKind":
        return cls("h")

    @classmethod
    def u(cls, kappa: float) -> "MeasureKind":
        return cls("u", float(kappa))

    @classmethod
    def umax(cls) -> "MeasureKind":
        return cls("umax")

    @classmethod
    def parse(cls, text: str) -> "MeasureKind":
        text = text.strip().lower()
        if text == "h":
            return cls.h()
        if text == "umax":
            return cls.umax()
        if text.startswith("u"):
            return cls.u(float(text[1:]))
        raise ValueError(f"cannot parse measure {text!r}")

    def __str__(self) -> str:
        if self.tag == "u":
            return f"u{self.kappa:g}"
        return self.tag


def _weights(points, lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """Split every coordinate of a (V, n) point array into the complementary weights (dot, ring).

    Coordinate i lies in [lo[i], hi[i]] up to a clamp slack of
    CLAMP_TOL max(1, hi - lo). A coordinate equal to an endpoint bitwise gets
    exact weights; any other is held RING_FLOOR off them (ramped in below the
    smallest normal float). The first bad coordinate, in vertex then
    coordinate order, raises: DegenerateRange for a zero-width interval,
    ValueError past the slack (NaN included).
    """
    points = np.asarray(points, dtype=float)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    width = hi - lo
    slack = CLAMP_TOL * np.maximum(1.0, width)
    bad = (width <= RANGE_TOL) | ~((lo - slack <= points) & (points <= hi + slack))  # NaN fails too
    if bad.any():
        v, i = np.unravel_index(np.argmax(bad), bad.shape)
        if width[i] <= RANGE_TOL:
            raise DegenerateRange(f"interval [{float(lo[i])}, {float(hi[i])}] has zero width")
        raise ValueError(f"x={float(points[v, i])} outside [{float(lo[i])}, {float(hi[i])}] beyond clamp tolerance")
    ring = (np.minimum(np.maximum(points, lo), hi) - lo) / width
    # the floor ramps in from 0 at lo over subnormal rings (so ring stays 0 at an
    # exact lo) and is RING_FLOOR below lo; the cap is 1 at an exact hi
    floor = RING_FLOOR * np.minimum(ring / RING_RAMP + (points < lo), 1.0)
    cap = np.where(points == hi, 1.0, 1.0 - RING_FLOOR)
    ring = np.minimum(np.maximum(ring, floor), cap)
    return 1.0 - ring, ring


def _map(fn, w: np.ndarray, *args) -> np.ndarray:
    """fn(element, *args) over the elements of w as Python floats, so each value is libm's, bit for bit."""
    values = map(fn, w.ravel().tolist(), *map(itertools.repeat, args))
    return np.fromiter(values, dtype=float, count=w.size).reshape(w.shape)


def _scores(kind: MeasureKind, dot: np.ndarray, ring: np.ndarray) -> np.ndarray:
    """combined at each row of (V, n) weights: 0 + m_0 + m_1 + ..., coordinates in order."""
    total = np.zeros(len(dot))
    for column in kind.terms(dot, ring).T:
        total = total + column
    return total


def normalize_mean(x: float, lo: float, hi: float) -> tuple[float, float]:
    """Split x in [lo, hi] into the complementary weights (dot, ring)."""
    dot, ring = _weights([[x]], [lo], [hi])
    return float(dot[0, 0]), float(ring[0, 0])


def measure(kind: MeasureKind, x: float, lo: float, hi: float) -> float:
    return float(kind.terms(*_weights([[x]], [lo], [hi]))[0, 0])


def combined(kind: MeasureKind, r, rect: Hyperrect) -> float:
    """Sum of the per-coordinate measure over the mean vector r."""
    r = np.asarray(r, dtype=float)
    if r.shape != (rect.n,):
        raise ValueError(f"point shape {r.shape} does not match rect n={rect.n}")
    return float(_scores(kind, *_weights(r[None], rect.lo, rect.hi))[0])


@dataclass
class MeasureResult:
    kind: MeasureKind
    value: float
    sense: str
    angles: list[tuple[float, ...]]  # (phi,) for 2D, (theta, phi) for 3D


@dataclass
class BoundReport:
    results: list[MeasureResult]
    trivial: bool
    rect: Hyperrect


def _best_rows(scores: np.ndarray, starts) -> np.ndarray:
    """The index of each segment's largest oriented score, segment k running from starts[k] to the next start.

    On ties the first index wins, as argmax breaks them.
    """
    starts = np.asarray(starts)
    best = np.maximum.reduceat(scores, starts)
    hits = np.flatnonzero(scores == np.repeat(best, np.diff(starts, append=len(scores))))
    return hits[np.searchsorted(hits, starts)]


def _gradient(kind: MeasureKind, dots: np.ndarray, rings: np.ndarray, rect: Hyperrect) -> np.ndarray:
    """The gradient of combined at each row of (A, n) weights (dots, rings), or its limit direction where a slope is unbounded.

    Per coordinate: the term's slope over hi - lo. A minimized measure's slope
    is unbounded at an exact endpoint; in a row with a coordinate at one, the
    direction is +1 where ring = 0, -1 where dot = 0 and 0 everywhere else.
    """
    grads = (rings == 0.0).astype(float) - (dots == 0.0)
    free = (kind.sign > 0) | (dots.all(axis=1) & rings.all(axis=1))
    grads[free] = kind.slopes(dots[free], rings[free]) / np.subtract(rect.hi, rect.lo)
    return grads


def _by_measure(fn, kinds, measure: np.ndarray, *rows: np.ndarray) -> np.ndarray:
    """fn(kinds[m], *rows[run]) over each run of equal measure indices m in measure, the results stacked in order."""
    edges = [0, *(np.flatnonzero(np.diff(measure)) + 1).tolist(), len(measure)]
    return np.concatenate([fn(kinds[measure[b]], *(r[b:e] for r in rows)) for b, e in zip(edges, edges[1:])])


def _refine(vec, kinds, measure, directions, values, dots, rings, rect: Hyperrect, deg_tol: float) -> None:
    """Successive linearization of every ascent in lockstep rounds (the
    conditional-gradient step of Frank & Wolfe, Naval Res. Logist. Q. 3, 1956).

    Ascent a starts at a grid optimum of kinds[measure[a]], measure ascending:
    its direction directions[a], oriented score values[a] and its best
    vertex's weights dots[a], rings[a], arrays updated in place. A
    step solves the face at the measure's gradient g at that vertex x, eta =
    sign g/|g| (+g to maximize, -g to minimize), and moves to the face's best
    vertex x' only if its oriented score is strictly larger. The step is
    monotone: a convex measure gains f(x') >= f(x) + g.(x' - x) >= f(x), since
    x' maximizes g.y over the region; a concave one mirrors this. An ascent
    retires when its value does not improve, when g vanishes, when eta
    repeats within ANGLE_TOL, or after MAX_STEPS. A round makes one _gradient
    call per measure with a live ascent, one faces call, one _scores call per
    measure over the stacked vertices and one _best_rows call. A gradient
    row, a face and a score row depend on their own ascent alone, so every
    ascent ends bitwise where it would alone.
    """
    live = np.arange(len(measure))
    for _ in range(MAX_STEPS):
        if not len(live):
            return
        grads = _by_measure(lambda k, d, r: _gradient(k, d, r, rect), kinds, measure[live], dots[live], rings[live])
        moving, steps = [], []
        for a, g in zip(live.tolist(), grads):
            norm = float(np.linalg.norm(g))
            eta = kinds[measure[a]].sign * g / (norm or 1.0)  # a zero g stops the ascent below
            if norm and np.linalg.norm(eta - directions[a].eta) > ANGLE_TOL:
                moving.append(a)
                steps.append(direction(eta))
        if not steps:
            return
        solved = faces(vec, steps, deg_tol)
        counts = [len(f.vertices) for f in solved]
        dot, ring = _weights(np.vstack([f.vertices for f in solved]), rect.lo, rect.hi)
        scores = _by_measure(lambda k, d, r: k.sign * _scores(k, d, r), kinds, np.repeat(measure[moving], counts), dot, ring)
        best = _best_rows(scores, np.cumsum([0, *counts[:-1]]))
        up = scores[best] > values[moving]
        live, best = np.array(moving)[up], best[up]
        values[live], dots[live], rings[live] = scores[best], dot[best], ring[best]
        directions[live] = np.array(steps, dtype=object)[up]


def optimize_bounds(vec: ObservableVec, boundary: Boundary, kinds) -> BoundReport:
    """Tight bound of each measure over the boundary, with attaining angles.

    The boundary is checked and its vertices stacked and weighted once, then
    scored in one call per measure, in grid order, as oriented scores (every
    optimum below is a maximum); each face's value is its best vertex's, and
    the grid's local optima come from numrange.local_optima (ties kept, a
    pole compared with its whole ring). Each measure's best MAX_REFINE grid
    optima, the first in grid order among equal values, start an ascent from
    their best vertex, and all ascents are refined together (_refine). Every
    grid angle and refined end angle whose value lies within VALUE_TOL of
    the optimum is reported (_collect); only the refined ends are compared
    for repeats, as grid angles lie a grid step apart. The triviality test
    reads the same stacked vertices.
    """
    _check_boundary(vec, boundary)
    rect = hyperrect(vec)
    kinds = [MeasureKind.parse(k) if isinstance(k, str) else k for k in kinds]
    starts = np.cumsum([0] + [len(f.vertices) for f in boundary.faces[:-1]])
    verts = boundary.all_vertices()
    dot, ring = _weights(verts, rect.lo, rect.hi)
    grids, measure, directions, values, rows = [], [], [], [], []
    for m, kind in enumerate(kinds):
        scores = kind.sign * _scores(kind, dot, ring)
        best = _best_rows(scores, starts)
        flat = scores[best]
        candidates = local_optima(flat, boundary.grid)
        ranked = candidates[np.argsort(-flat[candidates], kind="stable")][:MAX_REFINE]
        measure += [m] * len(ranked)
        directions += [boundary.faces[k].direction for k in ranked]
        values += flat[ranked].tolist()
        rows += best[ranked].tolist()
        grids.append((flat.tolist(), float(flat.max())))
    directions, values = np.array(directions, dtype=object), np.array(values)
    _refine(vec, kinds, np.array(measure, dtype=int), directions, values, dot[rows], ring[rows], rect, boundary.deg_tol)
    grid = [f.direction.angles for f in boundary.faces]
    results = []
    for m, (kind, (grid_values, best)) in enumerate(zip(kinds, grids)):
        refined = [(d.angles, v) for d, v, k in zip(directions, values.tolist(), measure) if k == m]
        best = max([best, *(v for _, v in refined)])
        results.append(MeasureResult(kind, kind.sign * best, kind.sense, _collect(zip(grid, grid_values), refined, best)))
    trivial, _ = _trivial_corner(verts, rect)
    return BoundReport(results=results, trivial=trivial, rect=rect)


def _same_angles(u: tuple[float, ...], v: tuple[float, ...]) -> bool:
    """Equal within 10 ANGLE_TOL per angle, phi (the last) compared the short way round the circle."""
    *theta_u, phi_u = u
    *theta_v, phi_v = v
    gap = abs(phi_u - phi_v) % (2 * math.pi)
    return min(gap, 2 * math.pi - gap) <= 10 * ANGLE_TOL and all(
        abs(a - b) <= 10 * ANGLE_TOL for a, b in zip(theta_u, theta_v)
    )


def _collect(grid, refined, best: float):
    """The grid angles and refined ends whose value lies within VALUE_TOL of best, sorted.

    grid and refined are (angles, value) pairs. Every grid angle within
    VALUE_TOL is kept and compared with none: sweep_directions' angles lie a
    whole grid step apart (pi/K in theta, 2 pi/K' in phi), past _same_angles'
    10 ANGLE_TOL while K < 3e6 and K' < 6e6. A refined end within VALUE_TOL
    is added unless it repeats a kept angle exactly (an ascent that never
    left its grid face) or _same_angles matches it to one. So the list is the
    full scan's over grid + refined: of the angles that _same_angles matches,
    the first one met is kept.
    """
    keep = [angles for angles, value in grid if abs(value - best) <= VALUE_TOL]
    seen = set(keep)
    for angles, value in refined:
        if abs(value - best) <= VALUE_TOL and angles not in seen and not any(_same_angles(angles, k) for k in keep):
            keep.append(angles)
            seen.add(angles)
    return sorted(keep)


def region_contains(kind: MeasureKind, bound: float, r, rect: Hyperrect) -> bool:
    """Membership in the bound region R of kind's sense, with REGION_TOL relative slack.

    R is where combined >= bound for a concave measure (MIN) and combined <= bound
    for a convex one (MAX): sign * combined <= sign * bound + slack, as negation is exact.
    """
    slack = REGION_TOL * max(1.0, abs(bound))
    return kind.sign * combined(kind, r, rect) <= kind.sign * bound + slack


def _check_boundary(vec: ObservableVec, boundary) -> None:
    """EmptyBoundary without faces; DimensionMismatch unless there is one face per grid direction, each of vec.n on C^vec.dim."""
    if not boundary.faces:
        raise EmptyBoundary("boundary carries no faces")
    if len(boundary.faces) != grid_size(boundary.grid):
        raise DimensionMismatch(f"{len(boundary.faces)} faces on grid {boundary.grid!r} of {grid_size(boundary.grid)} directions")
    for f in boundary.faces:
        n, d = f.direction.n, len(f.eigenbasis)
        if (n, d) != (vec.n, vec.dim):
            raise DimensionMismatch(f"face of {n} operators on C^{d}, not {vec.n} on C^{vec.dim}")


def _trivial_corner(verts: np.ndarray, rect: Hyperrect):
    """(True, corner) for the first hyperrect corner within TRIVIAL_TOL (relative) of a vertex of verts, else (False, None)."""
    scale = max(1.0, max(h - l for l, h in zip(rect.lo, rect.hi)))
    for corner in rect.corners():
        dist = float(np.min(np.linalg.norm(verts - corner, axis=1)))
        if dist <= TRIVIAL_TOL * scale:
            return True, tuple(corner)
    return False, None


def triviality_check(vec: ObservableVec, boundary):
    """Flag (plus witnessing corner) when a hyperrect corner is a boundary vertex within TRIVIAL_TOL (relative).

    A shared corner makes every bound of this family trivial. DimensionMismatch for another set's boundary.
    """
    _check_boundary(vec, boundary)
    return _trivial_corner(boundary.all_vertices(), hyperrect(vec))
