"""Uncertainty/certainty measures on mean vectors and their tight bounds.

Each coordinate x with spectral interval [lo, hi] is mapped to the pair
dot = (hi-x)/(hi-lo), ring = (x-lo)/(hi-lo); concave measures (entropy-like h,
u_kappa for kappa < 1) are minimized over the boundary, convex ones
(u_kappa for kappa > 1, u_max) maximized. Optima found on the sweep grid are
refined by coordinate descent in the angles, each line search Brent's
bounded minimizer: parabolic steps with golden-section fallback.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateRange, EmptyBoundary
from .numrange import Boundary, Hyperrect, direction2, direction3, face, hyperrect
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
REFINE_ROUNDS = 6


@dataclass(frozen=True)
class MeasureKind:
    """h | u(kappa) | umax."""

    tag: str
    kappa: float | None = None

    def __post_init__(self):
        if self.tag not in ("h", "u", "umax"):
            raise ValueError(f"unknown measure tag {self.tag!r}")
        if self.tag == "u":
            if self.kappa is None or not self.kappa > 0:
                raise ValueError("u measure needs kappa > 0")
        elif self.kappa is not None:
            raise ValueError(f"{self.tag} takes no kappa")

    @property
    def sense(self) -> str:
        """Concave measures bound from below (MIN), convex from above (MAX)."""
        if self.tag == "h" or (self.tag == "u" and self.kappa < 1):
            return MIN
        return MAX

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


def normalize_mean(x: float, lo: float, hi: float) -> tuple[float, float]:
    """Split x in [lo, hi] into the complementary weights (dot, ring)."""
    width = hi - lo
    if width <= RANGE_TOL:
        raise DegenerateRange(f"interval [{lo}, {hi}] has zero width")
    slack = CLAMP_TOL * max(1.0, width)
    if x < lo - slack or x > hi + slack:
        raise ValueError(f"x={x} outside [{lo}, {hi}] beyond clamp tolerance")
    if x == lo:
        return 1.0, 0.0
    if x == hi:
        return 0.0, 1.0
    ring = (min(max(x, lo), hi) - lo) / width
    floor = RING_FLOOR
    if x > lo and ring < RING_RAMP:
        floor *= ring / RING_RAMP
    ring = min(max(ring, floor), 1.0 - RING_FLOOR)
    return 1.0 - ring, ring


def measure(kind: MeasureKind, x: float, lo: float, hi: float) -> float:
    dot, ring = normalize_mean(x, lo, hi)
    if kind.tag == "h":
        out = 0.0
        for w in (dot, ring):
            if w > 0.0:
                out -= w * math.log(w)
        return out
    if kind.tag == "u":
        return dot**kind.kappa + ring**kind.kappa
    return max(dot, ring)


def combined(kind: MeasureKind, r, rect: Hyperrect) -> float:
    """Sum of the per-coordinate measure over the mean vector r."""
    r = np.asarray(r, dtype=float)
    if r.shape != (rect.n,):
        raise ValueError(f"point shape {r.shape} does not match rect n={rect.n}")
    return sum(measure(kind, float(x), lo, hi) for x, lo, hi in zip(r, rect.lo, rect.hi))


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


def _face_value(kind: MeasureKind, f, rect: Hyperrect, sense: str) -> float:
    vals = [combined(kind, v, rect) for v in f.vertices]
    return min(vals) if sense == MIN else max(vals)


def _line_search(fn, a: float, b: float, sense: str, tol: float) -> tuple[float, float]:
    """Extremum of fn on [a, b] by Brent's bounded minimizer; returns the best evaluated sample.

    Parabolic interpolation through the three best points, with a golden-section
    step whenever the parabola is not trusted (R. P. Brent, Algorithms for
    Minimization without Derivatives, 1973, ch. 5; scipy's fminbound). It stops
    once the bracket around its best point is within 2 tol / 3 on each side,
    an absolute tolerance in the angle. The reported sample is the first
    evaluated with the best value, so a flat stretch keeps its first point.
    """
    sign = 1.0 if sense == MIN else -1.0
    golden = (3.0 - math.sqrt(5.0)) / 2.0
    tol1 = tol / 3.0
    x = w = v = a + golden * (b - a)
    fx = fw = fv = sign * fn(x)
    best = (x, fx)
    step = prev = 0.0  # the last two step lengths
    while abs(x - (a + b) / 2.0) > 2.0 * tol1 - (b - a) / 2.0:
        mid = (a + b) / 2.0
        parabolic = False
        if abs(prev) > tol1:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            prev, older = step, prev
            # accept a parabola that stays inside [a, b] and steps under half the step before last
            if abs(p) < abs(0.5 * q * older) and q * (a - x) < p < q * (b - x):
                parabolic = True
                step = p / q
                if x + step - a < 2.0 * tol1 or b - (x + step) < 2.0 * tol1:
                    step = tol1 if mid >= x else -tol1
        if not parabolic:
            prev = (a if x >= mid else b) - x
            step = golden * prev
        u = x + (step if abs(step) >= tol1 else math.copysign(tol1, step))
        fu = sign * fn(u)
        if fu < best[1]:
            best = (u, fu)
        if fu <= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
    return best[0], sign * best[1]


def _local_optima(values: list[np.ndarray], sense: str) -> list[tuple[int, int]]:
    """Grid nodes no worse than their neighbours; columns wrap around, rows do not.

    Column kp of a row is read modulo that row's length, so a row of one face
    meets each neighbouring row at its column 0.
    """
    cmp = (lambda u, v: u <= v) if sense == MIN else (lambda u, v: u >= v)
    out = []
    for k, row in enumerate(values):
        for kp, v in enumerate(row):
            neighbors = [row[kp - 1], row[(kp + 1) % len(row)]]
            neighbors += [values[i][kp % len(values[i])] for i in (k - 1, k + 1) if 0 <= i < len(values)]
            if all(cmp(v, w) for w in neighbors):
                out.append((k, kp))
    return out


def _refine(objective, start: list[float], value: float, axes, sense: str, tol: float):
    """Coordinate descent from a grid node, one Brent line search per axis.

    axes holds (lo, hi, half-width) per angle; the objective only ever sees
    angles clamped to [lo, hi]. Each round line-searches every axis in turn
    and then narrows the windows; a single axis is done after its one line
    search, several stop once a round no longer moves the value.
    """
    point = list(start)
    halves = [half for _, _, half in axes]
    for _ in range(REFINE_ROUNDS):
        for i, (lo, hi, _) in enumerate(axes):

            def line(x: float, i=i) -> float:
                trial = point[:i] + [x] + point[i + 1 :]
                return objective([min(max(a, a_lo), a_hi) for a, (a_lo, a_hi, _) in zip(trial, axes)])

            a, b = max(lo, point[i] - halves[i]), min(hi, point[i] + halves[i])
            point[i], found = _line_search(line, a, b, sense, tol)
        halves = [half / 3.0 for half in halves]
        done = len(axes) == 1 or abs(found - value) <= 1e-13 * max(1.0, abs(found))
        value = found
        if done:
            break
    point[-1] %= 2 * math.pi
    return tuple(point), value


def optimize_bounds(vec: ObservableVec, boundary: Boundary, kinds) -> BoundReport:
    """Tight bound of each measure over the boundary, with attaining angles.

    The boundary is read through its rows view, a grid of faces (one row of
    phi in 2D, rows of theta in 3D). Grid optima are refined by coordinate
    descent with Brent line searches over the faces' angles (phi, or theta
    and phi); every evaluated angle whose value lies within VALUE_TOL of the
    optimum is reported.
    """
    if not boundary.faces:
        raise EmptyBoundary("boundary carries no faces")
    rect = hyperrect(vec)
    kinds = [MeasureKind.parse(k) if isinstance(k, str) else k for k in kinds]
    rows = boundary.rows()
    results = [_optimize(vec, rows, kind, rect, boundary.deg_tol) for kind in kinds]
    trivial, _ = triviality_check(vec, boundary, rect)
    return BoundReport(results=results, trivial=trivial, rect=rect)


def _same_angles(u: tuple[float, ...], v: tuple[float, ...]) -> bool:
    """Equal within 10 ANGLE_TOL per angle, phi (the last) compared the short way round the circle."""
    *theta_u, phi_u = u
    *theta_v, phi_v = v
    gap = abs(phi_u - phi_v) % (2 * math.pi)
    return min(gap, 2 * math.pi - gap) <= 10 * ANGLE_TOL and all(
        abs(a - b) <= 10 * ANGLE_TOL for a, b in zip(theta_u, theta_v)
    )


def _collect(evaluated, best: float):
    keep = []
    for angles, value in evaluated:
        if abs(value - best) <= VALUE_TOL and not any(_same_angles(angles, kept) for kept in keep):
            keep.append(angles)
    return sorted(keep)


def _angles(direction) -> tuple[float, ...]:
    return (direction.phi,) if direction.theta is None else (direction.theta, direction.phi)


def _optimize(vec, rows, kind, rect, deg_tol) -> MeasureResult:
    sense = kind.sense
    values = [np.array([_face_value(kind, f, rect, sense) for f in row]) for row in rows]
    better = (lambda u, v: u < v) if sense == MIN else (lambda u, v: u > v)
    # the (lo, hi, half-width) of each axis: phi spaced by the longest row, theta by the rows
    axes = [(-math.inf, math.inf, 2 * math.pi / max(len(row) for row in rows))]
    if rows[0][0].direction.theta is not None:
        axes.insert(0, (0.0, math.pi, math.pi / (len(rows) - 1)))

    def objective(angles: list[float]) -> float:
        *theta, phi = angles
        phi %= 2 * math.pi
        direction = direction3(theta[0], phi) if theta else direction2(phi)
        return _face_value(kind, face(vec, direction, deg_tol), rect, sense)

    evaluated = [(_angles(f.direction), v) for row, vals in zip(rows, values) for f, v in zip(row, vals)]
    candidates = _local_optima(values, sense)
    candidates.sort(key=lambda idx: values[idx[0]][idx[1]], reverse=(sense == MAX))
    flat = np.concatenate(values)
    best = float(flat.min() if sense == MIN else flat.max())
    for k, kp in candidates[:MAX_REFINE]:
        angles, v = _refine(objective, list(_angles(rows[k][kp].direction)), values[k][kp], axes, sense, ANGLE_TOL)
        evaluated.append((angles, v))
        if better(v, best):
            best = v
    angles = _collect(evaluated, best)
    return MeasureResult(kind=kind, value=best, sense=sense, angles=angles)


def region_contains(kind: MeasureKind, bound: float, sense: str, r, rect: Hyperrect) -> bool:
    """Membership in the bound region R = {r : combined respects the bound}, with REGION_TOL relative slack."""
    value = combined(kind, r, rect)
    slack = REGION_TOL * max(1.0, abs(bound))
    if sense == MIN:
        return value >= bound - slack
    return value <= bound + slack


def triviality_check(vec: ObservableVec, boundary, rect: Hyperrect | None = None):
    """Flag (plus witnessing corner) when a hyperrect corner is a boundary vertex within TRIVIAL_TOL (relative).

    A shared corner makes every bound of this family trivial.
    """
    if rect is None:
        rect = hyperrect(vec)
    verts = boundary.all_vertices()
    scale = max(1.0, max(h - l for l, h in zip(rect.lo, rect.hi)))
    for corner in rect.corners():
        dist = float(np.min(np.linalg.norm(verts - corner, axis=1)))
        if dist <= TRIVIAL_TOL * scale:
            return True, tuple(corner)
    return False, None
