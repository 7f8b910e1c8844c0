"""Uncertainty/certainty measures on mean vectors and their tight bounds.

Each coordinate x with spectral interval [lo, hi] is mapped to the pair
dot = (hi-x)/(hi-lo), ring = (x-lo)/(hi-lo); concave measures (entropy-like h,
u_kappa for kappa < 1) are minimized over the boundary, convex ones
(u_kappa for kappa > 1, u_max) maximized. Optima found on the sweep grid are
refined by successive linearization: each step solves the face at the
measure's gradient, whose best vertex is the next point. Every ascent of a
table, over all its measures, advances in lockstep rounds: a round solves
the faces of all live ascents in one numrange.faces call and scores their
vertices together.

Scoring is array code. _weights maps a (V, n) vertex array to its (dot, ring)
weights, and _scores sums each vertex's per-coordinate measures in coordinate
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
from .numrange import Boundary, Direction, Hyperrect, direction2, direction3, face, faces, hyperrect  # noqa: F401
from .numrange import local_optima
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


def _measures(kind: MeasureKind, dot: np.ndarray, ring: np.ndarray) -> np.ndarray:
    """The per-coordinate measure of each (dot, ring) weight pair; h's w ln w is 0 at w = 0."""
    if kind.tag == "h":
        dot_log = dot * _map(math.log, np.where(dot > 0.0, dot, 1.0))
        ring_log = ring * _map(math.log, np.where(ring > 0.0, ring, 1.0))
        return (0.0 - dot_log) - ring_log
    if kind.tag == "u":
        return _map(pow, dot, kind.kappa) + _map(pow, ring, kind.kappa)
    return np.maximum(dot, ring)


def _scores(kind: MeasureKind, dot: np.ndarray, ring: np.ndarray) -> np.ndarray:
    """combined at each row of (V, n) weights: 0 + m_0 + m_1 + ..., coordinates in order."""
    total = np.zeros(len(dot))
    for column in _measures(kind, dot, ring).T:
        total = total + column
    return total


def normalize_mean(x: float, lo: float, hi: float) -> tuple[float, float]:
    """Split x in [lo, hi] into the complementary weights (dot, ring)."""
    dot, ring = _weights([[x]], [lo], [hi])
    return float(dot[0, 0]), float(ring[0, 0])


def measure(kind: MeasureKind, x: float, lo: float, hi: float) -> float:
    return float(_measures(kind, *_weights([[x]], [lo], [hi]))[0, 0])


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


def _best_rows(scores: np.ndarray, starts, sense: str) -> np.ndarray:
    """The index of each segment's best score, segment k running from starts[k] to the next start.

    On ties the first index wins, as argmin and argmax break them.
    """
    starts = np.asarray(starts)
    best = (np.minimum if sense == MIN else np.maximum).reduceat(scores, starts)
    hits = np.flatnonzero(scores == np.repeat(best, np.diff(starts, append=len(scores))))
    return hits[np.searchsorted(hits, starts)]


def _better(u: float, v: float, sense: str) -> bool:
    return u < v if sense == MIN else u > v


def _gradient(kind: MeasureKind, dots: np.ndarray, rings: np.ndarray, rect: Hyperrect) -> np.ndarray:
    """The gradient of combined at the point of weights (dots, rings), or its limit direction where a slope is unbounded.

    Per coordinate, with w = hi - lo: h gives ln(dot/ring)/w, u_kappa gives
    kappa (ring^(kappa-1) - dot^(kappa-1))/w and umax sign(ring - dot)/w. At an
    exact endpoint h and u_kappa with kappa < 1 have unbounded slope; there the
    direction is the signs of the unbounded coordinates (+1 where ring = 0,
    -1 where dot = 0) and 0 everywhere else.
    """
    grad = np.zeros(rect.n)
    steep = np.zeros(rect.n)
    unbounded = kind.tag == "h" or (kind.tag == "u" and kind.kappa < 1.0)
    for i, (dot, ring, lo, hi) in enumerate(zip(dots.tolist(), rings.tolist(), rect.lo, rect.hi)):
        width = hi - lo
        if unbounded and (dot == 0.0 or ring == 0.0):
            steep[i] = 1.0 if ring == 0.0 else -1.0
        elif kind.tag == "h":
            grad[i] = math.log(dot / ring) / width
        elif kind.tag == "u":
            grad[i] = kind.kappa * (ring ** (kind.kappa - 1.0) - dot ** (kind.kappa - 1.0)) / width
        else:
            grad[i] = np.sign(ring - dot) / width
    return steep if steep.any() else grad


def _phi(eta: np.ndarray) -> float:
    """atan2 of eta's first two coordinates in [0, 2 pi): a tiny negative angle,
    which % rounds up to exactly 2 pi, is folded to 0."""
    phi = math.atan2(eta[1], eta[0]) % (2 * math.pi)
    return 0.0 if phi == 2 * math.pi else phi


def _direction(eta: np.ndarray):
    """The sweep direction of the unit vector eta; phi in [0, 2 pi), and 0 at a pole."""
    if len(eta) == 2:
        return direction2(_phi(eta))
    rho = math.hypot(eta[0], eta[1])
    return direction3(math.atan2(rho, eta[2]), _phi(eta) if rho > 0.0 else 0.0)


@dataclass
class _Ascent:
    """One refinement from a grid optimum of measure kinds[measure]: its current direction, value and weights."""

    measure: int
    direction: Direction
    value: float
    dot: np.ndarray
    ring: np.ndarray


def _refine(vec, kinds, ascents: list[_Ascent], rect: Hyperrect, deg_tol: float) -> None:
    """Successive linearization of every ascent in lockstep rounds (the
    conditional-gradient step of Frank & Wolfe, Naval Res. Logist. Q. 3, 1956).

    A step solves the face at the measure's gradient g at the ascent's
    current best vertex x, eta = +g/|g| to maximize and -g/|g| to minimize,
    and moves to that face's best vertex x' only if its value is strictly
    better. The step is monotone: a convex measure gains
    f(x') >= f(x) + g.(x' - x) >= f(x), since x' maximizes g.y over the
    region; a concave one mirrors this. An ascent retires when its value does
    not improve, when g vanishes, when eta repeats within ANGLE_TOL, or after
    MAX_STEPS. Each round solves the steps of all live ascents in one faces
    call, weights their stacked vertices at once and scores them in one
    _scores call per measure. A face does not depend on the other directions
    of its call and a score row only on its vertex, so every ascent ends
    bitwise where it would alone. Ascents are given in measure order.
    """
    live = ascents
    for _ in range(MAX_STEPS):
        moving, steps = [], []
        for a in live:
            kind = kinds[a.measure]
            g = _gradient(kind, a.dot, a.ring, rect)
            norm = float(np.linalg.norm(g))
            if norm == 0.0:
                continue
            eta = g / norm if kind.sense == MAX else -g / norm
            if np.linalg.norm(eta - a.direction.eta) <= ANGLE_TOL:
                continue
            moving.append(a)
            steps.append(_direction(eta))
        if not steps:
            return
        solved = faces(vec, steps, deg_tol)
        offsets = np.cumsum([0, *(len(f.vertices) for f in solved)])
        dot, ring = _weights(np.vstack([f.vertices for f in solved]), rect.lo, rect.hi)
        live = []
        first = 0
        for m, group in itertools.groupby(moving, key=lambda a: a.measure):
            group = list(group)
            last = first + len(group)
            begin, end = offsets[first], offsets[last]
            sense = kinds[m].sense
            scores = _scores(kinds[m], dot[begin:end], ring[begin:end])
            for a, step, i in zip(group, steps[first:last], _best_rows(scores, offsets[first:last] - begin, sense)):
                if _better(scores[i], a.value, sense):
                    a.direction, a.value, a.dot, a.ring = step, float(scores[i]), dot[begin + i], ring[begin + i]
                    live.append(a)
            first = last


def optimize_bounds(vec: ObservableVec, boundary: Boundary, kinds) -> BoundReport:
    """Tight bound of each measure over the boundary, with attaining angles.

    The sweep's vertices are weighted once and scored in one call per
    measure, in grid order; each face's value is its best vertex's, and the
    grid's local optima come from numrange.local_optima (ties kept, a pole
    compared with its whole ring). Each measure's best MAX_REFINE grid
    optima, the first in grid order among equal values, start an ascent
    from their best vertex, and all ascents of the table are refined together
    (_refine): round by round, the face at each live ascent's gradient gives
    its next vertex while its value strictly improves. Every grid angle and
    refined end angle whose value lies within VALUE_TOL of the optimum is
    reported (_collect); only the refined ends are compared for repeats, as
    grid angles lie a grid step apart.
    """
    if not boundary.faces:
        raise EmptyBoundary("boundary carries no faces")
    _check_boundary(vec, boundary)
    rect = hyperrect(vec)
    kinds = [MeasureKind.parse(k) if isinstance(k, str) else k for k in kinds]
    starts = np.cumsum([0] + [len(f.vertices) for f in boundary.faces[:-1]])
    dot, ring = _weights(boundary.all_vertices(), rect.lo, rect.hi)
    grids, ascents = [], []
    for m, kind in enumerate(kinds):
        sense = kind.sense
        scores = _scores(kind, dot, ring)
        best = _best_rows(scores, starts, sense)
        flat = scores[best]
        candidates = local_optima(flat, boundary.grid, np.less_equal if sense == MIN else np.greater_equal)
        ranked = candidates[np.argsort(flat[candidates] if sense == MIN else -flat[candidates], kind="stable")]
        for k in ranked[:MAX_REFINE]:
            i = best[k]
            ascents.append(_Ascent(m, boundary.faces[k].direction, float(scores[i]), dot[i], ring[i]))
        grids.append((flat.tolist(), float(flat.min() if sense == MIN else flat.max())))
    _refine(vec, kinds, ascents, rect, boundary.deg_tol)
    grid = [_angles(f.direction) for f in boundary.faces]
    results = []
    for m, (kind, (grid_values, best)) in enumerate(zip(kinds, grids)):
        refined = [(_angles(a.direction), a.value) for a in ascents if a.measure == m]
        best = (min if kind.sense == MIN else max)([best, *(v for _, v in refined)])
        results.append(MeasureResult(kind, best, kind.sense, _collect(zip(grid, grid_values), refined, best)))
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


def _angles(direction) -> tuple[float, ...]:
    return (direction.phi,) if direction.theta is None else (direction.theta, direction.phi)


def region_contains(kind: MeasureKind, bound: float, sense: str, r, rect: Hyperrect) -> bool:
    """Membership in the bound region R = {r : combined respects the bound}, with REGION_TOL relative slack.

    sense is MIN (R is where combined >= bound) or MAX (combined <= bound); any other raises ValueError.
    """
    if sense not in (MIN, MAX):
        raise ValueError(f"sense is {MIN!r} or {MAX!r}, got {sense!r}")
    value = combined(kind, r, rect)
    slack = REGION_TOL * max(1.0, abs(bound))
    if sense == MIN:
        return value >= bound - slack
    return value <= bound + slack


def _check_boundary(vec: ObservableVec, boundary) -> None:
    """DimensionMismatch unless every face's direction has vec.n components and its eigenbasis vec.dim rows."""
    for f in boundary.faces:
        n, d = f.direction.n, len(f.eigenbasis)
        if (n, d) != (vec.n, vec.dim):
            raise DimensionMismatch(f"face of {n} operators on C^{d}, not {vec.n} on C^{vec.dim}")


def triviality_check(vec: ObservableVec, boundary, rect: Hyperrect | None = None):
    """Flag (plus witnessing corner) when a hyperrect corner is a boundary vertex within TRIVIAL_TOL (relative).

    A shared corner makes every bound of this family trivial. DimensionMismatch for another set's boundary.
    """
    _check_boundary(vec, boundary)
    if rect is None:
        rect = hyperrect(vec)
    verts = boundary.all_vertices()
    scale = max(1.0, max(h - l for l, h in zip(rect.lo, rect.hi)))
    for corner in rect.corners():
        dist = float(np.min(np.linalg.norm(verts - corner, axis=1)))
        if dist <= TRIVIAL_TOL * scale:
            return True, tuple(corner)
    return False, None
