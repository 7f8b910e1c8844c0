"""Large-j limit surfaces over the Bloch sphere and finite-j convergence sweeps.

In the symmetric-subspace limit the scaled mean vectors reduce to products of
Bloch components: power triples map the sphere through (x^g, y^g, z^g) and the
anticommutator triples through ((2xz)^g, (2yz)^g, (2xy)^g).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, UnsupportedFamily, UnsupportedJ
from .numrange import diag_directions, direction3, face, support
from .spinops import HalfInt, ObservableVec, anticomm_vec, checked_gamma, power_vec

FAMILY_JPOW = "JPOW"
FAMILY_ANTICOMM = "ANTICOMM"

AM = "AM"
AM_MIN = "AM_MIN"
LMAX_ETA1 = "LMAX_ETA1"
LMIN_ETA1 = "LMIN_ETA1"
MEAN_ETA1 = "MEAN_ETA1"

G_REGION_TOL = 1e-10
LIMIT_REGION_TOL = 1e-9


@dataclass(frozen=True)
class BlochPoint:
    mu: float
    nu: float
    x: float
    y: float
    z: float


@dataclass
class LimitSurface:
    family: str
    gamma: int
    points: np.ndarray  # (N, 3)
    bloch: list[BlochPoint]


def bloch_grid(mu_steps: int, nu_steps: int) -> list[BlochPoint]:
    """mu over [0, pi] inclusive (mu_steps intervals), nu over [0, 2pi)."""
    out = []
    for mu in np.linspace(0.0, math.pi, mu_steps + 1):
        sm, cm = math.sin(mu), math.cos(mu)
        for k in range(nu_steps):
            nu = 2 * math.pi * k / nu_steps
            out.append(BlochPoint(float(mu), float(nu), sm * math.cos(nu), sm * math.sin(nu), cm))
    return out


def _surface(family: str, gamma, mu_steps: int, nu_steps: int, base) -> LimitSurface:
    """The (N, 3) images of bloch_grid's points under b -> base(b)^gamma, componentwise."""
    gamma = checked_gamma(gamma)
    grid = bloch_grid(mu_steps, nu_steps)
    pts = np.array([[c**gamma for c in base(b)] for b in grid], dtype=float).reshape(-1, 3)
    return LimitSurface(family=family, gamma=gamma, points=pts, bloch=grid)


def surface_jpow(gamma: int, mu_steps: int, nu_steps: int) -> LimitSurface:
    """Image of the Bloch sphere under (x^g, y^g, z^g)."""
    return _surface(FAMILY_JPOW, gamma, mu_steps, nu_steps, lambda b: (b.x, b.y, b.z))


def surface_anticomm(gamma: int, mu_steps: int, nu_steps: int) -> LimitSurface:
    """Image of the Bloch sphere under ((2xz)^g, (2yz)^g, (2xy)^g)."""
    return _surface(
        FAMILY_ANTICOMM, gamma, mu_steps, nu_steps, lambda b: (2 * b.x * b.z, 2 * b.y * b.z, 2 * b.x * b.y)
    )


def _point3(p) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if p.shape != (3,):
        raise DimensionMismatch(f"point has shape {p.shape}, expected (3,)")
    return p


def _roman_gauge(p: np.ndarray) -> float:
    """Gauge of p in the convex hull of the Roman surface (2xz, 2yz, 2xy), in closed form.

    The hull is {(2 rho_13, 2 rho_23, 2 rho_12) : rho a real 3x3 density
    matrix}, so its support function in direction eta is lambda_max(M(eta))
    with M(eta) = [[0, eta3, eta1], [eta3, 0, eta2], [eta1, eta2, 0]]. By SDP
    duality, t I - M(eta) >= 0 with t > 0 is t C for a correlation matrix C
    (unit diagonal, off-diagonals c_12, c_13, c_23 = -eta3/t, -eta1/t, -eta2/t),
    and p lies in the hull scaled by s exactly when
    p1 c_13 + p2 c_23 + p3 c_12 >= -s for every 3x3 correlation matrix C.
    At fixed c_12 = c the admissible (c_13, c_23) fill the ellipse
    u^T [[1, c], [c, 1]]^-1 u <= 1, over which p1 c_13 + p2 c_23 has minimum
    -sqrt(p1^2 + p2^2 + 2 p1 p2 c). So the gauge is -min g over c in [-1, 1] of

        g(c) = p3 c - sqrt(p1^2 + p2^2 + 2 p1 p2 c),

    a convex function. Its minimum lies at c = +-1, where g = +-p3 - |p1 +- p2|,
    or where g'(c) = 0: sqrt(...) = k with k = p1 p2 / p3 > 0, at
    c* = (k^2 - p1^2 - p2^2) / (2 p1 p2), taken when it lies in (-1, 1).
    A non-finite coordinate gives a NaN or infinite gauge, so p is never inside.
    """
    p1, p2, p3 = (float(c) for c in p)
    gauge = max(abs(p1 + p2) - p3, abs(p1 - p2) + p3)
    if p1 * p2 * p3 > 0.0:
        k = p1 * p2 / p3
        c_star = (k * k - p1 * p1 - p2 * p2) / (2.0 * p1 * p2)
        if -1.0 < c_star < 1.0:
            gauge = max(gauge, k - p3 * c_star)
    return gauge


def limit_region_contains(family: str, gamma: int, p) -> bool:
    """Membership in the large-j limit region of the scaled mean vectors.

    For the ball, the octahedra and the Roman-surface hull (anticommutators at
    gamma = 1, gauge from ``_roman_gauge``), LIMIT_REGION_TOL bounds the
    gauge: p is inside when its gauge is at most 1 + LIMIT_REGION_TOL. The
    other regions allow LIMIT_REGION_TOL of slack in each defining inequality.
    GammaOutOfRange unless gamma is an integer >= 1, in either family.
    """
    p = _point3(p)
    tol = LIMIT_REGION_TOL
    if family in (FAMILY_JPOW, FAMILY_ANTICOMM):
        gamma = checked_gamma(gamma)
    if family == FAMILY_JPOW:
        if gamma == 1:
            return float(np.linalg.norm(p)) <= 1.0 + tol
        if gamma % 2 == 1:
            return float(np.sum(np.abs(p))) <= 1.0 + tol
        inside_box = bool(np.all(p >= -tol) and np.all(p <= 1.0 + tol))
        root_sum = float(np.sum(np.abs(p) ** (2.0 / gamma)))
        return inside_box and float(np.sum(p)) <= 1.0 + tol and root_sum >= 1.0 - tol
    if family == FAMILY_ANTICOMM:
        if gamma == 1:
            return _roman_gauge(p) <= 1.0 + tol
        if gamma % 2 == 1:
            return float(np.sum(np.abs(p))) <= 1.0 + tol
        if gamma >= 4:
            return bool(np.all(p >= -tol)) and float(np.sum(p)) <= 1.0 + tol
        raise UnsupportedFamily("no limit-region description for anticommutators at gamma=2")
    raise UnsupportedFamily(f"unknown family {family!r}")


def g_region_contains(vartheta, r) -> bool:
    """Membership in G_theta: sum_l (sqrt3 eta_l . r)^(2 theta) <= 4; theta=inf is the octahedron.

    theta must be a positive integer or math.inf; anything else raises ValueError.
    """
    if vartheta != math.inf and not (float(vartheta).is_integer() and vartheta >= 1):
        raise ValueError(f"theta must be a positive integer or math.inf, got {vartheta!r}")
    r = _point3(r)
    etas = [d.eta for d in diag_directions()]
    projections = [math.sqrt(3.0) * float(e @ r) for e in etas]
    if vartheta == math.inf:
        return max(abs(p) for p in projections) <= 1.0 + G_REGION_TOL
    power = 2 * int(vartheta)
    return sum(p**power for p in projections) <= 4.0 + G_REGION_TOL


def _eta1():
    return diag_directions()[0]


def convergence_sweep(family: str, gamma: int, j_list, quantity: str):
    """Series of (j, value) for the chosen normalized quantity.

    AM / AM_MIN: extreme eigenvalues of the first operator; LMAX_ETA1 /
    LMIN_ETA1: extreme eigenvalues of eta_1 . E; MEAN_ETA1: the single-point
    face coordinate at eta_1 divided by the extreme eigenvalue. Raises
    UnsupportedJ at j = 0 (all operators vanish), for MEAN_ETA1 when the first
    operator is zero (anticommutators at j = 1/2, where the Pauli matrices
    anticommute) and for a non-point MEAN_ETA1 face; GammaOutOfRange unless
    gamma is an integer >= 1, and ValueError for any other quantity.
    """
    if family == FAMILY_JPOW:
        build, power = power_vec, lambda j: j.j**gamma
    elif family == FAMILY_ANTICOMM:
        build, power = anticomm_vec, lambda j: j.j ** (2 * gamma)
    else:
        raise UnsupportedFamily(f"unknown family {family!r}")
    gamma = checked_gamma(gamma)
    if quantity not in (AM, AM_MIN, LMAX_ETA1, LMIN_ETA1, MEAN_ETA1):
        raise ValueError(f"unknown quantity {quantity!r}")
    eta1 = _eta1()
    out = []
    for j in j_list:
        j = j if isinstance(j, HalfInt) else HalfInt.parse(str(j))
        if j.twice == 0:
            raise UnsupportedJ("j = 0: every operator is zero, so nothing can be normalized")
        vec: ObservableVec = build(j, gamma)
        scale = power(j)
        if quantity == AM:
            value = vec.ops[0].eig_max / scale
        elif quantity == AM_MIN:
            value = vec.ops[0].eig_min / scale
        elif quantity == LMAX_ETA1:
            value = support(vec, eta1).lambda_max / scale
        elif quantity == LMIN_ETA1:
            # lambda_max of the antipodal direction is -lambda_min of this one
            anti = direction3(math.pi - eta1.theta, (math.pi + eta1.phi) % (2 * math.pi))
            value = -support(vec, anti).lambda_max / scale
        else:  # MEAN_ETA1
            if vec.ops[0].eig_max == 0.0:
                raise UnsupportedJ(f"j={j}: the first operator is zero, so its mean cannot be normalized")
            f = face(vec, eta1)
            if not f.is_point:
                raise UnsupportedJ(f"face at eta_1 is not a point for j={j}")
            value = float(f.vertices[0][0]) / vec.ops[0].eig_max
        out.append((j, float(value)))
    return out

