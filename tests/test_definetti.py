import math

import numpy as np
import pytest

from conftest import CI_LONG
from specrange import definetti
from specrange.definetti import (
    bloch_grid,
    convergence_sweep,
    g_region_contains,
    limit_region_contains,
    surface_anticomm,
    surface_jpow,
)
from specrange.errors import DimensionMismatch, GammaOutOfRange, UnsupportedFamily, UnsupportedJ
from specrange.numrange import boundary3d, diag_directions
from specrange.spinops import HalfInt, anticomm_vec, ladder_combo, power_vec, scale_uniform

SQ3 = math.sqrt(3.0)


def test_bloch_grid_contains_axes():
    grid = bloch_grid(90, 180)
    pts = np.array([[b.x, b.y, b.z] for b in grid])
    for axis in np.vstack([np.eye(3), -np.eye(3)]):
        assert np.min(np.linalg.norm(pts - axis, axis=1)) <= 1e-12
    assert np.max(np.abs(np.linalg.norm(pts, axis=1) - 1.0)) <= 1e-12


def test_surface_jpow_gamma1_is_sphere():
    surf = surface_jpow(1, 30, 60)
    assert np.max(np.abs(np.linalg.norm(surf.points, axis=1) - 1.0)) <= 1e-12


def test_surface_jpow_gamma2_on_plane():
    surf = surface_jpow(2, 30, 60)
    assert np.max(np.abs(surf.points.sum(axis=1) - 1.0)) <= 1e-12


def test_surface_jpow_gamma3_contains_axis_points():
    surf = surface_jpow(3, 90, 180)
    for axis in np.vstack([np.eye(3), -np.eye(3)]):
        assert np.min(np.linalg.norm(surf.points - axis, axis=1)) <= 1e-12


@pytest.mark.parametrize("gamma", [1, 2, 3, 4])
def test_surface_jpow_root_identity(gamma):
    surf = surface_jpow(gamma, 45, 90)
    sums = np.sum(np.abs(surf.points) ** (2.0 / gamma), axis=1)
    assert np.max(np.abs(sums - 1.0)) <= 1e-10


@pytest.mark.parametrize("gamma", [1, 2, 3, 4])
def test_surface_anticomm_product_identity(gamma):
    surf = surface_anticomm(gamma, 45, 90)
    p = surf.points
    lhs = (
        np.abs(p[:, 0] * p[:, 1]) ** (2.0 / gamma)
        + np.abs(p[:, 1] * p[:, 2]) ** (2.0 / gamma)
        + np.abs(p[:, 2] * p[:, 0]) ** (2.0 / gamma)
    )
    prod = p[:, 0] * p[:, 1] * p[:, 2]
    rhs = 2.0 * np.sign(prod) * np.abs(prod) ** (1.0 / gamma)
    assert np.max(np.abs(lhs - rhs)) <= 1e-10


def test_surface_anticomm_diagonal_point():
    # the x = y = z = 1/sqrt(3) Bloch point maps to (2/3, 2/3, 2/3)
    x = y = z = 1.0 / SQ3
    assert 2 * x * z == pytest.approx(2.0 / 3.0, abs=1e-14)
    surf = surface_anticomm(1, 90, 180)
    target = np.array([2.0 / 3.0] * 3)
    assert np.min(np.linalg.norm(surf.points - target, axis=1)) <= 5e-2


def test_surface_anticomm_even_power_in_unit_box():
    surf = surface_anticomm(2, 30, 60)
    assert np.all(surf.points >= -1e-15)
    assert np.all(surf.points <= 1.0 + 1e-15)


@pytest.mark.parametrize("build", [surface_jpow, surface_anticomm], ids=["jpow", "anticomm"])
@pytest.mark.parametrize("mu_steps, nu_steps", [(2, 0), (0, 4), (3, 5)])
def test_limit_surface_points_are_n_by_3(build, mu_steps, nu_steps):
    """An empty grid still gives an (0, 3) array; each row is one Bloch point's real image."""
    surf = build(3, mu_steps, nu_steps)
    assert surf.points.shape == (len(surf.bloch), 3)
    assert surf.points.dtype == np.float64
    assert len(surf.bloch) == (mu_steps + 1) * nu_steps


GAMMA_ENTRY_POINTS = {
    "ladder_combo": lambda g: ladder_combo(HalfInt(4), g),
    "power_vec": lambda g: power_vec(HalfInt(4), g),
    "anticomm_vec": lambda g: anticomm_vec(HalfInt(4), g),
    "surface_jpow": lambda g: surface_jpow(g, 2, 8),
    "surface_anticomm": lambda g: surface_anticomm(g, 2, 8),
    "limit_jpow": lambda g: limit_region_contains("JPOW", g, [0.1, 0.1, 0.1]),
    "limit_anticomm": lambda g: limit_region_contains("ANTICOMM", g, [0.1, 0.1, 0.1]),
    "sweep_jpow": lambda g: convergence_sweep("JPOW", g, ["1"], "AM"),
    "sweep_anticomm": lambda g: convergence_sweep("ANTICOMM", g, ["1"], "AM"),
}


@pytest.mark.parametrize("gamma", [0, -1, 1.5, 2.5, 2.0], ids=str)
@pytest.mark.parametrize("entry", sorted(GAMMA_ENTRY_POINTS))
def test_every_gamma_entry_point_requires_an_integer_at_least_one(entry, gamma):
    """One check: a non-integer or gamma < 1 raises GammaOutOfRange everywhere, never ValueError, TypeError or an answer."""
    with pytest.raises(GammaOutOfRange, match=f"got {gamma!r}"):
        GAMMA_ENTRY_POINTS[entry](gamma)


def test_gamma_entry_points_take_numpy_integers():
    assert power_vec(HalfInt(4), np.int64(3)).gamma == 3
    assert surface_jpow(np.int64(2), 2, 8).gamma == 2
    assert limit_region_contains("JPOW", np.int64(3), [0.1, 0.1, 0.1])


def test_finite_j_roman_surface():
    # multiplicity-1 boundary points of the j=1 anticommutator triple satisfy
    # the sign-flipped quartic
    vec = anticomm_vec(HalfInt(2), 1)
    mesh = boundary3d(vec, 18, 36)
    checked = 0
    for f in mesh.faces:
        if f.multiplicity != 1:
            continue
        for v in f.vertices:
            a1, a2, a3 = v
            lhs = (a1 * a2) ** 2 + (a2 * a3) ** 2 + (a3 * a1) ** 2
            assert abs(lhs + 2 * a1 * a2 * a3) <= 1e-7
            checked += 1
    assert checked > 100


def test_limit_surface_hull_is_octahedron():
    from scipy.spatial import ConvexHull

    surf = surface_jpow(3, 90, 180)
    hull = ConvexHull(surf.points)
    vertices = surf.points[hull.vertices]
    octa = np.vstack([np.eye(3), -np.eye(3)])
    for v in vertices:
        assert np.min(np.linalg.norm(octa - v, axis=1)) <= 1e-9
    for corner in octa:
        assert np.min(np.linalg.norm(vertices - corner, axis=1)) <= 1e-9


def test_anticomm_gamma4_hull_matches_tetrahedron():
    from scipy.spatial import ConvexHull

    surf = surface_anticomm(4, 60, 120)
    hull = ConvexHull(surf.points)
    vertices = surf.points[hull.vertices]
    tetra = np.vstack([np.zeros(3), np.eye(3)])
    for v in vertices:
        assert np.min(np.linalg.norm(tetra - v, axis=1)) <= 1e-9
    for corner in tetra:
        assert np.min(np.linalg.norm(vertices - corner, axis=1)) <= 1e-9


def test_limit_region_membership():
    assert limit_region_contains("JPOW", 3, [1 / 3, 1 / 3, 1 / 3])
    assert limit_region_contains("JPOW", 4, [3 / 8, 3 / 8, 0.0])
    assert not limit_region_contains("JPOW", 4, [0.01, 0.01, 0.01])  # below the curved sheet
    assert not limit_region_contains("ANTICOMM", 4, [0.5, 0.5, 0.5])
    assert limit_region_contains("ANTICOMM", 3, [0.5, 0.25, 0.25])
    assert limit_region_contains("JPOW", 1, [0.5, 0.5, 0.5])
    assert not limit_region_contains("JPOW", 1, [0.7, 0.7, 0.7])


def test_limit_region_roman_hull_membership():
    # clear interior and exterior probes; the boundary itself is tested below
    assert limit_region_contains("ANTICOMM", 1, [0.0, 0.0, 0.0])
    assert limit_region_contains("ANTICOMM", 1, [0.6, 0.6, 0.6])
    assert limit_region_contains("ANTICOMM", 1, [0.99, 0.0, 0.0])
    assert not limit_region_contains("ANTICOMM", 1, [0.9, 0.9, 0.9])
    assert not limit_region_contains("ANTICOMM", 1, [0.7, 0.7, 0.7])
    for bad in ([math.nan, 0.0, 0.0], [0.1, 0.1, math.nan], [math.inf, 0.0, 0.0], [0.0, 0.0, -math.inf]):
        assert not limit_region_contains("ANTICOMM", 1, bad)


def test_limit_region_roman_hull_honours_tol(monkeypatch):
    # walk out along a ray to the hull boundary, then step 1e-6 past it
    ray = np.array([1.0, 2.0, 3.0]) / math.sqrt(14.0)
    lo, hi = 0.0, 2.0
    for _ in range(60):
        mid = (lo + hi) / 2.0
        if limit_region_contains("ANTICOMM", 1, mid * ray):
            lo = mid
        else:
            hi = mid
    past = (hi + 1e-6) * ray
    assert not limit_region_contains("ANTICOMM", 1, past)
    monkeypatch.setattr(definetti, "LIMIT_REGION_TOL", 1e-5)
    assert limit_region_contains("ANTICOMM", 1, past)


def _roman_matrix(eta) -> np.ndarray:
    """M(eta), whose lambda_max is the Roman-hull support function in direction eta."""
    return np.array([[0.0, eta[2], eta[0]], [eta[2], 0.0, eta[1]], [eta[0], eta[1], 0.0]])


def test_limit_region_roman_hull_exact_boundary():
    # the top eigenvector v of M(eta) is a real pure state touching the
    # supporting plane eta . p = lambda_max(M(eta)); 1e-7 past it is outside
    rng = np.random.default_rng(7)
    for _ in range(500):
        eta = rng.normal(size=3)
        eta /= np.linalg.norm(eta)
        v = np.linalg.eigh(_roman_matrix(eta))[1][:, -1]
        p = np.array([2 * v[0] * v[2], 2 * v[1] * v[2], 2 * v[0] * v[1]])
        assert limit_region_contains("ANTICOMM", 1, p)
        assert not limit_region_contains("ANTICOMM", 1, p + 1e-7 * eta)


# a band past the 90x180 sampled hull's worst support error: lambda_max(M(eta))
# exceeds the sample's support by at most 9.2e-4, reached near eta = +-z, so a
# point farther than the band outside the sampled hull is outside the true
# region, and one farther inside is inside
ROMAN_ORACLE_BAND = 1e-3


def test_limit_region_roman_hull_matches_sampled_oracle():
    from scipy.spatial import ConvexHull

    samples = surface_anticomm(1, 90, 180).points
    eq = ConvexHull(samples).equations
    rng = np.random.default_rng(8)
    # the oracle's band really covers its support error, checked on random directions
    for _ in range(200):
        eta = rng.normal(size=3)
        eta /= np.linalg.norm(eta)
        gap = np.linalg.eigvalsh(_roman_matrix(eta))[-1] - float(np.max(samples @ eta))
        assert -1e-12 <= gap <= ROMAN_ORACLE_BAND
    points = rng.uniform(-1.1, 1.1, size=(4000, 3))
    distance = np.max(points @ eq[:, :3].T + eq[:, 3], axis=1)  # signed, unit facet normals
    clear = np.abs(distance) > ROMAN_ORACLE_BAND
    assert clear.sum() > 3900
    for p, d in zip(points[clear], distance[clear]):
        assert limit_region_contains("ANTICOMM", 1, p) == (d < 0), (p, d)


def test_limit_region_unsupported():
    with pytest.raises(UnsupportedFamily):
        limit_region_contains("ANTICOMM", 2, [0.1, 0.1, 0.1])
    with pytest.raises(UnsupportedFamily):
        limit_region_contains("OTHER", 3, [0.0, 0.0, 0.0])


@pytest.mark.parametrize(
    "family, gamma",
    [("JPOW", 0), ("JPOW", -1), ("JPOW", -2), ("ANTICOMM", 0), ("ANTICOMM", -1)],
    ids=["jpow0", "jpow-1", "jpow-2", "anticomm0", "anticomm-1"],
)
def test_limit_region_rejects_gamma_below_one(family, gamma):
    """gamma = 0 used to divide by zero (JPOW) or name gamma=2 (ANTICOMM); negative JPOW gammas returned True."""
    with pytest.raises(GammaOutOfRange, match=f"got {gamma}"):
        limit_region_contains(family, gamma, [0.1, 0.1, 0.1])


@pytest.mark.parametrize(
    "call",
    [
        lambda: limit_region_contains("JPOW", 3, [0.1, 0.1]),
        lambda: limit_region_contains("JPOW", 1, [2.0]),
        lambda: limit_region_contains("ANTICOMM", 1, [0.1, 0.1]),
        lambda: limit_region_contains("ANTICOMM", 3, [[0.1, 0.1, 0.1]]),
        lambda: g_region_contains(2, [0.1, 0.1]),
        lambda: g_region_contains(math.inf, [0.1, 0.1, 0.1, 0.1]),
    ],
    ids=["jpow3-2d", "jpow1-1d", "anticomm1-2d", "anticomm3-row", "g2-2d", "ginf-4d"],
)
def test_limit_regions_reject_wrong_shape(call):
    with pytest.raises(DimensionMismatch):
        call()


def test_g_region_sphere_boundary():
    rng = np.random.default_rng(6)
    for _ in range(50):
        r = rng.normal(size=3)
        r /= np.linalg.norm(r)
        total = sum((SQ3 * float(d.eta @ r)) ** 2 for d in diag_directions())
        assert abs(total - 4.0) <= 1e-10
        assert g_region_contains(1, r)
        assert not g_region_contains(1, r * 1.001)


@pytest.mark.parametrize("vartheta", [0.5, 1.5, 0, -1, -math.inf, math.nan])
def test_g_region_rejects_non_integer_theta(vartheta):
    # truncating theta = 0.5 to power 0 would count every point inside
    with pytest.raises(ValueError):
        g_region_contains(vartheta, [0.0, 0.0, 100.0])


def test_g_region_octahedron_and_interior():
    assert g_region_contains(math.inf, [1.0, 0.0, 0.0])
    assert g_region_contains(math.inf, [0.0, -1.0, 0.0])
    assert not g_region_contains(2, np.array([1.0, 1.0, 1.0]) / SQ3 * 1.01)
    for vt in (1, 2, 3, math.inf):
        assert g_region_contains(vt, [0.99, 0.0, 0.0])


def test_convergence_am_endpoint():
    series = convergence_sweep("ANTICOMM", 1, [HalfInt(100)], "AM")
    assert series[0][1] == pytest.approx(0.991733, abs=1e-5)


def test_convergence_lmax_eta1_jpow():
    series = convergence_sweep("JPOW", 3, [HalfInt(20)], "LMAX_ETA1")
    assert series[0][1] == pytest.approx(0.586116, abs=1e-5)


def test_convergence_mean_eta1():
    series = convergence_sweep("ANTICOMM", 1, [HalfInt(100)], "MEAN_ETA1")
    assert series[0][1] == pytest.approx(0.665502, abs=1e-5)


def test_convergence_mean_eta1_rejects_a_zero_operator():
    """At j = 1/2 the Pauli matrices anticommute, so every anticommutator is 0 and has no mean to normalize."""
    with pytest.raises(UnsupportedJ, match="zero"):
        convergence_sweep("ANTICOMM", 1, [HalfInt(1)], "MEAN_ETA1")


def test_convergence_am_to_limits():
    # gamma = 1 climbs monotonically within each parity class; higher powers
    # overshoot their limit and return, so only convergence is asserted there
    twices = list(range(3, 31)) + [50, 52, 100]
    series = convergence_sweep("ANTICOMM", 1, [HalfInt(t) for t in twices], "AM")
    by_parity = {0: [], 1: []}
    for j, val in series:
        assert val <= 1.0 + 1e-9
        by_parity[j.twice % 2].append(val)
    for seq in by_parity.values():
        for prev, cur in zip(seq, seq[1:]):
            assert cur >= prev - 1e-12
    assert abs(series[-1][1] - 1.0) <= 0.02

    gammas = (1, 2, 3, 4, 5, 6) if CI_LONG else (1, 2, 3, 6)
    for gamma in gammas:
        limit = 1.0 / 2.0 ** (gamma - 1)
        pairs = convergence_sweep("ANTICOMM", gamma, [HalfInt(16), HalfInt(100)], "AM")
        early, final = pairs[0][1], pairs[1][1]
        assert abs(final - limit) <= abs(early - limit) + 1e-12
        assert abs(final - limit) <= 0.03 * limit


def test_convergence_am_min_even_power():
    # the minimum eigenvalue is negative and crawls up toward zero
    series = convergence_sweep("ANTICOMM", 2, [HalfInt(8), HalfInt(40)], "AM_MIN")
    assert series[0][1] < 0 and series[1][1] < 0
    assert abs(series[1][1]) < abs(series[0][1])
    series_l = convergence_sweep("ANTICOMM", 1, [HalfInt(20)], "LMIN_ETA1")
    assert series_l[0][1] < 0
