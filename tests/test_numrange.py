import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings, strategies as st

import oracles
from conftest import anticomm_sum_pair, direct_sum
from oracles import NotCommuting, cluster_compressions, commuting_polytope, expectations, membership_reference
from specrange import linalg, numrange
from specrange.errors import DimensionMismatch, NoConvergence, NonFinite, NonHermitian
from specrange.linalg import HermObservable, combine_matrix, eig_hermitian, make_hermitian
from specrange.numrange import (
    Direction,
    boundary2d,
    boundary3d,
    convex_hull,
    diag_directions,
    direction2,
    direction3,
    face,
    hyperrect,
    membership,
    sign_image,
    split_grid,
    support,
    sweep_directions,
)
from specrange.spinops import (
    HalfInt,
    ObservableVec,
    angular_momentum,
    anticomm_vec,
    j_triple,
    jsq_pair,
    ladder_combo,
    power_vec,
    rotate_frame,
    scale_uniform,
)

SQ3 = math.sqrt(3.0)


def match_point_sets(a, b, tol):
    a, b = np.asarray(a), np.asarray(b)
    assert len(a) == len(b)
    for p in a:
        assert np.min(np.linalg.norm(b - p, axis=1)) <= tol
    for p in b:
        assert np.min(np.linalg.norm(a - p, axis=1)) <= tol


# --- support ---------------------------------------------------------------


def test_support_spin_triple_any_direction():
    vec = j_triple(HalfInt(5))
    for theta, phi in ((0.3, 1.0), (1.2, 4.0), (2.6, 0.2)):
        sf = support(vec, direction3(theta, phi))
        assert sf.lambda_max == pytest.approx(2.5, abs=1e-10)
        assert sf.multiplicity == 1


def test_support_ladder_degenerate():
    vec = ladder_combo(HalfInt(3), 2)
    for phi in (0.0, 0.9, 4.4):
        sf = support(vec, direction2(phi))
        assert sf.lambda_max == pytest.approx(2 * SQ3, abs=1e-10)
        assert sf.multiplicity == 2


def test_support_anticomm_diagonal_direction():
    vec = anticomm_vec(HalfInt(2), 1)
    sf = support(vec, diag_directions()[0])
    assert sf.lambda_max == pytest.approx(1 / SQ3, abs=1e-10)
    assert sf.multiplicity == 2


def test_support_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        support(jsq_pair(HalfInt(3)), direction3(0.1, 0.2))


SUPPORT_FAMILIES = [
    j_triple,
    *(lambda j, g=g: power_vec(j, g) for g in (1, 2, 3, 4)),
    jsq_pair,
    *(lambda j, g=g: ladder_combo(j, g) for g in (1, 2, 3)),
    *(lambda j, g=g: anticomm_vec(j, g) for g in (1, 2, 3)),
]


def reference_directions(n: int):
    """24 seeded directions, the diagonals (body diagonals for n = 3) and the axes."""
    rng = np.random.default_rng(23)
    if n == 2:
        phis = [*rng.uniform(0.0, 2 * math.pi, 24), *(math.pi / 4 + k * math.pi / 2 for k in range(4))]
        phis += [k * math.pi / 2 for k in range(4)]
        return [direction2(float(p)) for p in phis]
    dirs = []
    for x, y, z in rng.normal(size=(24, 3)):
        r = math.sqrt(x * x + y * y + z * z)
        dirs.append(direction3(math.acos(z / r), math.atan2(y, x)))
    axes = [direction3(0.0, 0.0), direction3(math.pi, 0.0)]
    axes += [direction3(math.pi / 2, k * math.pi / 2) for k in range(4)]
    return dirs + diag_directions() + axes


@pytest.mark.parametrize("twice", [0, 1, 3, 10, 40])
@pytest.mark.parametrize("family", range(len(SUPPORT_FAMILIES)))
def test_support_matches_dense_reference(family, twice):
    """The blocked top cluster against a full dense eigh of eta.A.

    lambda_max and the gap agree to the backward-error bound of both solvers,
    1e-12 * max(1, |lambda|, |eta.A|_2); multiplicities are equal; the
    cluster's projector agrees to 1e-8 wherever the gap below it exceeds
    1e-6 * max(1, |eta.A|_2). A projector moves by up to about
    eps * |eta.A|_2 / gap under either solver's backward error, so an absolute
    gap floor would not do: anticomm gamma = 2 at j = 20 has a seeded direction
    with |eta.A|_2 = 7.7e4 and gap 8.4e-4, where the two projectors differ by
    1.0e-8 and each is within 1.1e-8 of a 40-digit one.
    """
    vec = SUPPORT_FAMILIES[family](HalfInt(twice))
    for direction in reference_directions(vec.n):
        sf = support(vec, direction)
        mat = sum(c * m for c, m in zip(direction.eta, vec.mats))
        values, vectors = np.linalg.eigh(mat)
        lam = float(values[-1])
        radius = float(np.linalg.norm(mat, 2))
        tol = 1e-12 * max(1.0, abs(lam), radius)
        mult = int(np.sum(values >= lam - 1e-8 * max(1.0, abs(lam))))
        assert abs(sf.lambda_max - lam) <= tol
        assert sf.multiplicity == mult
        assert sf.eigenbasis.shape == (vec.dim, mult)
        if mult == vec.dim:
            assert sf.gap is None
            continue
        gap = lam - float(values[-mult - 1])
        assert abs(sf.gap - gap) <= 2 * tol
        if gap > 1e-6 * max(1.0, radius):
            top = vectors[:, -mult:]
            diff = sf.eigenbasis @ sf.eigenbasis.conj().T - top @ top.conj().T
            assert float(np.max(np.abs(diff))) <= 1e-8


def test_support_cross_block_doublets_exact():
    """A doublet with one state in each parity block of jsq2d is exact.

    Every top-cluster column lies in one block. When the pair's two states
    lie in different blocks, no operator entry couples them, so the
    compressed operators' off-diagonal entry is exactly zero and no rank cut
    decides the face. At j = 50, 264 of the 349 doublets on 360 steps span
    the two blocks; the other 85 pair two states of one block.
    """
    vec = jsq_pair(HalfInt(100))
    owners = np.zeros(vec.dim, dtype=int)
    for k, block in enumerate(vec.blocks):
        owners[block.index] = k
    cross_block = 0
    for direction in sweep_directions(2, 360):
        sf = support(vec, direction)
        if sf.multiplicity != 2:
            continue
        lift = sf.eigenbasis
        homes = [set(owners[col != 0].tolist()) for col in lift.T]
        assert all(len(home) == 1 for home in homes)
        if homes[0] == homes[1]:
            continue
        cross_block += 1
        for mat in vec.mats:
            b = lift.conj().T @ (mat @ lift)
            b = (b + b.conj().T) / 2.0
            assert b[1, 0] == 0.0
    assert cross_block >= 250


BAD_OPERATORS = [([[0.0, math.inf], [math.inf, 0.0]], NonFinite), ([[0.0, 1.0], [0.0, 0.0]], NonHermitian)]


@pytest.mark.parametrize("solve", [support, face])
@pytest.mark.parametrize("entries, error", BAD_OPERATORS)
def test_support_and_face_reject_bad_operator(solve, entries, error):
    good = angular_momentum(HalfInt(1)).jz
    bad = HermObservable(mat=np.array(entries, dtype=complex), label="bad", eig_min=-1.0, eig_max=1.0)
    vec = ObservableVec(ops=(good, bad))
    with pytest.raises(error):
        solve(vec, direction2(0.3))


@pytest.mark.parametrize("solve", [support, face])
def test_support_and_face_reject_non_finite_direction(solve):
    direction = Direction(eta=np.array([math.nan, 0.0, 1.0]), phi=0.0, theta=0.0)
    with pytest.raises(NonFinite):
        solve(j_triple(HalfInt(2)), direction)


# --- face ------------------------------------------------------------------


def test_face_degenerate_single_point():
    f = face(jsq_pair(HalfInt(3)), direction2(0.0))
    assert f.multiplicity == 2
    assert f.is_point
    assert np.allclose(f.vertices[0], [2.25, 0.75], atol=1e-10)


def test_is_point_follows_the_vertices():
    record = support(jsq_pair(HalfInt(3)), direction2(0.0))
    assert not record.is_point  # no vertices yet
    record.vertices = np.zeros((1, 2))
    assert record.is_point
    record.vertices = np.zeros((2, 2))
    assert not record.is_point


def test_face_segment():
    f = face(jsq_pair(HalfInt(2)), direction2(0.0))
    match_point_sets(f.vertices, [[1.0, 0.0], [1.0, 1.0]], 1e-10)


def test_face_elliptical_fourth_power():
    vec = power_vec(HalfInt(4), 4)
    f = face(vec, diag_directions()[0])
    v = f.vertices
    assert len(v) >= 16
    residual = ((v[:, 0] + v[:, 1] - 16) / 8) ** 2 + ((v[:, 0] - v[:, 1]) / (8 * SQ3)) ** 2 - 1
    assert np.max(np.abs(residual)) <= 1e-7
    assert np.max(np.abs(v.sum(axis=1) - 24)) <= 1e-7


def test_face_vertices_attain_hyperplane():
    cases = [
        (j_triple(HalfInt(4)), direction3(0.7, 1.9)),
        (anticomm_vec(HalfInt(3), 1), direction3(1.1, 0.4)),
        (jsq_pair(HalfInt(5)), direction2(2.0)),
        (power_vec(HalfInt(4), 4), diag_directions()[0]),
    ]
    for vec, d in cases:
        f = face(vec, d)
        for v in f.vertices:
            assert abs(float(d.eta @ v) - f.lambda_max) <= 1e-8 * max(1.0, abs(f.lambda_max))


def test_face_vertices_inside_hyperrect():
    vec = anticomm_vec(HalfInt(4), 1)
    rect = hyperrect(vec)
    f = face(vec, direction3(0.9, 2.0))
    for v in f.vertices:
        for x, lo, hi in zip(v, rect.lo, rect.hi):
            assert lo - 1e-8 <= x <= hi + 1e-8


def _segment_set(n):
    """A = 1e-7 (path-graph adjacency), then B = 0 and C = I for three operators, or C = I for two.

    At deg_tol = 1e-6 every direction near C leaves all of C^3 in the top
    cluster, yet the face at C is the segment x = +-sqrt2 * 1e-7 that A spans.
    """
    a = 1e-7 * np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    mats = [a, np.zeros((3, 3)), np.eye(3)] if n == 3 else [a, np.eye(3)]
    ops = tuple(make_hermitian(m, f"M{i}") for i, m in enumerate(mats))
    return ObservableVec(ops=ops)


@pytest.mark.parametrize("direction", [direction3(0.0, 0.0), direction2(math.pi / 2)], ids=["3d", "2d"])
def test_face_segment_below_deg_tol(direction):
    f = face(_segment_set(direction.n), direction, deg_tol=1e-6)
    end = [math.sqrt(2.0) * 1e-7] + [0.0] * (direction.n - 2) + [1.0]
    match_point_sets(f.vertices, [end, [-end[0], *end[1:]]], 1e-12)
    assert not f.exhausted


def test_face_ring_dense_in_curved_face():
    """jpow gamma=2 at j=3: eta_1 . E is a multiple of I, so the face at eta_1 is a curved 2D set."""
    vec = power_vec(HalfInt(6), 2)
    eta = diag_directions()[0].eta
    f = face(vec, diag_directions()[0])
    v = f.vertices
    assert np.max(np.abs(v @ eta - f.lambda_max)) <= 1e-8 * f.lambda_max
    radius = float(np.max(np.linalg.norm(v - v.mean(axis=0), axis=1)))
    values, vectors = scipy.linalg.eigh(sum(c * m for c, m in zip(eta, vec.mats)))
    top = vectors[:, values >= values[-1] - 1e-8 * abs(values[-1])]
    rng = np.random.default_rng(7)
    for _ in range(24):
        s = rng.normal(size=3)
        s -= (s @ eta) * eta
        s /= np.linalg.norm(s)
        compressed = top.conj().T @ sum(c * m for c, m in zip(s, vec.mats)) @ top
        want = float(scipy.linalg.eigvalsh(compressed)[-1])
        got = float(np.max(v @ s))
        assert got <= want + 1e-9 * radius
        assert want - got <= 5e-3 * radius


@pytest.mark.parametrize(
    "vec",
    [*(jsq_pair(HalfInt(2 * j)) for j in (10, 30, 50)), ladder_combo(HalfInt(4), 2)],
    ids=["jsq2d-10", "jsq2d-30", "jsq2d-50", "ladder-2"],
)
def test_2d_faces_are_points_or_segments(vec):
    """A 2D face has one free direction, so every face, doublets included, is a point or a segment."""
    assert max(len(f.vertices) for f in boundary2d(vec, 360).faces) <= 2


def test_ring_faces_reach_dedupe_with_at_most_two_points_per_ring_direction(monkeypatch):
    """A ring face is INNER_STEPS sub-faces of one free direction each, so at most 2 INNER_STEPS points."""
    sizes = []
    dedupe = numrange._dedupe

    def recorded(points, tol):
        sizes.append(len(points))
        return dedupe(points, tol)

    monkeypatch.setattr(numrange, "_dedupe", recorded)
    face(power_vec(HalfInt(6), 2), diag_directions()[0])
    face(_segment_set(3), direction3(0.0, 0.0), deg_tol=1e-6)
    assert len(sizes) == 2
    assert max(sizes) <= 2 * numrange.INNER_STEPS


def test_ring_table_is_libm_cos_sin():
    """_RING is sweep_directions(2, INNER_STEPS): libm's (cos t, sin t), bit for bit."""
    angles = 2 * math.pi * np.arange(numrange.INNER_STEPS) / numrange.INNER_STEPS
    table = np.array([(math.cos(t), math.sin(t)) for t in angles])
    assert numrange._RING.tobytes() == table.tobytes()


@pytest.mark.parametrize("gamma", [2, 4])
@pytest.mark.parametrize("twice", range(2, 9))
def test_ring_states_realize_their_vertices(gamma, twice):
    """Every state of a body-diagonal face has its vertex's expectations.

    The rings here pass within an ulp of a Bloch pole (jpow gamma = 4, j = 2
    is the worst), where a spinor built from a half angle loses its small
    component: its expectations sat 1e-7 from the vertex.
    """
    vec = power_vec(HalfInt(twice), gamma)
    for d in diag_directions():
        records, compressed = cluster_compressions(vec, [d])
        [(coords, states)] = numrange._cluster_faces(compressed[0][None], d.eta[None, None], numrange.DEG_TOL_DEFAULT)
        for vertex, psi in zip(coords, (records[0].eigenbasis @ states).T):
            err = float(np.max(np.abs(expectations(vec.mats, psi) - vertex)))
            assert err <= 1e-12 * max(1.0, float(np.linalg.norm(vertex)))


# --- boundary2d ------------------------------------------------------------


def hull_of(boundary):
    return convex_hull(boundary.all_vertices())


def test_boundary2d_point_region():
    hull = hull_of(boundary2d(jsq_pair(HalfInt(1)), steps=16))
    assert hull.shape == (1, 2)
    assert np.allclose(hull[0], [0.25, 0.25], atol=1e-12)


def test_boundary2d_triangle():
    b = boundary2d(jsq_pair(HalfInt(2)), steps=360)
    match_point_sets(hull_of(b), [[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]], 1e-10)


def test_boundary2d_ellipse_constraint():
    b = boundary2d(jsq_pair(HalfInt(3)), steps=360)
    v = hull_of(b)
    residual = (v[:, 0] + v[:, 1] - 2.5) ** 2 + (v[:, 0] - v[:, 1]) ** 2 / 3.0 - 1.0
    assert np.max(np.abs(residual)) <= 1e-8


def test_boundary2d_hull_convex():
    for vec in (jsq_pair(HalfInt(4)), ladder_combo(HalfInt(4), 2)):
        hull = hull_of(boundary2d(vec, steps=180))
        n = len(hull)
        scale = max(1.0, float(np.max(np.abs(hull))))
        for i in range(n):
            o, a, b = hull[i], hull[(i + 1) % n], hull[(i + 2) % n]
            cross = (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])
            assert cross >= -1e-10 * scale * scale


def test_boundary2d_hull_subset_of_samples():
    b = boundary2d(jsq_pair(HalfInt(5)), steps=90)
    allv = b.all_vertices()
    for h in hull_of(b):
        assert np.min(np.linalg.norm(allv - h, axis=1)) <= 1e-12


# --- boundary3d ------------------------------------------------------------


def test_mesh_spin_triple_is_sphere():
    j = HalfInt(4)
    mesh = boundary3d(j_triple(j), 12, 24)
    v = mesh.all_vertices()
    assert np.max(np.abs(np.linalg.norm(v, axis=1) - 2.0)) <= 1e-8


@pytest.mark.parametrize("twice,radius", [(3, SQ3), (4, math.sqrt(12.0))])
def test_mesh_anticomm_spheres(twice, radius):
    mesh = boundary3d(anticomm_vec(HalfInt(twice), 1), 12, 24)
    v = mesh.all_vertices()
    assert np.max(np.abs(np.linalg.norm(v, axis=1) - radius)) <= 1e-8


def test_mesh_faces_on_their_hyperplanes():
    mesh = boundary3d(anticomm_vec(HalfInt(2), 1), 8, 16)
    # every face's vertex mean satisfies its own face hyperplane
    for f in mesh.faces:
        rep = f.vertices.mean(axis=0)
        assert abs(float(f.direction.eta @ rep) - f.lambda_max) <= 1e-8


@pytest.mark.parametrize("grid", [(4, 8), (5, 9), (12, 24)], ids=str)
def test_split_grid_is_the_sweep_layout(grid):
    """split_grid gives the poles and the (K-1, K') rows of sweep_directions: one theta a row, phi ascending."""
    K, Kp = grid
    angles = np.array([(d.theta, d.phi) for d in sweep_directions(3, grid)])
    north, rows, south = split_grid(angles, grid)
    assert north.tolist() == [0.0, 0.0] and south.tolist() == [math.pi, 0.0]
    assert rows.shape == (K - 1, Kp, 2)
    assert np.allclose(rows[:, :, 0], np.arange(1, K)[:, None] * math.pi / K, rtol=0.0, atol=1e-15)
    assert np.allclose(rows[:, :, 1], np.arange(Kp) * 2 * math.pi / Kp, rtol=0.0, atol=1e-15)


def test_antipodal_symmetry():
    rng = np.random.default_rng(5)
    for vec in (anticomm_vec(HalfInt(3), 1), power_vec(HalfInt(4), 3)):
        for _ in range(6):
            theta = rng.uniform(0, math.pi)
            phi = rng.uniform(0, 2 * math.pi)
            lam = support(vec, direction3(theta, phi)).lambda_max
            spec = eig_hermitian(combine_matrix(direction3(theta, phi).eta, vec.mats))
            anti = support(
                vec, direction3(math.pi - theta, (math.pi + phi) % (2 * math.pi))
            ).lambda_max
            assert abs(anti + float(spec.values[0])) <= 1e-9 * max(1.0, abs(anti))


def test_random_states_respect_support():
    rng = np.random.default_rng(17)
    vec = j_triple(HalfInt(2))
    d = vec.dim
    dirs = [direction3(t, p) for t in np.linspace(0.1, math.pi - 0.1, 8) for p in np.linspace(0, 2 * math.pi, 12, endpoint=False)]
    lams = [support(vec, dd).lambda_max for dd in dirs]
    for _ in range(1000):
        kets = rng.normal(size=(3, d)) + 1j * rng.normal(size=(3, d))
        weights = rng.dirichlet(np.ones(3))
        rho = sum(
            w * np.outer(k, k.conj()) / float(np.linalg.norm(k)) ** 2
            for w, k in zip(weights, kets)
        )
        means = np.array([float(np.real(np.trace(rho @ m))) for m in vec.mats])
        for dd, lam in zip(dirs, lams):
            assert float(dd.eta @ means) <= lam + 1e-8


# --- hyperrect, membership -------------------------------------------------


def test_hyperrect_values():
    r = hyperrect(jsq_pair(HalfInt(4)))
    assert np.allclose(r.lo, [0.0, 0.0], atol=1e-10)
    assert np.allclose(r.hi, [4.0, 4.0], atol=1e-10)
    r = hyperrect(jsq_pair(HalfInt(3)))
    assert np.allclose(r.lo, [0.25, 0.25], atol=1e-10)
    assert np.allclose(r.hi, [2.25, 2.25], atol=1e-10)
    r = hyperrect(anticomm_vec(HalfInt(3), 1))
    assert np.allclose(r.lo, [-SQ3] * 3, atol=1e-10)
    assert np.allclose(r.hi, [SQ3] * 3, atol=1e-10)


def test_membership_margins():
    vec = j_triple(HalfInt(2))
    assert membership(vec, [0.0, 0.0, 0.0], (12, 24)) == pytest.approx(1.0, abs=1e-9)
    # grid never contains the exact diagonal direction, so the certified
    # margin approaches 1 - sqrt(3) only at grid resolution
    outside = membership(vec, [1.0, 1.0, 1.0], (24, 48))
    assert outside == pytest.approx(1.0 - SQ3, abs=2e-2)
    assert outside < 0
    margin = membership(jsq_pair(HalfInt(4)), [4.0, 1.0], 360)
    assert abs(margin) <= 1e-9


# 3D grids that would sweep only the poles or a few directions, a 2D grid of
# no directions, and grids of the other dimension's shape
BAD_GRIDS = [(3, (0, 0)), (3, (1, 1)), (3, (2, 3)), (2, 0), (2, (12, 24)), (3, 24)]


@pytest.mark.parametrize("n, grid", BAD_GRIDS, ids=str)
def test_bad_grid_raises_value_error(n, grid):
    """membership and the sweeps share sweep_directions' one grid check."""
    vec = anticomm_vec(HalfInt(4), 1) if n == 3 else jsq_pair(HalfInt(4))
    with pytest.raises(ValueError, match="grid"):
        membership(vec, np.full(n, 100.0), grid)
    if n == 3 and not isinstance(grid, tuple):
        return  # boundary3d takes its grid as two counts
    with pytest.raises(ValueError, match="grid"):
        boundary2d(vec, grid) if n == 2 else boundary3d(vec, *grid)


@pytest.mark.parametrize("entries, error", BAD_OPERATORS)
def test_membership_rejects_bad_operator(entries, error):
    good = angular_momentum(HalfInt(1)).jz
    bad = HermObservable(mat=np.array(entries, dtype=complex), label="bad", eig_min=-1.0, eig_max=1.0)
    vec = ObservableVec(ops=(good, bad))
    with pytest.raises(error):
        membership(vec, [0.0, 0.0], 12)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_membership_rejects_non_finite_point(bad):
    with pytest.raises(NonFinite):
        membership(j_triple(HalfInt(2)), [bad, 0.0, 0.0], (12, 24))


# --- the sign group: the grid image and membership over orbits ----------------

# the grid's angles are rounded at up to 2 pi, so a reflected direction and
# the grid direction it maps to agree to a few ulps of 2 pi
IMAGE_TOL = 4 * np.spacing(2 * math.pi)


def check_image(n, grid, signs):
    """sign_image is an involution onto S eta_k, or the identity exactly when S is not grid-aligned."""
    etas = np.array([d.eta for d in sweep_directions(n, grid)])
    image = sign_image(grid, signs)
    index = np.arange(len(etas))
    steps = grid[1] if n == 3 else grid
    aligned = not (signs[0] < 0 and steps % 2)
    assert np.array_equal(image, index) == (not aligned or all(s == 1 for s in signs))
    if aligned:
        assert np.array_equal(image[image], index)
        assert np.max(np.abs(etas[image] - etas * np.array(signs))) <= IMAGE_TOL


SIGNS3 = [(a, b, c) for a in (1, -1) for b in (1, -1) for c in (1, -1)]
SIGNS2 = [(a, b) for a in (1, -1) for b in (1, -1)]


@pytest.mark.parametrize("parity", [0, 1])
@pytest.mark.parametrize("signs", SIGNS3, ids=str)
@given(st.integers(min_value=4, max_value=40), st.integers(min_value=8, max_value=80))
@settings(max_examples=30, deadline=None)
def test_reversal_image_3d(signs, parity, theta_steps, phi_steps):
    assume(phi_steps % 2 == parity)
    check_image(3, (theta_steps, phi_steps), signs)


@pytest.mark.parametrize("parity", [0, 1])
@pytest.mark.parametrize("signs", SIGNS2, ids=str)
@given(st.integers(min_value=8, max_value=80))
@settings(max_examples=30, deadline=None)
def test_reversal_image_2d(signs, parity, steps):
    assume(steps % 2 == parity)
    check_image(2, steps, signs)


# (label, vector, grid, whether the group is trivial, so that no direction shares a value)
MEMBERSHIP_SETS = [
    ("j 5/2", j_triple(HalfInt(5)), (12, 24), False),
    ("j 2 odd phi", j_triple(HalfInt(4)), (7, 15), False),
    *((f"jpow{g} 7/2", power_vec(HalfInt(7), g), (12, 24), g == 2) for g in (1, 2, 3)),
    *((f"anticomm 1 j={HalfInt(t)}", anticomm_vec(HalfInt(t), 1), (12, 24), t == 1) for t in (1, 3, 4, 40)),
    ("anticomm 2 j=3", anticomm_vec(HalfInt(6), 2), (12, 24), True),
    *((f"ladder{g} 5/2", ladder_combo(HalfInt(5), g), 36, False) for g in (1, 2)),
    ("ladder1 3 odd", ladder_combo(HalfInt(6), 1), 45, False),
    ("jsq2d 3", jsq_pair(HalfInt(6)), 360, True),
    ("rotated j 5/2", rotate_frame(j_triple(HalfInt(5)), 0.7, 2.1), (12, 24), True),
]


def membership_points(vec, rng):
    """Seeded mean vectors: three of random states, three on the boundary, three outside it."""
    mats = vec.mats
    ends, _ = vec.spectral_ends
    scale = max(1.0, float(np.abs(ends).max()))
    points = []
    for kind in ("inside", "boundary", "outside"):
        for _ in range(3):
            eta = rng.normal(size=vec.n)
            eta /= np.linalg.norm(eta)
            values, vectors = np.linalg.eigh(combine_matrix(eta, mats))
            psi = vectors[:, -1]
            if kind == "inside":
                psi = rng.normal(size=vec.dim) + 1j * rng.normal(size=vec.dim)
                psi /= np.linalg.norm(psi)
            if kind == "outside":
                points.append(eta * (values[-1] + rng.uniform(0.01, 0.5) * scale))
            else:
                points.append(np.array([float(np.real(psi.conj() @ (m @ psi))) for m in mats]))
    return points, scale


@pytest.mark.parametrize("label, vec, grid, trivial", MEMBERSHIP_SETS, ids=[c[0] for c in MEMBERSHIP_SETS])
def test_membership_matches_the_full_grid_oracle(label, vec, grid, trivial):
    assert trivial == (len(vec.sign_group) == 1)
    points, scale = membership_points(vec, np.random.default_rng(17))
    for r in points:
        got, want = membership(vec, r, grid), membership_reference(vec, r, grid)
        if trivial:
            assert got == want
        else:
            assert abs(got - want) <= 1e-12 * scale


def test_membership_solves_one_direction_per_pair(monkeypatch):
    """One solve per orbit of the sign group on 12x24: 68 of 266 for anticomm (order 4), 43 for J and jpow 3 (order 8).

    jsq2d's group is the identity alone, so every direction of its ring is solved.
    """
    rows = []
    solve = numrange.block_top_eigenvalues

    def counted(coeffs, blocks):
        rows.append(len(coeffs))
        return solve(coeffs, blocks)

    monkeypatch.setattr(numrange, "block_top_eigenvalues", counted)
    membership(anticomm_vec(HalfInt(40), 1), [0.0, 0.0, 0.0], (12, 24))
    membership(j_triple(HalfInt(5)), [0.0, 0.0, 0.0], (12, 24))
    membership(power_vec(HalfInt(7), 3), [0.0, 0.0, 0.0], (12, 24))
    membership(jsq_pair(HalfInt(6)), [0.0, 0.0], 360)
    assert rows == [68, 43, 43, 360]


def recorded_band_top(monkeypatch, module):
    """Replace module.band_top with a wrapper; returns the list of each call's (band length, k, vectors)."""
    calls = []
    solve = module.band_top

    def recorded(band, k, vectors=True):
        calls.append((band.shape[-1], k, vectors))
        return solve(band, k, vectors)

    monkeypatch.setattr(module, "band_top", recorded)
    return calls


@pytest.mark.parametrize(
    "vec, grid",
    [
        (anticomm_vec(HalfInt(40), 1), (12, 24)),  # one block, d = 41: a doublet on top in most directions
        (anticomm_vec(HalfInt(21), 1), (12, 24)),  # one Kramers block: two requested all the same
        (jsq_pair(HalfInt(21)), 36),  # two blocks of 11
        (ladder_combo(HalfInt(6), 9), 36),  # the null pair: seven blocks of one position
    ],
    ids=["anticomm-40", "anticomm-21", "jsq2d-21", "ladder-null-6"],
)
def test_membership_asks_every_block_for_its_top_two_values(monkeypatch, vec, grid):
    """One request per (orbit direction, block), for min(2, size) values and no vectors."""
    calls = recorded_band_top(monkeypatch, linalg)
    membership(vec, np.zeros(vec.n), grid)
    _, solved, _ = numrange._grid_orbits(vec.n, grid, vec.sign_group)
    assert sorted(calls) == sorted((b.size, min(2, b.size), False) for b in vec.blocks for _ in solved)


@pytest.mark.parametrize(
    "vec, first",
    [
        (anticomm_vec(HalfInt(21), 1), [4]),  # Kramers-closed: every level a pair
        (anticomm_vec(HalfInt(3), 1), [4]),  # d = 4: the whole block
        (anticomm_vec(HalfInt(20), 1), [2]),  # odd d
        (anticomm_sum_pair(HalfInt(21)), [4]),  # Theta alone fixes the pair
        (jsq_pair(HalfInt(21)), [2, 2]),  # levels paired across the two blocks
        (power_vec(HalfInt(21), 2), [2, 2]),
        (j_triple(HalfInt(21)), [2]),  # Theta flips every operator
    ],
    ids=["anticomm-21", "anticomm-3", "anticomm-20", "anticomm-pair-21", "jsq2d-21", "jpow2-21", "J-21"],
)
def test_solve_starts_a_kramers_block_at_four(monkeypatch, vec, first):
    """_solve's first request is min(4, size) values on a Kramers-closed block and min(2, size) elsewhere.

    The first requests are every block's, direction by direction; only
    re-solves come after them, each asking for more than the block's first.
    """
    calls = recorded_band_top(monkeypatch, numrange)
    directions = sweep_directions(vec.n, 24 if vec.n == 2 else (6, 12))
    records = numrange.faces(vec, directions)
    count = len(directions)
    assert calls[: count * len(first)] == [(b.size, k, True) for k, b in zip(first, vec.blocks) for _ in range(count)]
    resolved = calls[count * len(first) :]
    assert all(k > min(first) for _, k, _ in resolved)
    if first == [4] and vec.blocks[0].size > 4:  # a Kramers block's top pair no longer forces a re-solve
        assert not resolved and all(sf.multiplicity == 2 for sf in records)


def test_membership_builds_each_grid_once(monkeypatch):
    """Repeated queries build a grid's directions and orbits once per (grid, group), read-only; bad grids raise every time."""
    built = []
    build = numrange.sweep_directions

    def counted(n, grid):
        built.append((n, grid))
        return build(n, grid)

    monkeypatch.setattr(numrange, "sweep_directions", counted)
    numrange._grid_orbits.cache_clear()
    vec = anticomm_vec(HalfInt(4), 1)
    margins = [membership(vec, [0.1, 0.2, 0.3], (12, 24)) for _ in range(3)]
    margins.append(membership(vec, [0.1, 0.2, 0.3], (np.int64(12), 24)))
    membership(vec, [0.1, 0.2, 0.3], (13, 24))
    membership(j_triple(HalfInt(4)), [0.1, 0.2, 0.3], (12, 24))  # same grid, another group
    membership(j_triple(HalfInt(6)), [0.1, 0.2, 0.3], (12, 24))  # same grid and group
    assert built == [(3, (12, 24)), (3, (13, 24)), (3, (12, 24))]
    assert len(set(margins)) == 1
    assert numrange._grid_orbits.cache_info().misses == 3
    for group in (vec.sign_group, j_triple(HalfInt(4)).sign_group):
        assert not any(array.flags.writeable for array in numrange._grid_orbits(3, (12, 24), group))
    for bad in [(12.0, 24), [12, 24], (3, 24)] * 2:
        with pytest.raises(ValueError, match="grid"):
            membership(vec, [0.1, 0.2, 0.3], bad)
    numrange._grid_orbits.cache_clear()


# --- commuting polytope ----------------------------------------------------


def test_commuting_polytope_triangle():
    hull = commuting_polytope(jsq_pair(HalfInt(2)))
    match_point_sets(hull, [[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]], 1e-10)


def test_commuting_polytope_rejects_noncommuting():
    with pytest.raises(NotCommuting):
        commuting_polytope(jsq_pair(HalfInt(4)))


def test_commuting_polytope_rejects_an_unconverged_basis(monkeypatch):
    """A basis that diagonalizes no combination raises instead of being used."""

    def identity_basis(mat):
        return dataclasses.replace(eig_hermitian(mat), vectors=np.eye(len(mat)))

    monkeypatch.setattr(oracles, "eig_hermitian", identity_basis)
    with pytest.raises(NoConvergence):
        commuting_polytope(jsq_pair(HalfInt(2)))


def test_commuting_polytope_coplanar_set():
    j = HalfInt(3)
    jz = angular_momentum(j).jz
    zsq = make_hermitian(jz.mat @ jz.mat, "Jz^2")
    poly = commuting_polytope(ObservableVec(ops=(jz, jz, zsq)))
    m = np.array([1.5, 0.5, -0.5, -1.5])
    match_point_sets(poly, np.column_stack([m, m, m * m]), 1e-10)


def test_commuting_polytope_diagonal_pair():
    j = HalfInt(2)
    ops = angular_momentum(j)
    zsq = make_hermitian(ops.jz.mat @ ops.jz.mat, "Jz^2")
    vec = ObservableVec(ops=(ops.jz, zsq))
    hull = commuting_polytope(vec)
    match_point_sets(hull, [[1.0, 1.0], [0.0, 0.0], [-1.0, 1.0]], 1e-10)


@pytest.mark.parametrize("case", ["jsq1", "jz_pair", "jx_pair"])
def test_commuting_polytope_matches_sweep(case):
    if case == "jsq1":
        vec = jsq_pair(HalfInt(2))
    elif case == "jz_pair":
        j = HalfInt(2)
        ops = angular_momentum(j)
        zsq = make_hermitian(ops.jz.mat @ ops.jz.mat, "Jz^2")
        vec = ObservableVec(ops=(ops.jz, zsq))
    else:
        j = HalfInt(3)
        ops = angular_momentum(j)
        xsq = make_hermitian(ops.jx.mat @ ops.jx.mat, "Jx^2")
        vec = ObservableVec(ops=(ops.jx, xsq))
    poly = commuting_polytope(vec)
    swept = hull_of(boundary2d(vec, steps=360))
    match_point_sets(poly, swept, 1e-8)


def test_commuting_polytope_of_a_collinear_triple_is_its_two_ends():
    """(Jz, Jz, Jz) at j = 1 lies on a line, as (Jz, Jz) does: both give the two ends, not the middle eigenpoint."""
    j = HalfInt(2)
    jz = angular_momentum(j).jz
    for ops in ((jz, jz, jz), (jz, jz)):
        poly = commuting_polytope(ObservableVec(ops=ops))
        assert poly.tolist() == [[-1.0] * len(ops), [1.0] * len(ops)]


def test_commuting_polytope_of_a_flat_triple_drops_its_interior_point():
    """A = diag(0, 1, 0, 1/4), B = diag(0, 0, 1, 1/4), C = 0: the eigenpoint (1/4, 1/4, 0) is inside the triangle."""
    diagonals = {"A": [0.0, 1.0, 0.0, 0.25], "B": [0.0, 0.0, 1.0, 0.25], "C": [0.0] * 4}
    ops = tuple(make_hermitian(np.diag(d).astype(complex), label) for label, d in diagonals.items())
    poly = commuting_polytope(ObservableVec(ops=ops))
    match_point_sets(poly, [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], 1e-12)


# --- convex hull -----------------------------------------------------------


def test_convex_hull_2d_runs_counter_clockwise_from_the_lowest_leftmost_vertex():
    square = [[1.0, 1.0], [0.0, 1.0], [1.0, 0.0], [0.5, 0.5], [0.0, 0.0], [0.5, 0.0]]
    assert convex_hull(np.array(square)).tolist() == [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
    hull = hull_of(boundary2d(jsq_pair(HalfInt(5)), steps=90))
    assert hull[0].tolist() == min(hull.tolist())
    edges = np.roll(hull, -1, axis=0) - hull
    after = np.roll(edges, -1, axis=0)
    turns = edges[:, 0] * after[:, 1] - edges[:, 1] * after[:, 0]
    assert len(hull) > 3 and np.all(turns > 0.0)


def test_convex_hull_merges_near_duplicate_points():
    """Points within 1e-9 of the scale merge into the first one given; each corner sits mid-cell."""
    corners = 0.1 + 0.5e-9 + 0.75 * np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    cloud = np.vstack([corners + 1e-13, corners, corners - 3e-13])
    assert convex_hull(cloud).tolist() == (corners + 1e-13).tolist()


def test_convex_hull_of_a_point_is_the_point():
    cloud = np.array([[0.3, -0.4], [0.3 + 1e-13, -0.4], [0.3, -0.4 - 1e-13]])
    assert convex_hull(cloud).tolist() == [[0.3, -0.4]]
    assert convex_hull(np.array([[1.0, 2.0, 3.0]])).tolist() == [[1.0, 2.0, 3.0]]


def test_convex_hull_of_a_segment_is_its_ends_in_lexicographic_order():
    t = np.array([0.5, 1.0, -2.0, 0.25, 3.0])
    assert convex_hull(np.column_stack([t, -t])).tolist() == [[-2.0, 2.0], [3.0, -3.0]]
    assert convex_hull(np.column_stack([-t, 2 * t, t])).tolist() == [[-3.0, 6.0, 3.0], [2.0, -4.0, -2.0]]
    assert convex_hull(np.array([[0.0, 1.0], [0.0, -1.0], [0.0, 0.5]])).tolist() == [[0.0, -1.0], [0.0, 1.0]]


def test_convex_hull_of_a_flat_3d_cloud_is_its_in_plane_hull():
    """A square and its centre on a tilted plane: the four corners, in input order."""
    u, w = np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0), np.array([0.0, 0.6, 0.8])
    plane = [[0.5, 0.5], [1.0, 0.0], [0.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.5, 0.0]]
    cloud = np.array([[0.1, 0.2, 0.3] + a * u + b * w for a, b in plane])
    assert convex_hull(cloud).tolist() == cloud[1:5].tolist()


def test_convex_hull_keeps_a_near_collinear_run():
    """A convex run bulging below the chord (0, 0)-(1, 0) by less than COLLINEAR_TOL is kept, not pruned."""
    sag = 0.4 * numrange.COLLINEAR_TOL
    run = [[t, -sag * 4 * t * (1 - t)] for t in (0.25, 0.5, 0.75)]
    cloud = np.array([[0.0, 1.0], [0.5, 0.1], [0.0, 0.0], *run, [1.0, 0.0], [0.5, 1e-12]])
    assert convex_hull(cloud).tolist() == [[0.0, 0.0], *run, [1.0, 0.0], [0.0, 1.0]]


# --- block union: the range of a direct sum --------------------------------


def test_block_union_matches_single():
    vec = jsq_pair(HalfInt(3))
    single = boundary2d(vec, steps=90)
    union = hull_of(boundary2d(direct_sum([vec]), steps=90))
    match_point_sets(hull_of(single), union, 1e-12)


def test_block_union_adds_lowest_corner():
    parts = [jsq_pair(HalfInt(7)), jsq_pair(HalfInt(5)), jsq_pair(HalfInt(3)), jsq_pair(HalfInt(1))]
    union = hull_of(boundary2d(direct_sum(parts), steps=120))
    top_only = boundary2d(jsq_pair(HalfInt(7)), steps=120)
    expected = np.vstack([top_only.all_vertices(), [[0.25, 0.25]]])
    expected_hull = convex_hull(expected)
    match_point_sets(union, expected_hull, 1e-9)
    assert np.min(np.linalg.norm(union - np.array([0.25, 0.25]), axis=1)) <= 1e-9


def test_block_union_with_trivial_block():
    union = hull_of(boundary2d(direct_sum([jsq_pair(HalfInt(8)), jsq_pair(HalfInt(0))]), steps=90))
    assert np.min(np.linalg.norm(union - np.array([0.0, 0.0]), axis=1)) <= 1e-12


# --- ladder/anticommutator spectra invariances ------------------------------


def test_ladder_lambda_phi_invariant():
    for twice in range(1, 10):
        j = HalfInt(twice)
        for gamma in range(1, j.dim):
            vec = ladder_combo(j, gamma)
            lams = [
                support(vec, direction2(phi)).lambda_max
                for phi in np.linspace(0, 2 * math.pi, 24, endpoint=False)
            ]
            assert max(lams) - min(lams) <= 1e-9 * max(1.0, abs(max(lams)))


@pytest.mark.parametrize("twice", [2, 3, 4, 5])
def test_anticomm_pair_spectrum_phi_invariant(twice):
    vec = anticomm_vec(HalfInt(twice), 1)
    base = None
    for phi in np.linspace(0, 2 * math.pi, 24, endpoint=False):
        lam = math.cos(phi) * vec.ops[0].mat + math.sin(phi) * vec.ops[1].mat
        vals = eig_hermitian(lam).values
        if base is None:
            base = vals
        else:
            assert np.max(np.abs(vals - base)) <= 1e-9 * max(1.0, float(np.max(np.abs(base))))


# --- determinism -------------------------------------------------------------


def test_boundary_deterministic():
    vec = jsq_pair(HalfInt(5))
    first = boundary2d(vec, steps=45)
    second = boundary2d(vec, steps=45)
    assert hull_of(first).tobytes() == hull_of(second).tobytes()


@pytest.mark.parametrize(
    "build, grid",
    [
        (lambda: jsq_pair(HalfInt(100)), 360),
        (lambda: anticomm_vec(HalfInt(3), 1), (12, 24)),
        (lambda: anticomm_vec(HalfInt(20), 1), (12, 24)),
        (lambda: scale_uniform(power_vec(HalfInt(40), 3), 1.0 / 20.0**3), (12, 24)),
    ],
    ids=["jsq2d-j50", "anticomm-j3/2", "anticomm-j10", "jpow3-j20"],
)
def test_sweep_faces_match_single_direction_faces(build, grid):
    """Every face of a sweep is bitwise the face solved at its direction alone."""
    vec = build()
    boundary = boundary2d(vec, grid) if vec.n == 2 else boundary3d(vec, *grid)
    for swept in boundary.faces:
        alone = face(vec, swept.direction)
        assert alone.lambda_max == swept.lambda_max
        assert alone.multiplicity == swept.multiplicity
        assert alone.gap == swept.gap
        assert alone.is_point == swept.is_point
        assert alone.eigenbasis.tobytes() == swept.eigenbasis.tobytes()
        assert alone.vertices.shape == swept.vertices.shape
        assert alone.vertices.tobytes() == swept.vertices.tobytes()


def test_faces_of_no_directions():
    assert numrange.faces(j_triple(HalfInt(2)), []) == []
