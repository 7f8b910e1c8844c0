import math

import numpy as np
import pytest

from specrange.errors import DimensionMismatch, NonFinite, NonHermitian, NotCommuting
from specrange.linalg import HermObservable, combine_matrix, eig_hermitian, make_hermitian
from specrange.numrange import (
    block_union_range,
    boundary2d,
    boundary3d,
    commuting_polytope,
    convex_hull_2d,
    diag_directions,
    direction2,
    direction3,
    face,
    hyperrect,
    membership,
    support,
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


# --- face ------------------------------------------------------------------


def test_face_degenerate_single_point():
    f = face(jsq_pair(HalfInt(3)), direction2(0.0))
    assert f.multiplicity == 2
    assert f.is_point
    assert np.allclose(f.vertices[0], [2.25, 0.75], atol=1e-10)


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


# --- boundary2d ------------------------------------------------------------


def test_boundary2d_point_region():
    b = boundary2d(jsq_pair(HalfInt(1)), steps=16)
    assert b.hull.shape == (1, 2)
    assert np.allclose(b.hull[0], [0.25, 0.25], atol=1e-12)


def test_boundary2d_triangle():
    b = boundary2d(jsq_pair(HalfInt(2)), steps=360)
    match_point_sets(b.hull, [[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]], 1e-10)


def test_boundary2d_ellipse_constraint():
    b = boundary2d(jsq_pair(HalfInt(3)), steps=360)
    v = b.hull
    residual = (v[:, 0] + v[:, 1] - 2.5) ** 2 + (v[:, 0] - v[:, 1]) ** 2 / 3.0 - 1.0
    assert np.max(np.abs(residual)) <= 1e-8


def test_boundary2d_hull_convex():
    for vec in (jsq_pair(HalfInt(4)), ladder_combo(HalfInt(4), 2)):
        hull = boundary2d(vec, steps=180).hull
        n = len(hull)
        scale = max(1.0, float(np.max(np.abs(hull))))
        for i in range(n):
            o, a, b = hull[i], hull[(i + 1) % n], hull[(i + 2) % n]
            cross = (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])
            assert cross >= -1e-10 * scale * scale


def test_boundary2d_hull_subset_of_samples():
    b = boundary2d(jsq_pair(HalfInt(5)), steps=90)
    allv = b.all_vertices()
    for h in b.hull:
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


def test_mesh_triangles_on_their_hyperplanes():
    mesh = boundary3d(anticomm_vec(HalfInt(2), 1), 8, 16)
    for tri in mesh.triangles[:64]:
        assert len(set(int(t) for t in tri)) == 3
    # representative node points satisfy their own face hyperplane
    rows = len(mesh.thetas)
    for k in (0, rows // 2, rows - 1):
        f = mesh.grid[k][0]
        rep = f.vertices.mean(axis=0)
        assert abs(float(f.direction.eta @ rep) - f.lambda_max) <= 1e-8


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


@pytest.mark.parametrize(
    "entries, error",
    [([[0.0, math.inf], [math.inf, 0.0]], NonFinite), ([[0.0, 1.0], [0.0, 0.0]], NonHermitian)],
)
def test_membership_rejects_bad_operator(entries, error):
    good = angular_momentum(HalfInt(1)).jz
    bad = HermObservable(mat=np.array(entries, dtype=complex), label="bad", eig_min=-1.0, eig_max=1.0)
    vec = ObservableVec(ops=(good, bad), j=HalfInt(1), kind="J")
    with pytest.raises(error):
        membership(vec, [0.0, 0.0], 12)


# --- commuting polytope ----------------------------------------------------


def test_commuting_polytope_triangle():
    hull = commuting_polytope(jsq_pair(HalfInt(2)))
    match_point_sets(hull, [[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]], 1e-10)


def test_commuting_polytope_rejects_noncommuting():
    with pytest.raises(NotCommuting):
        commuting_polytope(jsq_pair(HalfInt(4)))


def test_commuting_polytope_diagonal_pair():
    j = HalfInt(2)
    ops = angular_momentum(j)
    zsq = make_hermitian(ops.jz.mat @ ops.jz.mat, "Jz^2")
    vec = ObservableVec(ops=(ops.jz, zsq), j=j, kind="JPOW", gamma=1)
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
        vec = ObservableVec(ops=(ops.jz, zsq), j=j, kind="JPOW", gamma=1)
    else:
        j = HalfInt(3)
        ops = angular_momentum(j)
        xsq = make_hermitian(ops.jx.mat @ ops.jx.mat, "Jx^2")
        vec = ObservableVec(ops=(ops.jx, xsq), j=j, kind="JPOW", gamma=1)
    poly = commuting_polytope(vec)
    swept = boundary2d(vec, steps=360).hull
    match_point_sets(poly, swept, 1e-8)


# --- block union -----------------------------------------------------------


def test_block_union_matches_single():
    vec = jsq_pair(HalfInt(3))
    single = boundary2d(vec, steps=90)
    union = block_union_range([vec], steps=90)
    match_point_sets(single.hull, union.hull, 1e-12)


def test_block_union_adds_lowest_corner():
    union = block_union_range(
        [jsq_pair(HalfInt(7)), jsq_pair(HalfInt(5)), jsq_pair(HalfInt(3)), jsq_pair(HalfInt(1))],
        steps=120,
    )
    top_only = boundary2d(jsq_pair(HalfInt(7)), steps=120)
    expected = np.vstack([top_only.all_vertices(), [[0.25, 0.25]]])
    expected_hull = convex_hull_2d(expected)
    match_point_sets(union.hull, expected_hull, 1e-9)
    assert np.min(np.linalg.norm(union.hull - np.array([0.25, 0.25]), axis=1)) <= 1e-9


def test_block_union_with_trivial_block():
    union = block_union_range([jsq_pair(HalfInt(8)), jsq_pair(HalfInt(0))], steps=90)
    assert np.min(np.linalg.norm(union.hull - np.array([0.0, 0.0]), axis=1)) <= 1e-12


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
    assert first.hull.tobytes() == second.hull.tobytes()
