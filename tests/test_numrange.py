import math

import numpy as np
import pytest
import scipy.linalg

from specrange.errors import DimensionMismatch, NonFinite, NonHermitian, NotCommuting
from specrange.linalg import HermObservable, combine_matrix, eig_hermitian, make_hermitian
from specrange.numrange import (
    Direction,
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
    vec = ObservableVec(ops=(good, bad), j=HalfInt(1), kind="J")
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
    return ObservableVec(ops=ops, j=HalfInt(2), kind="J")


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


def test_mesh_faces_on_their_hyperplanes():
    mesh = boundary3d(anticomm_vec(HalfInt(2), 1), 8, 16)
    # representative node points satisfy their own face hyperplane
    rows = mesh.rows()
    for k in (0, len(rows) // 2, len(rows) - 1):
        f = rows[k][0]
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


@pytest.mark.parametrize("entries, error", BAD_OPERATORS)
def test_membership_rejects_bad_operator(entries, error):
    good = angular_momentum(HalfInt(1)).jz
    bad = HermObservable(mat=np.array(entries, dtype=complex), label="bad", eig_min=-1.0, eig_max=1.0)
    vec = ObservableVec(ops=(good, bad), j=HalfInt(1), kind="J")
    with pytest.raises(error):
        membership(vec, [0.0, 0.0], 12)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_membership_rejects_non_finite_point(bad):
    with pytest.raises(NonFinite):
        membership(j_triple(HalfInt(2)), [bad, 0.0, 0.0], (12, 24))


# --- commuting polytope ----------------------------------------------------


def test_commuting_polytope_triangle():
    hull = commuting_polytope(jsq_pair(HalfInt(2)))
    match_point_sets(hull, [[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]], 1e-10)


def test_commuting_polytope_rejects_noncommuting():
    with pytest.raises(NotCommuting):
        commuting_polytope(jsq_pair(HalfInt(4)))


def test_commuting_polytope_coplanar_set():
    j = HalfInt(3)
    jz = angular_momentum(j).jz
    zsq = make_hermitian(jz.mat @ jz.mat, "Jz^2")
    poly = commuting_polytope(ObservableVec(ops=(jz, jz, zsq), j=j, kind="JPOW", gamma=1))
    m = np.array([1.5, 0.5, -0.5, -1.5])
    match_point_sets(poly, np.column_stack([m, m, m * m]), 1e-10)


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
    match_point_sets(single.hull, union, 1e-12)


def test_block_union_adds_lowest_corner():
    union = block_union_range(
        [jsq_pair(HalfInt(7)), jsq_pair(HalfInt(5)), jsq_pair(HalfInt(3)), jsq_pair(HalfInt(1))],
        steps=120,
    )
    top_only = boundary2d(jsq_pair(HalfInt(7)), steps=120)
    expected = np.vstack([top_only.all_vertices(), [[0.25, 0.25]]])
    expected_hull = convex_hull_2d(expected)
    match_point_sets(union, expected_hull, 1e-9)
    assert np.min(np.linalg.norm(union - np.array([0.25, 0.25]), axis=1)) <= 1e-9


def test_block_union_with_trivial_block():
    union = block_union_range([jsq_pair(HalfInt(8)), jsq_pair(HalfInt(0))], steps=90)
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
    assert first.hull.tobytes() == second.hull.tobytes()
