"""Acceptance suite: one test per criterion, at the stated tolerances.

The conftest summary hook prints a PASS/FAIL line per criterion at the end
of the run. Long j-sweeps run their full grids when SPECRANGE_CI_LONG=1 and
the mandated spot checks (j in {3/2, 10, 25, 50}) otherwise.
"""

import math

import numpy as np
import pytest

import reference_values as ref
from conftest import CI_LONG
from oracles import commuting_polytope
from specrange.bounds import MeasureKind, combined, optimize_bounds, region_contains, triviality_check
from specrange.definetti import convergence_sweep, surface_anticomm, surface_jpow
from specrange.linalg import eig_hermitian, combine_matrix, make_hermitian
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
    scale_uniform,
)

LN2 = math.log(2.0)
SQ2 = math.sqrt(2.0)
SQ3 = math.sqrt(3.0)

ALL_MEASURES = ["h", "u0.5", "u2", "umax"]


def circ_dist(a, b):
    return abs((a - b + math.pi) % (2 * math.pi) - math.pi)


def angles_cover(angles, target_phi, tol):
    return any(circ_dist(a[-1], target_phi) <= tol for a in angles)


def direction_of(angles):
    theta, phi = angles
    return np.array(
        [math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta)]
    )


def test_criterion_01_ladder_table():
    phis = 2 * math.pi * np.arange(8) / 8
    for (gamma, twice), expected in ref.LADDER_LAMBDA_MAX.items():
        vec = ladder_combo(HalfInt(twice), gamma)
        lams = [support(vec, direction2(float(p))).lambda_max for p in phis]
        for lam in lams:
            assert abs(lam - expected) <= 1e-9 * max(1.0, abs(expected))
        assert max(lams) - min(lams) <= 1e-9 * max(1.0, abs(expected))


def test_criterion_02_sphere_disk_ball_radii():
    for twice in (3, 4):
        mesh = boundary3d(j_triple(HalfInt(twice)), 18, 36)
        radii = np.linalg.norm(mesh.all_vertices(), axis=1)
        assert np.max(np.abs(radii - twice / 2.0)) <= 1e-8
    for gamma, twice in ((2, 3), (2, 5), (3, 4), (4, 5)):
        vec = ladder_combo(HalfInt(twice), gamma)
        b = boundary2d(vec, steps=180)
        lam = ref.LADDER_LAMBDA_MAX[(gamma, twice)]
        radii = np.linalg.norm(convex_hull(b.all_vertices()), axis=1)
        assert np.max(np.abs(radii - lam)) <= 1e-8 * max(1.0, lam)
    for twice, radius in ((3, SQ3), (4, math.sqrt(12.0))):
        mesh = boundary3d(anticomm_vec(HalfInt(twice), 1), 18, 36)
        radii = np.linalg.norm(mesh.all_vertices(), axis=1)
        assert np.max(np.abs(radii - radius)) <= 1e-8


def test_criterion_03_ellipse_constraints():
    hull32 = convex_hull(boundary2d(jsq_pair(HalfInt(3)), steps=360).all_vertices())
    res32 = (hull32[:, 0] + hull32[:, 1] - 2.5) ** 2 + (hull32[:, 0] - hull32[:, 1]) ** 2 / 3 - 1
    assert np.max(np.abs(res32)) <= 1e-8

    hull2 = convex_hull(boundary2d(jsq_pair(HalfInt(4)), steps=360).all_vertices())
    res2 = ((hull2[:, 0] + hull2[:, 1] - 4) / 2) ** 2 + (hull2[:, 0] - hull2[:, 1]) ** 2 / 12 - 1
    assert np.max(np.abs(res2)) <= 1e-8

    hull3 = convex_hull(boundary2d(jsq_pair(HalfInt(6)), steps=360).all_vertices())
    for a, b in hull3:
        branches = (
            ((a + b - 10) / 2) ** 2 + ((a - b) / (2 * math.sqrt(15))) ** 2 - 1,
            ((a + b - 7) / 4) ** 2 + ((-7 * a + b + 9) / (4 * math.sqrt(15))) ** 2 - 1,
            ((a + b - 7) / 4) ** 2 + ((a - 7 * b + 9) / (4 * math.sqrt(15))) ** 2 - 1,
        )
        assert min(abs(r) for r in branches) <= 1e-7


def test_criterion_04_closed_form_bounds():
    vec = jsq_pair(HalfInt(4))
    rep = optimize_bounds(vec, boundary2d(vec, steps=360), ALL_MEASURES)
    expected = [4 * LN2 - SQ3 * math.log(2 + SQ3), (3 + SQ3) / 2, 7.0 / 4.0, 1 + SQ3 / 2]
    for res, want in zip(rep.results, expected):
        assert abs(res.value - want) <= 1e-9

    ladder_expected = [LN2, 1 + SQ2, 3.0 / 2.0, (1 + SQ2) / SQ2]
    for twice in range(1, 9):
        d = twice + 1
        gammas = range(1, d) if CI_LONG or twice <= 5 else [1, 2, d - 1]
        for gamma in gammas:
            lvec = ladder_combo(HalfInt(twice), gamma)
            lrep = optimize_bounds(lvec, boundary2d(lvec, steps=180), ALL_MEASURES)
            for res, want in zip(lrep.results, ladder_expected):
                assert abs(res.value - want) <= 1e-9, (twice, gamma, str(res.kind))


def test_criterion_05_planar_table():
    for twice, rows in ref.JSQ_TABLE.items():
        vec = jsq_pair(HalfInt(twice))
        rep = optimize_bounds(vec, boundary2d(vec, steps=360), ALL_MEASURES)
        for res in rep.results:
            want_value, want_phis = rows[str(res.kind)]
            assert abs(res.value - want_value) <= 5e-3, (twice, str(res.kind))
            for phi in want_phis:
                assert angles_cover(res.angles, phi, 5e-3), (twice, str(res.kind), phi)


def _spot_twices(lo_twice):
    if CI_LONG:
        return list(range(lo_twice, 101))
    return [3, 20, 50, 100]


def test_criterion_06_bound_lists():
    mismatches = []

    def check(tag, twice, got, want):
        if abs(got - want) > 1e-4:
            mismatches.append((tag, twice, got, want, abs(got - want)))

    for twice in _spot_twices(3):
        idx = ref.jsq_index(twice)
        vec = jsq_pair(HalfInt(twice))
        rep = optimize_bounds(vec, boundary2d(vec, steps=360), ALL_MEASURES)
        want = [ref.JSQ_H[idx], ref.JSQ_U_HALF[idx], ref.JSQ_U2[idx], ref.JSQ_UMAX[idx]]
        for res, w in zip(rep.results, want):
            check(f"jsq-{res.kind}", twice, res.value, w)

    for twice in _spot_twices(3):
        idx = ref.jsq_index(twice)
        vec = anticomm_vec(HalfInt(twice), 1)
        mesh = boundary3d(vec, 36, 72)
        rep = optimize_bounds(vec, mesh, ["h", "u2", "umax"])
        want = [ref.ANTI_H[idx], ref.ANTI_U2[idx], ref.ANTI_UMAX[idx]]
        for res, w in zip(rep.results, want):
            check(f"anticomm-{res.kind}", twice, res.value, w)
        mean = convergence_sweep("ANTICOMM", 1, [HalfInt(twice)], "MEAN_ETA1")[0][1]
        check("anticomm-mean", twice, mean, ref.ANTI_MEAN_ETA1[idx])

    for twice in _spot_twices(2):
        idx = ref.pow3_index(twice)
        j = HalfInt(twice)
        vec = scale_uniform(power_vec(j, 3), 1.0 / j.j**3)
        mesh = boundary3d(vec, 36, 72)
        rep = optimize_bounds(vec, mesh, ["umax"])
        check("pow3-umax", twice, rep.results[0].value, ref.POW3_UMAX[idx])

    assert not mismatches, mismatches


def test_criterion_07_anticomm_exact_bounds():
    vec = anticomm_vec(HalfInt(2), 1)
    mesh = boundary3d(vec, 24, 48)
    rep = optimize_bounds(vec, mesh, ALL_MEASURES)
    expected = [(6 * math.log(6) - 5 * math.log(5)) / 2, 1 + 2 * SQ2, 13.0 / 6.0, 5.0 / 2.0]
    for res, want in zip(rep.results, expected):
        assert abs(res.value - want) <= 1e-8

    diag_etas = [d.eta for d in diag_directions()]
    for key in (0, 2, 3):  # h, u2, umax attain at the antipodes of the four diagonals
        dirs = [direction_of(a) for a in rep.results[key].angles]
        for eta in diag_etas:
            assert any(np.linalg.norm(d + eta) <= 1e-4 for d in dirs), str(rep.results[key].kind)
    axis_dirs = [direction_of(a) for a in rep.results[1].angles]
    for axis in np.vstack([np.eye(3), -np.eye(3)]):
        assert any(np.linalg.norm(d - axis) <= 1e-4 for d in axis_dirs)


def test_criterion_08_fourth_power_faces():
    eta1 = diag_directions()[0]

    vec2 = power_vec(HalfInt(4), 4)
    ell = face(vec2, eta1)
    v = ell.vertices
    res = ((v[:, 0] + v[:, 1] - 16) / 8) ** 2 + ((v[:, 0] - v[:, 1]) / (8 * SQ3)) ** 2 - 1
    assert np.max(np.abs(res)) <= 1e-4
    assert np.max(np.abs(v.sum(axis=1) - 24)) <= 1e-4 * 24
    anti = direction3(math.pi - eta1.theta, (math.pi + eta1.phi) % (2 * math.pi))
    tri = face(vec2, anti)
    expected = np.array([[16.0, 1.0, 1.0], [1.0, 16.0, 1.0], [1.0, 1.0, 16.0]])
    assert len(tri.vertices) == 3
    for corner in expected:
        assert np.min(np.linalg.norm(tri.vertices - corner, axis=1)) <= 1e-8

    vec52 = power_vec(HalfInt(5), 4)
    f52 = face(vec52, eta1)
    v = f52.vertices
    res = ((v[:, 0] + v[:, 1] - 803 / 24) / (50 / 3)) ** 2 + (
        (v[:, 0] - v[:, 1]) / (50 / SQ3)
    ) ** 2 - 1
    assert np.max(np.abs(res)) <= 1e-4
    assert np.max(np.abs(v.sum(axis=1) - 803 / 16)) <= 1e-4 * (803 / 16)

    # j=3: multiplicity-1 mesh vertices on the carrier planes satisfy the
    # published ellipse equations (three axis permutations)
    vec3 = power_vec(HalfInt(6), 4)
    mesh = boundary3d(vec3, 40, 80)
    perms = [(0, 1, 2), (0, 2, 1), (2, 1, 0)]
    matched = 0
    for f in mesh.faces:
        if f.multiplicity != 1:
            continue
        for vert in f.vertices:
            for px, py, pz in perms:
                a, b, c = vert[px], vert[py], vert[pz]
                if abs(2 * a + 2 * b + 5 * c - 204) <= 1e-6 * 204:
                    res = ((a + b - 82) / 20) ** 2 + ((a - b) / (20 * math.sqrt(15))) ** 2 - 1
                    assert abs(res) <= 1e-4
                    matched += 1
    assert matched >= 50

    vec72 = power_vec(HalfInt(7), 4)
    normal = np.array([1.0, 1.0, 0.3890792])
    normal /= np.linalg.norm(normal)
    d72 = Direction(
        eta=-normal,
        phi=float(math.atan2(-normal[1], -normal[0]) % (2 * math.pi)),
        theta=float(math.acos(-normal[2])),
    )
    f72 = face(vec72, d72, deg_tol=1e-5)
    v = f72.vertices
    assert len(v) >= 16
    res = ((v[:, 0] + v[:, 1] - 36.96675) / 21.71172) ** 2 + (
        (v[:, 0] - v[:, 1]) / 20.731196
    ) ** 2 - 1
    assert np.max(np.abs(res)) <= 1e-4
    plane = v[:, 0] + v[:, 1] + 0.3890792 * v[:, 2] - 71.8851
    assert np.max(np.abs(plane)) <= 1e-4 * 71.8851


def test_criterion_09_level_crossing():
    vec = power_vec(HalfInt(20), 3)
    spec = eig_hermitian(combine_matrix(diag_directions()[0].eta, vec.mats))
    assert abs(spec.values[-1] - 586.116) <= 5e-3
    assert abs(spec.values[-2] - 585.098) <= 5e-3

    scaled = scale_uniform(vec, 1.0 / 10.0**3)
    mesh = boundary3d(scaled, 36, 72)
    rep = optimize_bounds(scaled, mesh, ["umax"])
    assert abs(rep.results[0].value - 2.00759) <= 1e-4


def test_criterion_10_definetti_limits():
    am = convergence_sweep("ANTICOMM", 1, [HalfInt(100)], "AM")[0][1]
    assert abs(am - 0.991733) <= 1e-5

    for gamma in (1, 2, 3, 4):
        jp = surface_jpow(gamma, 45, 90)
        sums = np.sum(np.abs(jp.points) ** (2.0 / gamma), axis=1)
        assert np.max(np.abs(sums - 1.0)) <= 1e-10
        ac = surface_anticomm(gamma, 45, 90)
        p = ac.points
        lhs = (
            np.abs(p[:, 0] * p[:, 1]) ** (2.0 / gamma)
            + np.abs(p[:, 1] * p[:, 2]) ** (2.0 / gamma)
            + np.abs(p[:, 2] * p[:, 0]) ** (2.0 / gamma)
        )
        prod = p[:, 0] * p[:, 1] * p[:, 2]
        rhs = 2.0 * np.sign(prod) * np.abs(prod) ** (1.0 / gamma)
        assert np.max(np.abs(lhs - rhs)) <= 1e-10

    from scipy.spatial import ConvexHull

    surf = surface_jpow(3, 90, 180)
    hull_vertices = surf.points[ConvexHull(surf.points).vertices]
    octa = np.vstack([np.eye(3), -np.eye(3)])
    for vtx in hull_vertices:
        assert np.min(np.linalg.norm(octa - vtx, axis=1)) <= 1e-9
    for corner in octa:
        assert np.min(np.linalg.norm(hull_vertices - corner, axis=1)) <= 1e-9


def test_criterion_11_property_suites():
    # eigen residuals and reconstruction
    rng = np.random.default_rng(42)
    for d in (3, 17, 64):
        raw = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        mat = (raw + raw.conj().T) / 2
        spec = eig_hermitian(mat)
        fro = np.linalg.norm(mat)
        for k in range(d):
            assert (
                np.linalg.norm(mat @ spec.vectors[:, k] - spec.values[k] * spec.vectors[:, k])
                <= 1e-10 * fro
            )
        rebuilt = (spec.vectors * spec.values) @ spec.vectors.conj().T
        assert np.linalg.norm(rebuilt - mat) <= 1e-9 * fro

    # antipodal symmetry of the support function
    vec = anticomm_vec(HalfInt(4), 1)
    for _ in range(10):
        theta = rng.uniform(0, math.pi)
        phi = rng.uniform(0, 2 * math.pi)
        lam_min = eig_hermitian(combine_matrix(direction3(theta, phi).eta, vec.mats)).values[0]
        anti = support(vec, direction3(math.pi - theta, (math.pi + phi) % (2 * math.pi)))
        assert abs(anti.lambda_max + lam_min) <= 1e-9 * max(1.0, abs(lam_min))

    # support inequality over 1000 random mixed states
    triple = j_triple(HalfInt(3))
    dirs = [
        direction3(t, p)
        for t in np.linspace(0.05, math.pi - 0.05, 8)
        for p in np.linspace(0, 2 * math.pi, 12, endpoint=False)
    ]
    lams = [support(triple, dd).lambda_max for dd in dirs]
    d = triple.dim
    for _ in range(1000):
        kets = rng.normal(size=(2, d)) + 1j * rng.normal(size=(2, d))
        w = rng.dirichlet(np.ones(2))
        rho = sum(
            wi * np.outer(k, k.conj()) / float(np.linalg.norm(k)) ** 2 for wi, k in zip(w, kets)
        )
        means = np.array([float(np.real(np.trace(rho @ m))) for m in triple.mats])
        for dd, lam in zip(dirs, lams):
            assert float(dd.eta @ means) <= lam + 1e-8

    # concavity / convexity along segments
    rect = hyperrect(jsq_pair(HalfInt(5)))
    verts = boundary2d(jsq_pair(HalfInt(5)), steps=60).all_vertices()
    for _ in range(50):
        i, k = rng.integers(0, len(verts), size=2)
        mid = (verts[i] + verts[k]) / 2
        for kind in (MeasureKind.h(), MeasureKind.u(0.5)):
            avg = (combined(kind, verts[i], rect) + combined(kind, verts[k], rect)) / 2
            assert combined(kind, mid, rect) >= avg - 1e-10
        for kind in (MeasureKind.u(2.0), MeasureKind.umax()):
            avg = (combined(kind, verts[i], rect) + combined(kind, verts[k], rect)) / 2
            assert combined(kind, mid, rect) <= avg + 1e-10

    # commuting-case equivalence
    j = HalfInt(3)
    ops = angular_momentum(j)
    xsq = make_hermitian(ops.jx.mat @ ops.jx.mat, "Jx^2")
    pair = ObservableVec(ops=(ops.jx, xsq))
    poly = commuting_polytope(pair)
    swept = convex_hull(boundary2d(pair, steps=360).all_vertices())
    for p in poly:
        assert np.min(np.linalg.norm(swept - p, axis=1)) <= 1e-8
    for p in swept:
        assert np.min(np.linalg.norm(poly - p, axis=1)) <= 1e-8

    # bound regions contain the allowed region; corners sit outside
    vec2 = jsq_pair(HalfInt(4))
    b2 = boundary2d(vec2, steps=90)
    rect2 = hyperrect(vec2)
    bound = 4 * LN2 - SQ3 * math.log(2 + SQ3)
    for v in b2.all_vertices():
        assert region_contains(MeasureKind.h(), bound, v, rect2)
    trivial, _ = triviality_check(vec2, b2)
    assert not trivial
