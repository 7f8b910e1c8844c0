import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import CI_LONG
from specrange.bounds import (
    MAX,
    MIN,
    MeasureKind,
    combined,
    measure,
    normalize_mean,
    optimize_bounds,
    region_contains,
    triviality_check,
)
from specrange.errors import DegenerateRange
from specrange.numrange import Hyperrect, boundary2d, boundary3d, face, direction2, hyperrect
from specrange.spinops import HalfInt, anticomm_vec, jsq_pair, ladder_combo, power_vec, scale_uniform

LN2 = math.log(2.0)
SQ2 = math.sqrt(2.0)
SQ3 = math.sqrt(3.0)


def circular_close(a, b, tol):
    return abs((a - b + math.pi) % (2 * math.pi) - math.pi) <= tol


def has_angle(angles, target, tol=1e-5):
    return any(circular_close(a[-1], target, tol) for a in angles)


# --- measure kinds / normalize_mean ------------------------------------------


def test_measure_kind_parse_and_sense():
    assert MeasureKind.parse("h").sense == MIN
    assert MeasureKind.parse("u0.5").sense == MIN
    assert MeasureKind.parse("u2").sense == MAX
    assert MeasureKind.parse("umax").sense == MAX
    with pytest.raises(ValueError):
        MeasureKind.parse("entropy")
    with pytest.raises(ValueError):
        MeasureKind.u(-1.0)


def test_normalize_mean_endpoints_and_midpoint():
    assert normalize_mean(0.0, 0.0, 2.0) == (1.0, 0.0)
    assert normalize_mean(1.0, 0.0, 2.0) == (0.5, 0.5)
    assert normalize_mean(2.0, 0.0, 2.0) == (0.0, 1.0)


def test_normalize_mean_degenerate_interval():
    vec = jsq_pair(HalfInt(1))
    rect = hyperrect(vec)
    with pytest.raises(DegenerateRange):
        normalize_mean(0.25, rect.lo[0], rect.hi[0])


def test_measure_values():
    assert measure(MeasureKind.h(), 0.0, 0.0, 1.0) == 0.0
    assert measure(MeasureKind.h(), 0.5, 0.0, 1.0) == pytest.approx(LN2, abs=1e-15)
    assert measure(MeasureKind.u(0.5), 0.5, 0.0, 1.0) == pytest.approx(SQ2, abs=1e-15)
    assert measure(MeasureKind.u(2.0), 1.0, 0.0, 1.0) == pytest.approx(1.0, abs=1e-15)
    assert measure(MeasureKind.umax(), 0.5, 0.0, 1.0) == pytest.approx(0.5, abs=1e-15)


def test_measure_continuous_above_exact_lo():
    # subnormal weights ramp the noise floor in from 0; normal ones get all of it
    u = MeasureKind.u(0.5)
    assert measure(u, 5e-324, 0.0, 1.0) == pytest.approx(1.0, abs=1e-15)
    assert measure(u, 1e-300, 0.0, 1.0) == measure(u, 1e-20, 0.0, 1.0) > 1.0 + 2e-8
    mid = np.array([0.0, 5e-324]) / 2.0
    assert combined(u, mid, Hyperrect(lo=(0.0, 0.0), hi=(1.0, 1.0))) == 2.0


def test_combined_corner_and_known_points():
    rect = Hyperrect(lo=(0.0, 0.0), hi=(1.0, 1.0))
    assert combined(MeasureKind.u(0.5), [0.0, 1.0], rect) == pytest.approx(2.0, abs=1e-14)
    pair = jsq_pair(HalfInt(4))
    rect2 = hyperrect(pair)
    vertex = face(pair, direction2(3 * math.pi / 4)).vertices[0]
    assert combined(MeasureKind.h(), vertex, rect2) == pytest.approx(
        4 * LN2 - SQ3 * math.log(2 + SQ3), abs=1e-10
    )
    lad = ladder_combo(HalfInt(4), 2)
    rect3 = hyperrect(lad)
    lam = lad.ops[0].eig_max
    assert combined(MeasureKind.u(0.5), [lam, 0.0], rect3) == pytest.approx(1 + SQ2, abs=1e-12)


# --- measure shape properties -------------------------------------------------


@given(st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=200, deadline=None)
def test_measure_envelopes(t):
    x = t * 3.0 - 1.0
    lo, hi = -1.0, 2.0
    h = measure(MeasureKind.h(), x, lo, hi)
    assert -1e-12 <= h <= LN2 + 1e-12
    uhalf = measure(MeasureKind.u(0.5), x, lo, hi)
    assert 1.0 - 1e-12 <= uhalf <= SQ2 + 1e-12
    u2 = measure(MeasureKind.u(2.0), x, lo, hi)
    assert 0.5 - 1e-12 <= u2 <= 1.0 + 1e-12
    um = measure(MeasureKind.umax(), x, lo, hi)
    assert 0.5 - 1e-12 <= um <= 1.0 + 1e-12


@given(
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=200, deadline=None)
def test_concavity_convexity_on_segments(x1, y1, x2, y2):
    rect = Hyperrect(lo=(0.0, 0.0), hi=(1.0, 1.0))
    r1, r2 = np.array([x1, y1]), np.array([x2, y2])
    mid = (r1 + r2) / 2.0
    # the chord is taken at the midpoint actually evaluated: (a + b) / 2 rounds,
    # e.g. to 1.0 for a = next_down(1.0), b = 1.0; where a = b, t = 0 and mid = a
    t = np.divide(mid - r1, r2 - r1, out=np.zeros(2), where=r1 != r2)
    # sign +1: concave, at or above the chord; -1: convex, at or below it
    for kind, sign in (
        (MeasureKind.h(), 1.0),
        (MeasureKind.u(0.5), 1.0),
        (MeasureKind.u(2.0), -1.0),
        (MeasureKind.umax(), -1.0),
    ):
        chord = sum(
            (1.0 - ti) * measure(kind, a, 0.0, 1.0) + ti * measure(kind, b, 0.0, 1.0)
            for a, b, ti in zip(r1, r2, t)
        )
        assert sign * (combined(kind, mid, rect) - chord) >= -1e-10


def test_segment_tests_on_real_boundary():
    rng = np.random.default_rng(8)
    b = boundary2d(jsq_pair(HalfInt(5)), steps=90)
    verts = b.all_vertices()
    rect = hyperrect(jsq_pair(HalfInt(5)))
    for _ in range(60):
        i, k = rng.integers(0, len(verts), size=2)
        mid = (verts[i] + verts[k]) / 2.0
        for kind, sense in ((MeasureKind.h(), MIN), (MeasureKind.u(2.0), MAX)):
            avg = (combined(kind, verts[i], rect) + combined(kind, verts[k], rect)) / 2.0
            if sense == MIN:
                assert combined(kind, mid, rect) >= avg - 1e-10
            else:
                assert combined(kind, mid, rect) <= avg + 1e-10


# --- optimize_bounds ----------------------------------------------------------


def test_optimize_jsq_52():
    vec = jsq_pair(HalfInt(5))
    rep = optimize_bounds(vec, boundary2d(vec, steps=360), ["h"])
    res = rep.results[0]
    assert res.value == pytest.approx(0.419, abs=5e-3)
    assert has_angle(res.angles, 1.965, tol=5e-3)
    assert has_angle(res.angles, 5.89, tol=5e-3)


def test_optimize_jsq_2_uhalf():
    vec = jsq_pair(HalfInt(4))
    rep = optimize_bounds(vec, boundary2d(vec, steps=360), ["u0.5"])
    res = rep.results[0]
    assert res.value == pytest.approx((3 + SQ3) / 2, abs=1e-9)
    assert has_angle(res.angles, 0.0)
    assert has_angle(res.angles, math.pi / 2)


def test_optimize_anticomm_mesh():
    vec = anticomm_vec(HalfInt(2), 1)
    mesh = boundary3d(vec, 24, 48)
    rep = optimize_bounds(vec, mesh, ["u2", "umax"])
    assert rep.results[0].value == pytest.approx(13.0 / 6.0, abs=1e-9)
    assert rep.results[1].value == pytest.approx(2.5, abs=1e-9)


def test_optimize_rejects_degenerate_range():
    vec = jsq_pair(HalfInt(1))
    b = boundary2d(vec, steps=16)
    with pytest.raises(DegenerateRange):
        optimize_bounds(vec, b, ["h"])


# --- region / triviality -------------------------------------------------------


def test_region_contains_basics():
    rect = Hyperrect(lo=(0.0, 0.0), hi=(1.0, 1.0))
    assert region_contains(MeasureKind.h(), 2 * LN2, MIN, [0.5, 0.5], rect)
    assert not region_contains(MeasureKind.h(), 0.1, MIN, [0.0, 0.0], rect)


def test_region_contains_boundary_vertices():
    vec = jsq_pair(HalfInt(4))
    b = boundary2d(vec, steps=180)
    rect = hyperrect(vec)
    bound = 4 * LN2 - SQ3 * math.log(2 + SQ3)
    for v in b.all_vertices():
        assert region_contains(MeasureKind.h(), bound, MIN, v, rect)


def test_triviality_flags():
    vec1 = jsq_pair(HalfInt(2))
    b1 = boundary2d(vec1, steps=90)
    trivial, corner = triviality_check(vec1, b1)
    assert trivial
    shared = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    assert np.min(np.linalg.norm(shared - np.asarray(corner), axis=1)) <= 1e-6

    vec2 = jsq_pair(HalfInt(4))
    trivial2, _ = triviality_check(vec2, boundary2d(vec2, steps=90))
    assert not trivial2


def test_triviality_large_j_shrinking_margin():
    vec = scale_uniform(power_vec(HalfInt(100), 4), 1.0 / 50.0**4)
    mesh = boundary3d(vec, 8, 16)
    trivial, _ = triviality_check(vec, mesh)
    assert not trivial
    # but the corner (0,0,1) distance is already small
    verts = mesh.all_vertices()
    dist = np.min(np.linalg.norm(verts - np.array([0.0, 0.0, 1.0]), axis=1))
    assert 1e-6 < dist < 5e-3


# --- derived bound families -----------------------------------------------------


def _ladder_cases():
    out = []
    max_twice = 8
    for twice in range(1, max_twice + 1):
        d = twice + 1
        gammas = range(1, d) if (CI_LONG or twice <= 4) else [1, d - 1]
        for gamma in gammas:
            out.append((twice, gamma))
    return out


@pytest.mark.parametrize("twice,gamma", _ladder_cases())
def test_ladder_bounds_universal(twice, gamma):
    vec = ladder_combo(HalfInt(twice), gamma)
    rep = optimize_bounds(vec, boundary2d(vec, steps=180), ["h", "u0.5", "u2", "umax"])
    expected = [LN2, 1 + SQ2, 1.5, (1 + SQ2) / SQ2]
    for res, want in zip(rep.results, expected):
        assert res.value == pytest.approx(want, abs=1e-9)


def test_anticomm_bound_envelope():
    h_lo, h_hi = (6 * math.log(6) - 5 * math.log(5)) / 2, 2 * LN2
    spot = [2, 3, 4, 9, 20] if not CI_LONG else list(range(2, 101))
    for twice in spot:
        vec = anticomm_vec(HalfInt(twice), 1)
        mesh = boundary3d(vec, 24, 48)
        rep = optimize_bounds(vec, mesh, ["h", "u0.5", "u2", "umax"])
        h, uh, u2, um = (r.value for r in rep.results)
        assert h_lo - 1e-6 <= h <= h_hi + 1e-9
        assert uh == pytest.approx(1 + 2 * SQ2, abs=1e-6)
        assert 2.0 - 1e-9 <= u2 <= 13.0 / 6.0 + 1e-6
        assert (3 + SQ3) / 2 - 1e-9 <= um <= 2.5 + 1e-6


def test_jsq_trends_within_parity():
    # monotone trends hold separately over integer and half-integer j
    twices = list(range(5, 17)) + [20, 21] if not CI_LONG else list(range(5, 101))
    values = {}
    for twice in twices:
        vec = jsq_pair(HalfInt(twice))
        rep = optimize_bounds(vec, boundary2d(vec, steps=180), ["h", "u0.5", "u2", "umax"])
        values[twice] = [r.value for r in rep.results]
    for parity in (0, 1):
        seq = [values[t] for t in twices if t % 2 == parity]
        for prev, cur in zip(seq, seq[1:]):
            assert cur[0] <= prev[0] + 1e-7  # h nonincreasing
            assert cur[1] <= prev[1] + 1e-7  # u_1/2 nonincreasing
            assert cur[2] >= prev[2] - 1e-7  # u_2 nondecreasing
            assert cur[3] >= prev[3] - 1e-7  # u_max nondecreasing
