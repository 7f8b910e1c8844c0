import dataclasses
import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_values as ref
from conftest import CI_LONG, conjugated
from oracles import collect_reference, gradient_reference, optimize_reference
from specrange import bounds
from specrange.bounds import (
    ANGLE_TOL,
    MAX,
    MAX_REFINE,
    MAX_STEPS,
    MIN,
    VALUE_TOL,
    MeasureKind,
    _best_rows,
    _collect,
    _gradient,
    _scores,
    _weights,
    combined,
    measure,
    normalize_mean,
    optimize_bounds,
    region_contains,
    triviality_check,
)
from specrange.errors import DegenerateRange
from specrange.linalg import block_top_eigenvalues, expectation
from specrange.numrange import (
    DEG_TOL_DEFAULT,
    Hyperrect,
    boundary2d,
    boundary3d,
    direction,
    direction2,
    direction3,
    face,
    faces,
    hyperrect,
    sweep_directions,
)
from specrange.spinops import (
    HalfInt,
    anticomm_vec,
    j_triple,
    jsq_pair,
    ladder_combo,
    power_vec,
    rotate_frame,
    scale_uniform,
)

ROOT = Path(__file__).resolve().parent.parent

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
    for text in ("uinf", "u1e400"):
        with pytest.raises(ValueError):
            MeasureKind.parse(text)


def test_nan_coordinate_raises():
    unit = Hyperrect(lo=(0.0, 0.0), hi=(1.0, 1.0))
    with pytest.raises(ValueError):
        normalize_mean(math.nan, 0.0, 1.0)
    with pytest.raises(ValueError):
        measure(MeasureKind.h(), math.nan, 0.0, 1.0)
    with pytest.raises(ValueError):
        combined(MeasureKind.h(), [math.nan, 0.5], unit)
    with pytest.raises(ValueError):
        region_contains(MeasureKind.h(), 0.0, [math.nan, math.nan], unit)


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


def test_pole_reported_once():
    # a pole is one direction: its angles appear once, at phi = 0, however many
    # columns the mesh has
    vec = anticomm_vec(HalfInt(3), 1)
    rep = optimize_bounds(vec, boundary3d(vec, 12, 24), ["h", "u0.5", "u2", "umax"])
    for res in rep.results:
        assert all(phi == 0.0 for theta, phi in res.angles if theta in (0.0, math.pi))
    uhalf = rep.results[1]
    assert str(uhalf.kind) == "u0.5"
    etas = np.array([direction3(theta, phi).eta for theta, phi in uhalf.angles])
    axes = np.vstack([np.eye(3), -np.eye(3)])
    assert len(etas) == 6
    assert all(np.min(np.linalg.norm(etas - a, axis=1)) <= 1e-12 for a in axes)


def test_optimize_rejects_degenerate_range():
    vec = jsq_pair(HalfInt(1))
    b = boundary2d(vec, steps=16)
    with pytest.raises(DegenerateRange):
        optimize_bounds(vec, b, ["h"])


def test_collect_wraps_phi():
    """phi just below 2 pi and phi = 0 are one attaining direction."""
    grid = [((math.pi / 2, 0.0), 1.0), ((math.pi / 2, 1.0), 1.0)]
    refined = [((math.pi / 2, 2 * math.pi - 1e-14), 1.0)]
    assert _collect(grid, refined, 1.0) == [(math.pi / 2, 0.0), (math.pi / 2, 1.0)]
    assert _collect([], [((2 * math.pi - 1e-14,), 2.0), ((0.0,), 2.0)], 2.0) == [(2 * math.pi - 1e-14,)]


SAME = 10 * ANGLE_TOL
# a round angle where a binned index of kept angles would put a cell edge: a
# pair straddling it is still matched by distance alone
EDGE = 1e-5
TWO_PI = 2 * math.pi
# (grid angles, refined ends, collected): grid angles lie a grid step apart,
# so each near-duplicate is a refined end, matched against a grid angle or an earlier end
COLLECT_CASES = {
    "0.99-apart-merge": ([(1.0,)], [(1.0 + 0.99 * SAME,)], [(1.0,)]),
    "1.01-apart-stay": ([(1.0,)], [(1.0 + 1.01 * SAME,)], [(1.0,), (1.0 + 1.01 * SAME,)]),
    "0.99-across-edge": ([(EDGE - 0.5 * SAME,)], [(EDGE + 0.49 * SAME,)], [(EDGE - 0.5 * SAME,)]),
    "1.01-across-edge": ([(EDGE - 0.5 * SAME,)], [(EDGE + 0.51 * SAME,)], [(EDGE - 0.5 * SAME,), (EDGE + 0.51 * SAME,)]),
    "theta-0.99-apart-merge": ([(1.0, 2.0)], [(1.0 + 0.99 * SAME, 2.0)], [(1.0, 2.0)]),
    "theta-1.01-apart-stay": ([(1.0, 2.0)], [(1.0 - 1.01 * SAME, 2.0)], [(1.0 - 1.01 * SAME, 2.0), (1.0, 2.0)]),
    "ends-0.99-apart-merge": ([], [(1.0,), (1.0 + 0.99 * SAME,)], [(1.0,)]),
    "exact-repeats": ([(1.0, 2.0), (1.0, 3.0)], [(1.0, 3.0), (1.0, 2.0), (1.0, 3.0)], [(1.0, 2.0), (1.0, 3.0)]),
    "phi-exactly-2pi": ([], [(1.0, TWO_PI), (1.0, 5e-8), (1.0, 0.0)], [(1.0, TWO_PI)]),
    "phi-0-before-2pi": ([(0.0,)], [(TWO_PI,)], [(0.0,)]),
    "seam-kept-first": ([(TWO_PI - 9e-7,)], [(5e-8,)], [(TWO_PI - 9e-7,)]),
    "seam-1.01-apart": ([(TWO_PI - 9.6e-7,)], [(5e-8,)], [(5e-8,), (TWO_PI - 9.6e-7,)]),
}


@pytest.mark.parametrize("grid, refined, want", COLLECT_CASES.values(), ids=COLLECT_CASES.keys())
def test_collect_planted_cases(grid, refined, want):
    grid = [(a, 0.0) for a in grid]
    refined = [(a, 0.0) for a in refined]
    assert _collect(grid, refined, 0.0) == collect_reference(grid + refined, 0.0) == want


def test_collect_keeps_values_within_value_tol():
    """At best = 0.5, best + VALUE_TOL rounds to within VALUE_TOL and best - VALUE_TOL to just outside."""
    evaluated = [((1.0,), 0.5 + VALUE_TOL), ((2.0,), 0.5 - VALUE_TOL), ((3.0,), 0.5), ((4.0,), 0.5 + 2 * VALUE_TOL)]
    want = [(1.0,), (3.0,)]
    assert _collect(evaluated, [], 0.5) == _collect([], evaluated, 0.5) == collect_reference(evaluated, 0.5) == want


COLLECT_GRIDS = {grid: [d.angles for d in sweep_directions(*grid)] for grid in [
    (2, 8), (2, 360), (2, 4096), (3, (4, 8)), (3, (12, 24)), (3, (36, 72)),
]}


@st.composite
def attaining_lists(draw):
    """A real sweep grid's (angles, value) pairs and up to MAX_REFINE refined ends drawn near its angles.

    Up to 24 grid angles get a value near best, the rest one far from it; each
    end sits a drawn multiple of _same_angles' tolerance from a grid angle (0
    is an exact repeat), phi taken round the circle into [0, 2 pi].
    """
    angles = COLLECT_GRIDS[draw(st.sampled_from(list(COLLECT_GRIDS)))]
    best = draw(st.floats(-10.0, 10.0))
    values = st.sampled_from([0.0, VALUE_TOL, -VALUE_TOL, 2 * VALUE_TOL]) | st.floats(-2 * VALUE_TOL, 2 * VALUE_TOL)
    steps = st.sampled_from([0.0, 0.49, -0.49, 0.5, 0.99, -0.99, 1.01, -1.01, 2.0]) | st.floats(-3.0, 3.0)
    near = draw(st.lists(st.integers(0, len(angles) - 1), max_size=24, unique=True))
    grid_values = [best + 1.0] * len(angles)
    for i in near:
        grid_values[i] = best + draw(values)
    anchors = near or [0]
    refined = []
    for _ in range(draw(st.integers(0, MAX_REFINE))):
        *theta, phi = angles[draw(st.sampled_from(anchors))]
        theta = [min(max(t + draw(steps) * SAME, 0.0), math.pi) for t in theta]
        refined.append(((*theta, (phi + draw(steps) * SAME) % TWO_PI), best + draw(values)))
    return list(zip(angles, grid_values)), refined, best


@given(attaining_lists())
@settings(max_examples=400, deadline=None)
def test_collect_matches_the_full_scan(case):
    grid, refined, best = case
    assert _collect(grid, refined, best) == collect_reference(grid + refined, best)


@pytest.mark.parametrize("n, grid", [(2, 360), (2, 4096), (3, (12, 24)), (3, (36, 72)), (3, (180, 360))], ids=str)
def test_grid_angles_never_match(n, grid):
    """_collect's precondition: no two directions of a sweep grid match under _same_angles.

    Along a row phi ascends and down a column theta does, so a matching pair
    would include a neighbouring pair: columns of a row (the seam, column 0
    against the last, included), rows of a column, or a pole against row 1.
    """
    angles = [d.angles for d in sweep_directions(n, grid)]
    if n == 2:
        rows, poles = [angles], []
    else:
        kp = grid[1]
        rows = [angles[k : k + kp] for k in range(1, len(angles) - 1, kp)]
        poles = [(angles[0], rows[0]), (angles[-1], rows[-1])]
    pairs = [(u, v) for row in rows for u, v in zip(row, row[1:] + row[:1])]
    pairs += [(u, v) for upper, lower in zip(rows, rows[1:]) for u, v in zip(upper, lower)]
    pairs += [(pole, v) for pole, row in poles for v in row]
    assert not any(bounds._same_angles(u, v) for u, v in pairs)


def _recording(monkeypatch):
    """Record each _collect call's (grid, refined) lists and each _same_angles call's arguments."""
    collects, calls = [], []
    same, collect = bounds._same_angles, bounds._collect

    def recorded_same(u, v):
        calls.append((u, v))
        return same(u, v)

    def recorded_collect(grid, refined, best):
        grid = list(grid)
        collects.append(([a for a, _ in grid], [a for a, _ in refined]))
        return collect(grid, refined, best)

    monkeypatch.setattr(bounds, "_same_angles", recorded_same)
    monkeypatch.setattr(bounds, "_collect", recorded_collect)
    return collects, calls


def test_collect_compares_only_refined_ends(monkeypatch):
    """Every _same_angles call of _collect tests a refined end; a list of grid angles alone makes none."""
    collects, calls = _recording(monkeypatch)
    vec = anticomm_vec(HalfInt(4), 1)
    optimize_bounds(vec, boundary3d(vec, 12, 24), ["h", "u0.5", "u2", "umax"])
    vec = jsq_pair(HalfInt(7))
    optimize_bounds(vec, boundary2d(vec, 360), ["h", "u0.5", "u2", "umax"])
    refined = {a for _, ends in collects for a in ends}
    assert calls and all(u in refined for u, _ in calls)
    calls.clear()
    grid = [(a, 0.0) for a in collects[0][0]]
    assert bounds._collect(grid, [], 0.0) == sorted(a for a, _ in grid)
    assert not calls


def test_collect_u2_ball_makes_no_same_angles_call(monkeypatch):
    """u2 is flat on the anticomm j = 3/2 ball, so every grid face of 36x72 attains it.

    Every ascent stays on its grid face, so each refined end is an exact
    repeat of a kept grid angle and no _same_angles call is made.
    """
    collects, calls = _recording(monkeypatch)
    vec = anticomm_vec(HalfInt(3), 1)
    mesh = boundary3d(vec, 36, 72)
    (result,) = optimize_bounds(vec, mesh, ["u2"]).results
    assert len(collects[0][0]) == len(mesh.faces)
    assert len(result.angles) > 2000
    assert calls == []


def test_jpow3_scaled_18x36_reaches_reference():
    j = HalfInt(20)
    vec = scale_uniform(power_vec(j, 3), 1.0 / j.j**3)
    rep = optimize_bounds(vec, boundary3d(vec, 18, 36), ["umax"])
    assert rep.results[0].value == pytest.approx(ref.POW3_UMAX[ref.pow3_index(20)], abs=1e-4)


def test_bounds_import_no_optimize_or_spatial():
    """Refinement on a tiny 3D and 2D table loads neither scipy.optimize nor scipy.spatial.

    Each costs memory and set-up time that the bound tables do not need
    (measured: about 21 MB and 9 MB resident).
    """
    code = """
import sys
from specrange.bounds import optimize_bounds
from specrange.numrange import boundary2d, boundary3d
from specrange.spinops import HalfInt, anticomm_vec, jsq_pair
vec = anticomm_vec(HalfInt(2), 1)
optimize_bounds(vec, boundary3d(vec, 4, 8), ["umax"])
vec = jsq_pair(HalfInt(4))
optimize_bounds(vec, boundary2d(vec, 16), ["h", "u0.5", "u2", "umax"])
print(sorted(m for m in ("scipy.optimize", "scipy.spatial") if m in sys.modules))
"""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# --- successive linearization ------------------------------------------------


def _umax_closed_form(vec) -> float:
    """max of umax over the region: n/2 + max over sign vectors s of [|s/w| lambda_max(eta_s.A) - s.(mid/w)].

    umax(r) = n/2 + sum_i |x_i - mid_i| / w_i, so each sign vector s leaves a
    linear function whose maximum is the support function at eta_s = (s/w)/|s/w|.
    """
    rect = hyperrect(vec)
    lo, hi = np.array(rect.lo), np.array(rect.hi)
    width, mid = hi - lo, (lo + hi) / 2.0
    signs = np.array(list(itertools.product((-1.0, 1.0), repeat=rect.n)))
    slopes = signs / width
    norms = np.linalg.norm(slopes, axis=1)
    lam = block_top_eigenvalues(slopes / norms[:, None], vec.blocks)
    return rect.n / 2.0 + float(np.max(norms * lam - slopes @ mid))


def _jpow3_scaled(twice):
    j = HalfInt(twice)
    return scale_uniform(power_vec(j, 3), 1.0 / j.j**3)


UMAX_SETS = [
    pytest.param(lambda: jsq_pair(HalfInt(5)), 360, id="jsq2d-2.5"),
    pytest.param(lambda: jsq_pair(HalfInt(20)), 360, id="jsq2d-10"),
    pytest.param(lambda: _jpow3_scaled(20), (12, 24), id="jpow3-10-12x24"),
    pytest.param(lambda: _jpow3_scaled(20), (18, 36), id="jpow3-10-18x36"),
    pytest.param(lambda: anticomm_vec(HalfInt(2), 1), (12, 24), id="anticomm-1"),
    pytest.param(lambda: anticomm_vec(HalfInt(3), 1), (12, 24), id="anticomm-1.5"),
    pytest.param(lambda: anticomm_vec(HalfInt(20), 1), (12, 24), id="anticomm-10"),
    pytest.param(lambda: ladder_combo(HalfInt(4), 2), 180, id="ladder-2"),
]


@pytest.mark.parametrize("build, grid", UMAX_SETS)
def test_umax_matches_closed_form(build, grid):
    vec = build()
    region = boundary2d(vec, grid) if isinstance(grid, int) else boundary3d(vec, *grid)
    value = optimize_bounds(vec, region, ["umax"]).results[0].value
    want = _umax_closed_form(vec)
    assert abs(value - want) <= 1e-12 * max(1.0, want)


@pytest.mark.parametrize("s", [1e-3, 1e3])
@pytest.mark.parametrize(
    "build, grid",
    [
        pytest.param(lambda: jsq_pair(HalfInt(5)), 64, id="jsq2d-2.5"),
        pytest.param(lambda: anticomm_vec(HalfInt(2), 1), (12, 24), id="anticomm-1"),
    ],
)
def test_scale_uniform_laws(build, grid, s):
    """Scaling every operator by s scales each lambda_max by s and leaves the faces and the measures."""
    vec = build()
    scaled = scale_uniform(vec, s)

    def sweep(v):
        return boundary2d(v, grid) if isinstance(grid, int) else boundary3d(v, *grid)

    region, region_s = sweep(vec), sweep(scaled)
    for f, f_s in zip(region.faces, region_s.faces):
        assert abs(f_s.lambda_max / s - f.lambda_max) <= 1e-12 * max(1.0, abs(f.lambda_max))
        assert len(f_s.vertices) == len(f.vertices)
    kinds = ["h", "u0.5", "u2", "umax"]
    values = [r.value for r in optimize_bounds(vec, region, kinds).results]
    values_s = [r.value for r in optimize_bounds(scaled, region_s, kinds).results]
    assert np.allclose(values_s, values, rtol=0.0, atol=1e-12)


def gradient_at(kind, r, rect):
    """_gradient at the point r, from r's weights as a one-row stack."""
    dot, ring = _weights(np.array([r], dtype=float), rect.lo, rect.hi)
    return _gradient(kind, dot, ring, rect)[0]


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda: anticomm_vec(HalfInt(2), 1), id="anticomm-1"),
        pytest.param(lambda: _jpow3_scaled(4), id="jpow3-2"),
    ],
)
def test_operator_permutation_laws(build):
    """Permuting the operators permutes the hyperrect and every face's vertices, and keeps each bound.

    The permuted set's face at eta' is the original face at the direction e
    with e[perm[k]] = eta'[k], read in permuted coordinates. The bounds agree
    to 1e-12, not bitwise: the measure sums its coordinates in another order.
    """
    vec = build()
    kinds = ["h", "u0.5", "u2", "umax"]
    values = [r.value for r in optimize_bounds(vec, boundary3d(vec, 12, 24), kinds).results]
    rect = hyperrect(vec)
    for perm in itertools.permutations(range(3)):
        cols = list(perm)
        permuted = dataclasses.replace(vec, ops=tuple(vec.ops[i] for i in perm))
        mesh = boundary3d(permuted, 12, 24)
        rect_p = hyperrect(permuted)
        assert (rect_p.lo, rect_p.hi) == (tuple(np.array(rect.lo)[cols]), tuple(np.array(rect.hi)[cols]))
        back = []
        for f in mesh.faces:
            eta = np.zeros(3)
            eta[cols] = f.direction.eta
            back.append(direction(eta))
        for f, g in zip(mesh.faces, faces(vec, back, mesh.deg_tol)):
            want = g.vertices[:, cols]
            assert len(f.vertices) == len(want)
            gaps = np.max(np.abs(f.vertices[:, None] - want[None]), axis=2)
            assert np.max(np.min(gaps, axis=1)) <= 1e-12
        values_p = [r.value for r in optimize_bounds(permuted, mesh, kinds).results]
        assert np.allclose(values_p, values, rtol=0.0, atol=1e-12), perm


UNITARY_FAMILIES = {
    "J": (j_triple, (12, 24)),
    "jsq2d": (jsq_pair, 180),
    **{f"ladder{g}": (lambda j, g=g: ladder_combo(j, g), 180) for g in (1, 2)},
    **{f"jpow{g}": (lambda j, g=g: power_vec(j, g), (12, 24)) for g in (2, 3, 4)},
    **{f"anticomm{g}": (lambda j, g=g: anticomm_vec(j, g), (12, 24)) for g in (1, 2)},
}


@pytest.mark.parametrize("twice", [2, 5, 10, 20])
@pytest.mark.parametrize("family", UNITARY_FAMILIES)
def test_unitary_conjugation_keeps_faces_and_bounds(family, twice):
    """U A_i U^dagger has the same region, so every face: lambda_max within 1e-12 of the spectral scale,
    the same vertex count and vertex sets within 1e-10 of it (Hausdorff distance, the scalar test's cut).

    The bounds agree to 1e-9, not closer: anticomm2 at 2j = 5 gives u0.5 1.5e-11 apart.
    """
    build, grid = UNITARY_FAMILIES[family]
    vec = build(HalfInt(twice))
    turned = conjugated(vec, 3)
    scale = max(1.0, float(np.abs(vec.spectral_ends[0]).max()))

    def sweep(v):
        return boundary2d(v, grid) if isinstance(grid, int) else boundary3d(v, *grid)

    region, region_u = sweep(vec), sweep(turned)
    for f, f_u in zip(region.faces, region_u.faces, strict=True):
        assert abs(f_u.lambda_max - f.lambda_max) <= 1e-12 * scale
        assert len(f_u.vertices) == len(f.vertices)
        gaps = np.linalg.norm(f.vertices[:, None] - f_u.vertices[None], axis=2)
        assert max(gaps.min(axis=0).max(), gaps.min(axis=1).max()) <= 1e-10 * scale, f.direction
    kinds = ["h", "u0.5", "u2", "umax"]
    values = [r.value for r in optimize_bounds(vec, region, kinds).results]
    values_u = [r.value for r in optimize_bounds(turned, region_u, kinds).results]
    assert np.allclose(values_u, values, rtol=0.0, atol=1e-9)


def test_bloch_ball_bounds_are_the_closed_forms():
    """(Jx, Jy, Jz) at j = 1/2: the region is the ball of radius 1/2, so h = 2 ln 2, u0.5 = 1 + 2 sqrt2,
    u2 = 2 and umax = (3 + sqrt3)/2."""
    vec = j_triple(HalfInt(1))
    rep = optimize_bounds(vec, boundary3d(vec, 12, 24), ["h", "u0.5", "u2", "umax"])
    expected = [2 * LN2, 1 + 2 * SQ2, 2.0, (3 + SQ3) / 2]
    for res, want in zip(rep.results, expected, strict=True):
        assert res.value == pytest.approx(want, abs=1e-9), res.kind


@pytest.mark.parametrize("twice", [2, 3, 4, 7])
def test_rotate_frame_laws(twice):
    """A rotated j triple has the same region, the ball of radius j, and the same hyperrect, so the same bounds."""
    vec = j_triple(HalfInt(twice))
    kinds = ["h", "u0.5", "u2", "umax"]
    values = [r.value for r in optimize_bounds(vec, boundary3d(vec, 12, 24), kinds).results]
    for theta, phi in ((0.3, 1.1), (1.2, 4.0), (2.5, 0.7)):
        rotated = rotate_frame(vec, theta, phi)
        values_r = [r.value for r in optimize_bounds(rotated, boundary3d(rotated, 12, 24), kinds).results]
        assert np.allclose(values_r, values, rtol=0.0, atol=1e-12), (theta, phi)


DEG_TOL_SETS = [
    *(pytest.param(lambda t=t: jsq_pair(HalfInt(t)), 360, id=f"jsq2d-{t / 2:g}") for t in (3, 10, 20)),
    *(pytest.param(lambda t=t: anticomm_vec(HalfInt(t), 1), (12, 24), id=f"anticomm-{t / 2:g}") for t in (2, 3, 10, 20)),
    *(pytest.param(lambda t=t: _jpow3_scaled(t), (12, 24), id=f"jpow3-{t / 2:g}") for t in (2, 10, 20)),
]


@pytest.mark.parametrize("build, grid", DEG_TOL_SETS)
def test_bounds_stable_across_deg_tol_band(build, grid):
    """Every bound is the same to 1e-9 for any deg_tol in [1e-10, 1e-6]: no cluster cut in that band moves it."""
    vec = build()
    kinds = ["h", "u0.5", "u2", "umax"]
    values = []
    for deg_tol in (1e-10, 1e-8, 1e-6):
        region = boundary2d(vec, grid, deg_tol) if isinstance(grid, int) else boundary3d(vec, *grid, deg_tol)
        values.append([r.value for r in optimize_bounds(vec, region, kinds).results])
    assert np.allclose(values, values[1], rtol=0.0, atol=1e-9)


@given(st.lists(st.floats(min_value=0.05, max_value=0.95), min_size=3, max_size=3))
@settings(max_examples=100, deadline=None)
def test_gradient_matches_central_differences(ts):
    rect = Hyperrect(lo=(-1.0, 0.0, 2.0), hi=(2.0, 0.5, 6.0))
    lo, width = np.array(rect.lo), np.array(rect.hi) - np.array(rect.lo)
    r = lo + np.array(ts) * width
    for kind in (MeasureKind.h(), MeasureKind.u(0.5), MeasureKind.u(2.0)):
        grad = gradient_at(kind, r, rect)
        for i in range(3):
            step = np.zeros(3)
            step[i] = 1e-6 * width[i]
            diff = (combined(kind, r + step, rect) - combined(kind, r - step, rect)) / (2 * step[i])
            assert grad[i] == pytest.approx(diff, rel=1e-6, abs=1e-6)


def test_gradient_at_exact_endpoints_is_sign_only():
    rect = Hyperrect(lo=(0.0, 0.0, 0.0), hi=(1.0, 1.0, 1.0))
    for kind in (MeasureKind.h(), MeasureKind.u(0.5)):
        assert list(gradient_at(kind, [0.0, 0.3, 0.6], rect)) == [1.0, 0.0, 0.0]
        assert list(gradient_at(kind, [1.0, 0.3, 0.0], rect)) == [-1.0, 0.0, 1.0]
    # kappa > 1 has finite slope there: the plain gradient
    assert list(gradient_at(MeasureKind.u(2.0), [0.0, 0.5, 1.0], rect)) == [-2.0, 0.0, 2.0]


@st.composite
def gradient_points(draw):
    """A 3-coordinate hyperrect and a point whose coordinates are interior, at an exact endpoint or one float off it."""
    lo = [draw(st.floats(-5.0, 5.0)) for _ in range(3)]
    rect = Hyperrect(lo=tuple(lo), hi=tuple(a + draw(st.floats(0.01, 10.0)) for a in lo))
    ends = (st.sampled_from([a, b, float(np.nextafter(a, b)), float(np.nextafter(b, a))]) for a, b in zip(rect.lo, rect.hi))
    return rect, np.array([draw(end | st.floats(a, b)) for end, a, b in zip(ends, rect.lo, rect.hi)])


@given(gradient_points())
@settings(max_examples=300, deadline=None)
def test_gradient_is_bitwise_the_per_coordinate_loop(case):
    rect, r = case
    dot, ring = _weights(r[None], rect.lo, rect.hi)
    for kind in (MeasureKind.h(), MeasureKind.u(0.5), MeasureKind.u(2.0), MeasureKind.umax()):
        got = _gradient(kind, dot, ring, rect)[0]
        assert got.tobytes() == gradient_reference(kind, dot[0], ring[0], rect).tobytes(), kind


def test_gradient_is_bitwise_the_loop_on_many_interior_points():
    """numpy's vectorized log and power differ from libm's in the last ulp on a
    small share of arguments, so bitwise equality needs many points. The rows
    go in one call, with some rows at exact endpoints among them: each row is
    the loop's at its own point."""
    rng = np.random.default_rng(17)
    rect = Hyperrect(lo=(-1.0, 0.0, 2.0), hi=(2.0, 0.5, 6.0))
    lo, hi = np.array(rect.lo), np.array(rect.hi)
    points = lo + rng.uniform(size=(10000, 3)) * (hi - lo)
    points[::7, 0], points[::11, 2] = lo[0], hi[2]
    dot, ring = _weights(points, rect.lo, rect.hi)
    for kind in (MeasureKind.h(), MeasureKind.u(0.5), MeasureKind.u(2.0), MeasureKind.umax()):
        got = [row.tobytes() for row in _gradient(kind, dot, ring, rect)]
        assert got == [gradient_reference(kind, d, r, rect).tobytes() for d, r in zip(dot, ring)], kind


def _ascent(direction, value, dot, ring):
    """_refine's (measure, directions, values, dots, rings) arrays for one ascent of measure 0."""
    return np.array([0]), np.array([direction], dtype=object), np.array([value]), np.array([dot]), np.array([ring])


def _ascent_from(vec, start, kind):
    """One ascent of the measure kind from the best vertex of the face start, as optimize_bounds starts one (oriented score)."""
    rect = hyperrect(vec)
    dot, ring = _weights(start.vertices, rect.lo, rect.hi)
    scores = kind.sign * _scores(kind, dot, ring)
    (i,) = _best_rows(scores, [0])
    return _ascent(start.direction, float(scores[i]), dot[i], ring[i])


def test_ascent_ending_at_a_pole_reports_phi_zero():
    for eta, angles in (([0.0, 0.0, 1.0], (0.0, 0.0)), ([-0.0, -0.0, -1.0], (math.pi, 0.0))):
        d = direction(np.array(eta))
        assert (d.theta, d.phi) == angles
    # the limit direction of h at this face's best vertex is -z
    vec = anticomm_vec(HalfInt(2), 1)
    start = face(vec, direction3(3 * math.pi / 4, 7 * math.pi / 4))
    ascent = _ascent_from(vec, start, MeasureKind.h())
    bounds._refine(vec, [MeasureKind.h()], *ascent, hyperrect(vec), DEG_TOL_DEFAULT)
    assert ascent[1][0].angles == (math.pi, 0.0)


def test_direction_folds_a_tiny_negative_phi_to_zero():
    """atan2 gives -1e-17 here, and -1e-17 % (2 pi) rounds to exactly 2 pi."""
    assert direction(np.array([1.0, -1e-17])).phi == 0.0
    d = direction(np.array([1.0, -1e-17, 0.0]))
    assert (d.theta, d.phi) == (math.pi / 2, 0.0)


def test_refinement_spends_fewer_solves_than_the_sweep(monkeypatch):
    """Refinement solves fewer directions than the sweep, in at most MAX_STEPS faces calls and no face call."""
    vec = anticomm_vec(HalfInt(2), 1)
    mesh = boundary3d(vec, 12, 24)
    calls = directions = single = 0

    def counted(vec, steps, *args, **kwargs):
        nonlocal calls, directions
        calls += 1
        directions += len(steps)
        return faces(vec, steps, *args, **kwargs)

    def counted_single(*args, **kwargs):
        nonlocal single
        single += 1
        return face(*args, **kwargs)

    monkeypatch.setattr(bounds, "faces", counted)
    monkeypatch.setattr(bounds, "face", counted_single)
    optimize_bounds(vec, mesh, ["h", "u2", "umax"])
    assert 0 < directions < len(mesh.faces) == 266
    assert calls <= MAX_STEPS
    assert single == 0


def test_a_round_takes_one_gradient_and_one_scores_call_per_live_measure(monkeypatch):
    """Each refinement round calls _gradient once per measure with a live ascent, then faces once,
    then _scores once per measure with a moving ascent: no call per ascent."""
    vec = anticomm_vec(HalfInt(3), 1)
    mesh = boundary3d(vec, 12, 24)
    events = []

    def log(tag, fn):
        def logged(*args, **kwargs):
            events.append((tag, str(args[0]) if tag != "faces" else None))
            return fn(*args, **kwargs)

        return logged

    monkeypatch.setattr(bounds, "_gradient", log("gradient", bounds._gradient))
    monkeypatch.setattr(bounds, "faces", log("faces", faces))
    kinds = ["h", "u0.5", "u2", "umax"]
    optimize_bounds(vec, mesh, kinds)  # the grid's own scoring runs before the first round, unlogged
    monkeypatch.setattr(bounds, "_scores", log("scores", bounds._scores))
    events.clear()
    optimize_bounds(vec, mesh, kinds)
    rounds, last = [], None
    for tag, kind in events:
        if tag == "gradient" and last != "gradient":
            rounds.append([])
        if rounds:
            rounds[-1].append((tag, kind))
        last = tag
    assert len(rounds) > 1
    for calls in rounds:
        took = {tag: [k for t, k in calls if t == tag] for tag in ("gradient", "faces", "scores")}
        assert len(took["gradient"]) == len(set(took["gradient"])) <= len(kinds)
        assert len(took["faces"]) <= 1
        assert len(took["scores"]) == len(set(took["scores"])) and set(took["scores"]) <= set(took["gradient"])
        assert took["scores"] == [] or took["faces"] == [None]


ORACLE_SETS = [
    *(pytest.param(lambda t=t: anticomm_vec(HalfInt(t), 1), (12, 24), id=f"anticomm-{t / 2:g}") for t in (2, 3, 4)),
    *(pytest.param(lambda t=t: jsq_pair(HalfInt(t)), 360, id=f"jsq2d-{t / 2:g}") for t in (5, 6)),
    pytest.param(lambda: _jpow3_scaled(5), (12, 24), id="jpow3-2.5"),
    pytest.param(lambda: ladder_combo(HalfInt(4), 2), 180, id="ladder-2"),
]


def _direction_key(d):
    return repr(d.theta), repr(d.phi), d.eta.tobytes()


@pytest.mark.parametrize("build, grid", ORACLE_SETS)
def test_lockstep_refinement_matches_the_sequential_oracle(build, grid, monkeypatch):
    """Every bound and attaining angle is bitwise the one-ascent-at-a-time oracle's, from the same solved directions."""
    vec = build()
    region = boundary2d(vec, grid) if isinstance(grid, int) else boundary3d(vec, *grid)
    kinds = [MeasureKind.parse(k) for k in ("h", "u0.5", "u2", "umax")]
    oracle_steps, lockstep_steps = [], []

    def solve(v, step, deg_tol):
        oracle_steps.append(step)
        return face(v, step, deg_tol)

    def solve_all(v, steps, deg_tol):
        lockstep_steps.extend(steps)
        return faces(v, steps, deg_tol)

    want = optimize_reference(vec, region, kinds, solve)
    monkeypatch.setattr(bounds, "faces", solve_all)
    got = optimize_bounds(vec, region, kinds).results
    for g, w in zip(got, want, strict=True):
        assert (str(g.kind), g.sense) == (str(w.kind), w.sense)
        assert np.float64(g.value).tobytes() == np.float64(w.value).tobytes()
        assert np.array(g.angles).tobytes() == np.array(w.angles).tobytes()
        assert len(g.angles) == len(w.angles)
    assert sorted(map(_direction_key, lockstep_steps)) == sorted(map(_direction_key, oracle_steps))


def test_ascent_retires_when_its_value_only_ties(monkeypatch):
    """A step whose best vertex only equals the current value is not taken: the ascent keeps its direction."""
    vec = anticomm_vec(HalfInt(2), 1)
    h = MeasureKind.h()
    start = face(vec, direction3(3 * math.pi / 4, 7 * math.pi / 4))
    ascent = _ascent_from(vec, start, h)
    value = ascent[2][0]
    rounds = []

    def same_face(v, steps, deg_tol):
        rounds.append(steps)
        return [dataclasses.replace(start, direction=step) for step in steps]

    monkeypatch.setattr(bounds, "faces", same_face)
    bounds._refine(vec, [h], *ascent, hyperrect(vec), DEG_TOL_DEFAULT)
    assert len(rounds) == 1 and len(rounds[0]) == 1
    assert ascent[1][0] is start.direction
    assert ascent[2][0] == value


@pytest.mark.parametrize("kind", [MeasureKind.h(), MeasureKind.u(0.5), MeasureKind.u(2.0), MeasureKind.umax()])
def test_ascent_retires_where_the_gradient_vanishes(monkeypatch, kind):
    """Weights 1/2 in every coordinate, the centre of the hyperrect, zero every measure's gradient: no faces call."""
    vec = anticomm_vec(HalfInt(2), 1)
    start = face(vec, direction3(3 * math.pi / 4, 7 * math.pi / 4))
    half = np.full(vec.n, 0.5)
    ascent = _ascent(start.direction, 1.0, half, half)
    calls = []
    monkeypatch.setattr(bounds, "faces", lambda *args: calls.append(args))
    bounds._refine(vec, [kind], *ascent, hyperrect(vec), DEG_TOL_DEFAULT)
    assert calls == []
    assert (ascent[1][0], ascent[2][0]) == (start.direction, 1.0)


@pytest.mark.parametrize("where", [0, -1])
@pytest.mark.parametrize("shift", [2.0, math.nan])
def test_bad_vertex_in_a_round_raises_from_weights(monkeypatch, where, shift):
    """A refinement face with a vertex past its hyperrect raises _weights' ValueError, not an index error."""
    vec = anticomm_vec(HalfInt(2), 1)
    mesh = boundary3d(vec, 12, 24)
    rect = hyperrect(vec)
    width = np.array(rect.hi) - np.array(rect.lo)

    def out_of_range(v, steps, deg_tol):
        solved = faces(v, steps, deg_tol)
        bad = solved[where]
        solved[where] = dataclasses.replace(bad, vertices=bad.vertices + shift * width)
        return solved

    monkeypatch.setattr(bounds, "faces", out_of_range)
    with pytest.raises(ValueError, match="beyond clamp tolerance"):
        optimize_bounds(vec, mesh, ["h", "u2", "umax"])


def test_jsq2d_j3_h_is_attained_below_the_frozen_reference():
    """jsq2d j = 3, h on 360 steps: each attaining face is one top eigenvector, whose dense mean vector
    scores 0.4271422689, 1.19e-4 below the frozen JSQ_H entry 0.427261 (the long run's one mismatch)."""
    vec = jsq_pair(HalfInt(6))
    rect = hyperrect(vec)
    h = MeasureKind.h()
    (result,) = optimize_bounds(vec, boundary2d(vec, 360), [h]).results
    assert result.angles
    for (phi,) in result.angles:
        f = face(vec, direction2(phi))
        assert f.eigenbasis.shape[1] == 1
        r = [expectation(op, f.eigenbasis[:, 0]) for op in vec.ops]
        assert combined(h, r, rect) == pytest.approx(0.4271422689, abs=1e-9)
    assert result.value == pytest.approx(0.4271422689, abs=1e-9)
    assert ref.JSQ_H[ref.jsq_index(6)] - result.value == pytest.approx(1.19e-4, abs=1e-6)


# --- region / triviality -------------------------------------------------------


def test_region_contains_basics():
    rect = Hyperrect(lo=(0.0, 0.0), hi=(1.0, 1.0))
    assert region_contains(MeasureKind.h(), 2 * LN2, [0.5, 0.5], rect)
    assert not region_contains(MeasureKind.h(), 0.1, [0.0, 0.0], rect)


def test_region_contains_reads_both_senses():
    """Each measure's own sense: at the (lo, lo) corner of jsq2d j = 2, h is 0 and umax is 2.

    The corner lies outside h's region of 0.5 (h >= 0.5) and outside umax's
    region of 1.5 (umax <= 1.5); the centre, where h is 2 ln 2 and umax is 1,
    lies inside both.
    """
    vec = jsq_pair(HalfInt(4))
    rect = hyperrect(vec)
    corner, centre = list(rect.lo), [(lo + hi) / 2 for lo, hi in zip(rect.lo, rect.hi)]
    assert not region_contains(MeasureKind.h(), 0.5, corner, rect)
    assert region_contains(MeasureKind.h(), 0.5, centre, rect)
    assert not region_contains(MeasureKind.umax(), 1.5, corner, rect)
    assert region_contains(MeasureKind.umax(), 1.5, centre, rect)
    assert region_contains(MeasureKind.umax(), 2.0, corner, rect)


def test_region_contains_boundary_vertices():
    vec = jsq_pair(HalfInt(4))
    b = boundary2d(vec, steps=180)
    rect = hyperrect(vec)
    bound = 4 * LN2 - SQ3 * math.log(2 + SQ3)
    for v in b.all_vertices():
        assert region_contains(MeasureKind.h(), bound, v, rect)


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
