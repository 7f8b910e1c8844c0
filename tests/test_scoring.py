"""The array scoring of bounds against the per-vertex loops in tests/oracles.py, bit for bit."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    best_vertex_reference,
    combined_reference,
    grid_nodes,
    local_optima_reference,
    measure_reference,
    normalize_mean_reference,
)
from specrange import bounds
from specrange.bounds import (
    MAX,
    MIN,
    MeasureKind,
    _best_rows,
    _scores,
    _weights,
    combined,
    measure,
    normalize_mean,
)
from specrange.numrange import Hyperrect, SupportFace, direction2, local_optima

KINDS = [MeasureKind.h(), MeasureKind.u(0.5), MeasureKind.u(2.0), MeasureKind.u(3.0), MeasureKind.umax()]
SUBNORMAL_MAX = np.nextafter(np.finfo(float).tiny, 0.0)


def bits(values) -> list[int]:
    return np.asarray(values, dtype=float).view(np.int64).tolist()


@st.composite
def interval(draw):
    """(lo, hi): lo = 0 (so subnormal offsets stay subnormal), an integer or any moderate float."""
    lo = draw(st.one_of(st.just(0.0), st.integers(-5, 5).map(float), st.floats(-1e3, 1e3)))
    width = draw(st.one_of(st.floats(2 * bounds.RANGE_TOL, 1e-3), st.floats(1e-3, 1e3), st.integers(1, 8).map(float)))
    hi = lo + width
    if hi - lo <= bounds.RANGE_TOL:
        hi = lo + 1.0
    return lo, hi


@st.composite
def coordinate(draw, lo: float, hi: float):
    """A coordinate of [lo, hi] from the zones the weight rules treat apart."""
    width = hi - lo
    slack = bounds.CLAMP_TOL * max(1.0, width)
    zone = draw(st.sampled_from(["lo", "hi", "next", "floor", "subnormal", "slack", "inside"]))
    if zone == "lo":
        return lo
    if zone == "hi":
        return hi
    if zone == "next":
        return float(draw(st.sampled_from([np.nextafter(lo, math.inf), np.nextafter(hi, -math.inf)])))
    if zone == "floor":
        # weights inside the RING_FLOOR zone of either endpoint
        t = draw(st.floats(0.0, 4 * bounds.RING_FLOOR))
        return draw(st.sampled_from([lo + t * width, hi - t * width]))
    if zone == "subnormal":
        return lo + draw(st.floats(5e-324, float(SUBNORMAL_MAX)))
    if zone == "slack":
        s = draw(st.floats(0.0, 1.0))
        return draw(st.sampled_from([lo - s * slack, hi + s * slack]))
    return lo + draw(st.floats(0.0, 1.0)) * width


@st.composite
def scoring_case(draw):
    n = draw(st.integers(1, 3))
    ends = [draw(interval()) for _ in range(n)]
    rect = Hyperrect(lo=tuple(lo for lo, _ in ends), hi=tuple(hi for _, hi in ends))
    count = draw(st.integers(1, 6))
    points = np.array([[draw(coordinate(lo, hi)) for lo, hi in ends] for _ in range(count)])
    return rect, points


@given(scoring_case())
@settings(max_examples=300, deadline=None)
def test_array_scoring_is_bitwise_the_per_vertex_loop(case):
    rect, points = case
    for (lo, hi), column in zip(zip(rect.lo, rect.hi), points.T):
        for x in column.tolist():
            assert bits(normalize_mean(x, lo, hi)) == bits(normalize_mean_reference(x, lo, hi))
            for kind in KINDS:
                assert bits([measure(kind, x, lo, hi)]) == bits([measure_reference(kind, x, lo, hi)])
    for kind in KINDS:
        want = [combined_reference(kind, p, rect) for p in points]
        assert bits(_scores(kind, *_weights(points, rect.lo, rect.hi))) == bits(want)
        assert bits([combined(kind, p, rect) for p in points]) == bits(want)
        f = SupportFace(direction2(0.0), 0.0, 1, np.zeros((1, 1)), vertices=points)
        dot, ring = _weights(f.vertices, rect.lo, rect.hi)
        scores = _scores(kind, dot, ring)
        (i,) = _best_rows(kind.sign * scores, [0])
        value, dot, ring = float(scores[i]), dot[i], ring[i]
        vertex, want_value = best_vertex_reference(kind, f, rect, kind.sense)
        want_dot, want_ring = _weights(vertex[None], rect.lo, rect.hi)
        assert bits([value]) == bits([want_value])
        assert bits(dot) + bits(ring) == bits(want_dot[0]) + bits(want_ring[0])


def test_array_scoring_is_bitwise_on_many_interior_points():
    # libm's log and pow differ from numpy's vectorized ones in the last ulp on
    # a small share of arguments, so bitwise equality needs many of them
    rng = np.random.default_rng(13)
    rect = Hyperrect(lo=(-1.0, 0.0, 2.0), hi=(2.0, 0.5, 6.0))
    lo, hi = np.array(rect.lo), np.array(rect.hi)
    points = lo + rng.uniform(size=(20000, 3)) * (hi - lo)
    for kind in KINDS:
        want = [combined_reference(kind, p, rect) for p in points]
        assert bits(_scores(kind, *_weights(points, rect.lo, rect.hi))) == bits(want)


def _raised(fn):
    try:
        fn()
    except Exception as err:  # the type and message are compared
        return type(err), str(err)
    return None


@given(
    st.floats(-2.0, 3.0) | st.just(math.nan) | st.just(-0.5) | st.just(2.5),
    st.floats(-1.0, 1.0),
    st.floats(0.0, 2.0) | st.just(bounds.RANGE_TOL),
)
@settings(max_examples=200, deadline=None)
def test_array_scoring_raises_as_the_per_vertex_loop(x, lo, width):
    # zero-width intervals raise DegenerateRange, coordinates past the slack
    # (NaN included) ValueError, the first bad coordinate in vertex order first
    hi = lo + width
    rect = Hyperrect(lo=(0.0, lo), hi=(1.0, hi))
    points = np.array([[0.5, x], [x, 0.5]])
    for kind in KINDS:
        want = _raised(lambda: [combined_reference(kind, p, rect) for p in points])
        assert _raised(lambda: _scores(kind, *_weights(points, rect.lo, rect.hi))) == want
        assert _raised(lambda: measure(kind, x, lo, hi)) == _raised(lambda: measure_reference(kind, x, lo, hi))
    assert _raised(lambda: normalize_mean(x, lo, hi)) == _raised(lambda: normalize_mean_reference(x, lo, hi))


POOL = st.sampled_from([0.0, 1.0, 2.0, 2.0, 3.0]) | st.floats(-1.0, 1.0)  # few distinct values, for ties
SIGN = {MIN: -1.0, MAX: 1.0}  # local_optima and _best_rows take oriented values


@st.composite
def grid_values(draw):
    """A grid, a ring of K' steps or a (K, K') lat-long grid with K >= 2, and one value per direction."""
    if draw(st.booleans()):
        grid = draw(st.integers(8, 40))
    else:
        grid = (draw(st.integers(2, 7)), draw(st.integers(8, 12)))
    return grid, np.array([draw(POOL) for _ in grid_nodes(grid)])


@given(grid_values(), st.sampled_from([MIN, MAX]))
@settings(max_examples=300, deadline=None)
def test_local_optima_match_the_double_loop(case, sense):
    grid, values = case
    assert local_optima(SIGN[sense] * values, grid).tolist() == local_optima_reference(values, grid, sense)


@pytest.mark.parametrize("sense", [MIN, MAX])
def test_local_optima_flat_grid_keeps_every_node(sense):
    for grid in (8, (4, 8)):
        values = np.zeros(len(grid_nodes(grid)))
        want = list(range(len(values)))
        assert local_optima(SIGN[sense] * values, grid).tolist() == local_optima_reference(values, grid, sense) == want


def test_local_optima_compare_a_pole_with_its_whole_ring():
    """A pole below column 0 of its ring but above another column of it is no minimum."""
    grid = (4, 8)
    values = np.full(len(grid_nodes(grid)), 3.0)
    values[0] = 1.0
    values[1:9] = 2.0
    values[1 + 4] = 0.0
    got = local_optima(-values, grid).tolist()
    assert 0 not in got and 5 in got
    assert got == local_optima_reference(values, grid, MIN)


@st.composite
def segments(draw):
    """Score segments of 1 to 12 values each, as a sweep's faces hold vertices."""
    return [np.array([draw(POOL) for _ in range(draw(st.integers(1, 12)))]) for _ in range(draw(st.integers(1, 8)))]


@given(segments(), st.sampled_from([MIN, MAX]))
@settings(max_examples=300, deadline=None)
def test_best_rows_is_each_segments_first_argmin_or_argmax(values, sense):
    scores = np.concatenate(values)
    starts = np.cumsum([0] + [len(v) for v in values[:-1]])
    pick = np.argmin if sense == MIN else np.argmax
    want = [int(start + pick(v)) for start, v in zip(starts, values)]
    assert _best_rows(SIGN[sense] * scores, starts).tolist() == want
