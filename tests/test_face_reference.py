"""The face layer's array code against its per-vertex reference path.

``numrange._dedupe`` must keep the same rows in the same order as the cell
and greedy loops of ``oracles.dedupe_reference``, bitwise, so a -0.0 kept in
place of a 0.0 fails. ``numrange.face`` reads its compressed operators from
the blocks' bands, while ``oracles.face_vertices_reference`` compresses the
dense operators and builds one spinor, one coordinate and one certification
per vertex; the two round differently, so a face must have the reference's
vertex count, and each coordinate i must lie within
1e-13 max(1, |eig_min_i|, |eig_max_i|) of the reference's.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    cells_reference,
    cluster_compressions,
    cluster_pairs_reference,
    dedupe_reference,
    faces_reference,
    face_vertices_reference,
)
from specrange import numrange
from specrange.linalg import make_hermitian
from specrange.numrange import diag_directions, direction2, direction3, face, support, sweep_directions
from specrange.spinops import (
    HalfInt,
    ObservableVec,
    anticomm_vec,
    j_triple,
    jsq_pair,
    ladder_combo,
    power_vec,
    scale_uniform,
)


def assert_same_bits(got: np.ndarray, want: np.ndarray):
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def assert_close_vertices(vec, got: np.ndarray, want: np.ndarray):
    """Equal counts, and each coordinate within 1e-13 of its operator's spectral scale."""
    assert got.shape == want.shape
    ends, _ = vec.spectral_ends
    tol = 1e-13 * np.maximum(1.0, np.abs(ends).max(axis=1))
    assert np.all(np.abs(got - want) <= tol)


# --- dedupe ------------------------------------------------------------------

# 1e-8 is the face's tolerance at unit scale; 1e-10 and 0.3 are a finer and a coarser cell
TOLS = (1e-8, 1e-10, 0.3)


def _offsets(tol: float) -> list[float]:
    """Copy offsets: exact duplicates, near-duplicates at tol (1 +- 1e-15), half and whole cells."""
    near = [tol * (1 - 1e-15), tol * (1 + 1e-15), tol, tol / 2]
    return [0.0, *near, *(-x for x in near)]


@st.composite
def clouds(draw):
    """Anchors five cells apart on a lattice, each with a few near copies, shuffled.

    A copy moves each coordinate by an offset, by one ulp (which can cross a
    cell boundary), or turns a 0.0 into -0.0.
    """
    tol = draw(st.sampled_from(TOLS))
    n = draw(st.sampled_from((2, 3)))
    count = draw(st.integers(1, 70))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cells = np.array(np.unravel_index(rng.choice(9**n, size=count, replace=False), (9,) * n)).T - 4
    anchors = cells * (5 * tol)
    offsets = _offsets(tol)
    rows = [anchors]
    for anchor in anchors:
        for _ in range(int(rng.integers(0, 3))):
            copy = anchor.copy()
            for i in range(n):
                kind = int(rng.integers(0, 4))
                if kind == 0:
                    copy[i] += offsets[int(rng.integers(len(offsets)))]
                elif kind == 1:
                    copy[i] = np.nextafter(copy[i], math.inf if rng.integers(2) else -math.inf)
                elif kind == 2 and copy[i] == 0.0:
                    copy[i] = -copy[i]
            rows.append(copy[None])
    points = np.vstack(rows)
    return points[rng.permutation(len(points))], tol


@given(clouds())
@settings(max_examples=300, deadline=None)
def test_dedupe_matches_reference_loops(cloud):
    points, tol = cloud
    assert_same_bits(numrange._first_in_cell(points, tol), cells_reference(points, tol))
    assert_same_bits(numrange._dedupe(points, tol), dedupe_reference(points, tol))


def _line(count: int, tol: float) -> np.ndarray:
    return np.array([[3.0 * k * tol, -2.0 * k * tol] for k in range(count)])


@pytest.mark.parametrize("tol", [1e-8, 1e-10])
@pytest.mark.parametrize(
    "survivors, kept",
    [(1, 1), (2, 1), (64, 63), (65, 64)],
    ids=["1-survivor", "2-survivors", "64-survivors", "65-survivors"],
)
def test_dedupe_cap_both_sides(survivors, kept, tol):
    """survivors - 1 separated points plus a copy of the first one ulp below its cell.

    The cell pass keeps the copy, so `survivors` rows reach the greedy pass,
    which merges the copy into the first row at any count: no cap on either
    side of 64 rows skips it. A 1-survivor cloud is one point repeated.
    """
    if survivors == 1:
        points = np.repeat(_line(1, tol) + 0.5 * tol, 5, axis=0)
    else:
        base = _line(survivors - 1, tol) + 7 * tol
        base[0] = np.floor(base[0] / tol) * tol  # on a cell edge; its copy sits one ulp below
        points = np.vstack([base, np.nextafter(base[:1], -math.inf)])
        assert len(cells_reference(points, tol)) == survivors
    got = numrange._dedupe(points, tol)
    assert len(got) == kept
    assert_same_bits(got, dedupe_reference(points, tol))


def test_dedupe_keeps_first_signed_zero():
    points = np.array([[-0.0, 0.0], [0.0, -0.0], [0.0, 0.0], [1.0, 1.0]])
    got = numrange._dedupe(points, 1e-10)
    assert_same_bits(got, dedupe_reference(points, 1e-10))
    assert_same_bits(got[0], np.array([-0.0, 0.0]))


# --- faces against the per-direction path --------------------------------------

# sets whose faces must equal oracles.faces_reference bitwise, each on its
# sweep grid: jsq2d has cross-block doublets, in-block doublets at phi in
# (pi, 3 pi/2) whose block re-solves with more values, and doublets whose
# segment collapses to a point; ladder gamma = 3 has three blocks, gamma = 25
# at 2j = 40 has 25; the null ladder pair (gamma >= d, every operator zero)
# has one block per position, and every cluster is the whole space
BITWISE_SETS = {
    **{f"jsq2d-{t}": (lambda t=t: jsq_pair(HalfInt(t)), 360) for t in (3, 5, 20, 60, 100)},
    "ladder2-9": (lambda: ladder_combo(HalfInt(9), 2), 360),
    "ladder3-12": (lambda: ladder_combo(HalfInt(12), 3), 360),
    "ladder25-40": (lambda: ladder_combo(HalfInt(40), 25), 360),
    "ladder-null-6": (lambda: ladder_combo(HalfInt(6), 9), 360),
    "jpow3-20": (lambda: scale_uniform(power_vec(HalfInt(20), 3), 1e-3), (12, 24)),
    **{f"anticomm-{t}": (lambda t=t: anticomm_vec(HalfInt(t), 1), (12, 24)) for t in (2, 3, 20)},
    "J-5": (lambda: j_triple(HalfInt(5)), (12, 24)),
}
_BUILT = {}


def bitwise_set(label: str):
    """The set and its sweep directions, built once per process."""
    if label not in _BUILT:
        build, grid = BITWISE_SETS[label]
        vec = build()
        _BUILT[label] = vec, sweep_directions(vec.n, grid)
    return _BUILT[label]


def assert_same_support(got, want):
    """lambda_max, multiplicity, gap and eigenbasis equal bitwise."""
    mine, theirs = ((repr(sf.lambda_max), sf.multiplicity, repr(sf.gap)) for sf in (got, want))
    assert mine == theirs
    assert_same_bits(got.eigenbasis, want.eigenbasis)


def assert_same_faces(got, want):
    """Equal support data, and vertices equal bitwise."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert_same_support(g, w)
        assert_same_bits(g.vertices, w.vertices)


def cluster_kinds(vec, records) -> list[str]:
    """Each record's cluster kind: "one" state, one state in each of "several blocks", or "in-block" several."""
    owners = np.zeros(vec.dim, dtype=int)
    for k, block in enumerate(vec.blocks):
        owners[block.index] = k
    kinds = []
    for sf in records:
        homes = [int(owners[np.flatnonzero(col)[0]]) for col in sf.eigenbasis.T]
        kinds.append("one" if len(homes) == 1 else "several blocks" if len(set(homes)) == len(homes) else "in-block")
    return kinds


@pytest.mark.parametrize("label", list(BITWISE_SETS))
def test_faces_match_per_direction_path_bitwise(label):
    vec, directions = bitwise_set(label)
    assert_same_faces(numrange.faces(vec, directions), faces_reference(vec, directions))


def test_bitwise_sets_cover_every_cluster_kind():
    """The jsq2d sweeps hold every kind, and doublets whose segment collapses to a point.

    An in-block doublet fills its block's first two values, so the block
    re-solves with more; they lie at phi in (pi, 3 pi/2).
    """
    found = []
    for t in (20, 60, 100):
        vec, directions = bitwise_set(f"jsq2d-{t}")
        records = numrange.faces(vec, directions)
        found += [(kind, sf.direction.phi, len(sf.vertices)) for kind, sf in zip(cluster_kinds(vec, records), records)]
    assert {kind for kind, _, _ in found} == {"one", "several blocks", "in-block"}
    assert all(math.pi < phi < 1.5 * math.pi for kind, phi, _ in found if kind == "in-block")
    assert any(kind != "one" and count == 1 for kind, _, count in found)


@given(st.sampled_from(list(BITWISE_SETS)), st.data())
@settings(max_examples=60, deadline=None)
def test_faces_of_any_direction_subset_match_bitwise(label, data):
    """A face does not depend on the other directions of its call, down to the bits."""
    vec, directions = bitwise_set(label)
    picks = data.draw(st.lists(st.integers(0, len(directions) - 1), min_size=1, max_size=24))
    subset = [directions[k] for k in picks]
    assert_same_faces(numrange.faces(vec, subset), faces_reference(vec, subset))


@pytest.mark.parametrize("gamma", [2, 4])
@pytest.mark.parametrize("twice", [4, 8, 16, 20])
def test_block_spanning_3d_faces_match_pair_path(gamma, twice):
    """jpow gamma even: a doublet across the parity blocks is a direct sum, built by the pair path as in one block.

    Its compressed operators are diagonal, and the library builds them with
    the same pair rule as the reference, so every face matches bitwise.
    """
    vec = power_vec(HalfInt(twice), gamma)
    directions = sweep_directions(3, (12, 24))
    got = numrange.faces(vec, directions)
    assert "several blocks" in cluster_kinds(vec, got)
    assert_same_faces(got, faces_reference(vec, directions))


def test_faces_of_mixed_multiplicities_match_bitwise():
    """One call whose clusters hold 1, 2 and 9 states: jpow gamma = 2 at 2j = 8 on its grid and the body diagonals.

    Each multiplicity has its own basis stack, and every face matches the
    per-direction path bitwise whatever else the call holds.
    """
    vec = power_vec(HalfInt(8), 2)
    directions = sweep_directions(3, (12, 24)) + diag_directions()
    got = numrange.faces(vec, directions)
    assert {1, 2, 9} <= {sf.multiplicity for sf in got}
    assert_same_faces(got, faces_reference(vec, directions))


@pytest.mark.parametrize("twice", range(2, 21))
def test_body_diagonal_rings_match_per_direction_path(twice):
    """jpow gamma = 2 at the body diagonals: at the first, eta.E is scalar, so the cluster is all of C^d.

    That cluster has two free directions and d >= 3 states, so its face is
    swept on a ring of INNER_STEPS segments (the ring recursion): the ring's
    directions are solved in one stacked call, and its segments of each size
    in one more. At 2j = 2 the ring's vertices dedupe to three. Every face
    has the reference's vertex count and vertices within 1e-13 of the
    spectral scale, and equals it bitwise.
    """
    vec = power_vec(HalfInt(twice), 2)
    directions = diag_directions()
    got, want = numrange.faces(vec, directions), faces_reference(vec, directions)
    assert got[0].multiplicity == vec.dim
    assert twice == 2 or len(got[0].vertices) >= numrange.INNER_STEPS
    for g, w in zip(got, want):
        assert_close_vertices(vec, g.vertices, w.vertices)
    assert_same_faces(got, want)


# --- face vertices -----------------------------------------------------------

# anticomm gamma = 1, j = 2: ring faces that refinement solves near the body
# diagonals, with the ring's 64 vertices deduped to 64, 17, 13, 13, 9 and 1
ANTICOMM_RING_ANGLES = [
    (0.9552109551667161, 3.926990816987241),
    (0.9553164432549975, 3.926990816987241),
    (0.9553167246843652, 3.926990816987241),
    (2.1862759289054283, 2.356194490192345),
    (0.9553165507514506, 3.926990816987241),
    (0.9553166171879122, 3.926990816987241),
]


@pytest.mark.parametrize("theta, phi", ANTICOMM_RING_ANGLES)
def test_face_anticomm_rings_match_reference(theta, phi):
    """Near-circular doublet ellipses, whose two in-plane singular values differ by 5e-5 down to 4e-10.

    The SVD fixes such a ring's in-plane axes only to that relative split,
    so a ring sampled from them would rotate with rounding-level changes of
    the compressed pair; the ring starts at a support point instead.
    """
    vec = anticomm_vec(HalfInt(4), 1)
    direction = direction3(theta, phi)
    f = face(vec, direction)
    assert f.multiplicity == 2
    assert_close_vertices(vec, f.vertices, face_vertices_reference(vec, direction))


def test_face_jsq2d_doublets_match_reference():
    """j = 50 on 360 steps: the first doublet across the two parity blocks, and the first within one."""
    vec = jsq_pair(HalfInt(100))
    owners = np.zeros(vec.dim, dtype=int)
    for k, block in enumerate(vec.blocks):
        owners[block.index] = k
    found = {}
    for direction in sweep_directions(2, 360):
        sf = support(vec, direction)
        if sf.multiplicity == 2:
            homes = {int(owners[np.flatnonzero(col)[0]]) for col in sf.eigenbasis.T}
            found.setdefault(len(homes) == 2, direction)
    assert set(found) == {True, False}
    for direction in found.values():
        assert_close_vertices(vec, face(vec, direction).vertices, face_vertices_reference(vec, direction))


def test_face_jpow4_ellipse_and_segment_match_reference():
    """jpow gamma = 4 at j = 2: an ellipse at a body diagonal, a rank-1 segment at the north pole."""
    vec = power_vec(HalfInt(4), 4)
    for direction, count in ((diag_directions()[0], 64), (direction3(0.0, 0.0), 2)):
        vertices = face(vec, direction).vertices
        assert len(vertices) == count
        assert_close_vertices(vec, vertices, face_vertices_reference(vec, direction))


def _generic_doublet_vec() -> ObservableVec:
    rng = np.random.default_rng(5)
    dense = [rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) for _ in range(2)]
    mats = [(a + a.conj().T) / 2 for a in dense] + [np.diag([1.0, 1.0, 0.0]).astype(complex)]
    return ObservableVec(ops=tuple(make_hermitian(m, f"M{i}") for i, m in enumerate(mats)), j=HalfInt(2), kind="J")


def test_face_generic_doublet_matches_reference():
    """Seeded dense complex operators with an exactly degenerate top pair at the north pole.

    No entry of the compressed pair is zero, so every ring coordinate is a
    full three-term product; the ring must round as one matrix-vector product
    per vertex, which a single matrix-matrix product need not.
    """
    vec = _generic_doublet_vec()
    direction = direction3(0.0, 0.0)
    f = face(vec, direction)
    assert f.multiplicity == 2
    assert len(f.vertices) == numrange.INNER_STEPS
    assert_close_vertices(vec, f.vertices, face_vertices_reference(vec, direction))


@pytest.mark.parametrize(
    "vec, direction",
    [
        (_generic_doublet_vec(), direction3(0.0, 0.0)),
        (anticomm_vec(HalfInt(4), 1), direction3(*ANTICOMM_RING_ANGLES[0])),
        (power_vec(HalfInt(4), 4), diag_directions()[0]),
    ],
    ids=["generic", "anticomm", "jpow4"],
)
def test_ring_states_match_reference(vec, direction):
    """The batched ring against one spinor and one coordinate per vertex from the dense compression.

    Coordinates are held to 1e-13 of each operator's spectral scale. A ring
    of radius r fixes its states only to the coordinates' rounding over r,
    and the anticomm ring's r is 1.2e-4, so the states in C^d are held to
    1e-11 of the reference's; they only decide extreme certification. Each
    state must also realize its vertex under the dense operators.
    """
    sf = support(vec, direction)
    _, compressed = cluster_compressions(vec, [direction])
    fixed = [direction.eta]
    [(coords, states)] = numrange._cluster_faces(compressed[0][None], np.array([fixed]), numrange.DEG_TOL_DEFAULT)
    pairs = cluster_pairs_reference(vec.mats, sf.eigenbasis, fixed, numrange.DEG_TOL_DEFAULT)
    assert len(pairs) == numrange.INNER_STEPS
    assert_close_vertices(vec, coords, np.array([point for point, _ in pairs]))
    lifted = sf.eigenbasis @ states
    assert np.allclose(lifted, np.array([psi for _, psi in pairs]).T, rtol=0, atol=1e-11)
    realized = np.array([np.real(np.sum(lifted.conj() * (m @ lifted), axis=0)) for m in vec.mats]).T
    assert_close_vertices(vec, realized, coords)


def test_face_thickened_doublet_matches_reference():
    """A top pair split by 1e-10 < deg_tol whose compressed operators span all three Pauli axes.

    The rank-3 branch adds the third singular direction's two vertices to the ring.
    """
    sx = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=complex)
    sy = np.array([[0, -1j, 0], [1j, 0, 0], [0, 0, 0]])
    top = np.diag([1.0, 1.0 - 1e-10, 0.0]).astype(complex)
    ops = tuple(make_hermitian(m, f"M{i}") for i, m in enumerate((sx, sy, top)))
    vec = ObservableVec(ops=ops, j=HalfInt(2), kind="J")
    direction = direction3(0.0, 0.0)
    f = face(vec, direction)
    assert f.multiplicity == 2
    assert len(f.vertices) > numrange.INNER_STEPS
    assert_close_vertices(vec, f.vertices, face_vertices_reference(vec, direction))


def test_face_certified_extreme_matches_reference():
    vec = j_triple(HalfInt(4))
    direction = direction3(math.pi / 2, 0.0)
    f = face(vec, direction)
    assert f.vertices[0, 0] == vec.ops[0].eig_max
    assert_close_vertices(vec, f.vertices, face_vertices_reference(vec, direction))


def test_face_collision_pushed_inward_matches_reference():
    """B's top value rounds to 1.0, which e0 attains bitwise, yet e0 is 1e-8 from B's top eigenvector.

    The residual fails, so the coordinate is pushed 1e-12 * width inside.
    """
    a = make_hermitian(np.diag([1.0, -1.0]).astype(complex), "A")
    b = make_hermitian(np.array([[1.0, 1e-8], [1e-8, 0.0]], dtype=complex), "B")
    assert b.eig_max == 1.0
    vec = ObservableVec(ops=(a, b), j=HalfInt(1), kind="J")
    direction = direction2(0.0)
    f = face(vec, direction)
    width = max(1.0, b.eig_max - b.eig_min)
    assert f.vertices[0, 1] == 1.0 - 1e-12 * width
    assert f.vertices[0, 0] == 1.0
    assert_close_vertices(vec, f.vertices, face_vertices_reference(vec, direction))
