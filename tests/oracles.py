"""Reference oracles for the test suite.

``analytic_lambda_oracle`` gives lambda_max(phi) of cos(phi) Jx^2 + sin(phi) Jy^2
in closed form for small j; ``char_coeffs`` gives characteristic-polynomial
coefficients from traces of matrix powers. Neither uses an eigendecomposition,
so the tests can hold the eigensolver against them.

``dedupe_reference`` and ``face_vertices_reference`` are the face layer's
vertex post-processing as per-vertex Python loops: the cell and greedy
dedupe loops, one Bloch spinor and one matrix-vector product per ring
direction, and one extreme-certification pass per vertex. They compress
the dense operators, while the library reads its compressions from the
blocks' bands, so the library's faces match them to a tolerance.

``faces_reference`` is ``numrange.faces`` one direction at a time: each
block's top values merged per direction in a Python loop that re-solves a
block while its lowest computed value is still in the cluster
(``solve_reference``), every cluster's operators compressed into a dense
(n, m, m) array with exact zeros between the columns of different blocks
(``compressed_reference``), and every face built on its own by
``cluster_vertices_reference``: the face builder one cluster at a time, with
one eigensolve per ring direction and one recursive call per sub-face.
``numrange.faces`` merges the blocks' values as arrays, gathers one-state
faces in bulk and builds every other face of one cluster size in one stacked
``numrange._cluster_faces`` call; its faces equal these bitwise.

``normalize_mean_reference`` through ``local_optima_reference`` are the
scoring layer as per-vertex Python loops: one ``normalize_mean`` and one
``math`` call per coordinate, summed vertex by vertex, and the grid's local
optima found node by node against explicit neighbour sets (``grid_neighbors``).
``bounds`` scores in array code with the same ``math`` calls, so its values
match them bitwise.

``gradient_reference`` is ``bounds._gradient`` one coordinate at a time,
with a test of the measure's tag in each; ``bounds`` reads whole slope
arrays from ``MeasureKind.slopes`` and gives the same bits.

``collect_reference`` is the attaining-angle list as the scan that tests each
candidate against every angle kept so far. ``bounds._collect`` keeps every
grid angle uncompared, since grid angles lie a grid step apart, and tests
only the refined ends; it returns the same list.

``optimize_reference`` is ``optimize_bounds`` with each grid optimum refined
by its own sequential ascent (``ascend_reference``), one ``face`` solve and
one ``best_vertex`` scoring a step, measure after measure, each step's
direction from ``gradient_reference``, and its angles collected by
``collect_reference``. It compares values by their sense, where ``bounds``
maximizes oriented scores. ``bounds`` advances all ascents of a
table in lockstep rounds, one ``faces`` call a round, and ends every ascent
bitwise where this one does.

``membership_reference`` is the margin with lambda_max solved at every grid
direction; ``numrange.membership`` solves one direction of each pair
{eta, S eta} of the grid and gives the other the same value.

``commuting_polytope`` is the allowed region of a commuting set in closed
form: the hull of the joint eigenvalues' mean vectors, which a sweep of any
commuting set must reproduce.
"""

import functools
import math

import numpy as np

from specrange import bounds, numrange
from specrange.errors import DegenerateRange, DimensionMismatch, NoConvergence, SpecRangeError, UnsupportedJ
from specrange.linalg import HermObservable, band_top, block_top_eigenvalues, combine_matrix, eig_hermitian
from specrange.spinops import HalfInt

# --- closed-form top eigenvalues of cos(phi) Jx^2 + sin(phi) Jy^2 -----------

_SUPPORTED_ORACLE_TWICE = (2, 3, 4, 5, 6, 7, 8)
_ORACLE_FAMILY = "JSQ2D"


def _fg(phi: float) -> tuple[float, float]:
    return math.cos(phi) + math.sin(phi), math.cos(phi) - math.sin(phi)


def _cubic_branch(phi: float, lead: float, p_coef: float, q_coef: float) -> float:
    f, g = _fg(phi)
    p = p_coef * (f * f + 3 * g * g)
    q = q_coef * (f**3 - 9 * f * g * g)
    arg = min(1.0, max(-1.0, -q / 2.0 * math.sqrt(27.0 / p**3)))
    return lead * f + 2.0 * math.sqrt(p / 3.0) * math.cos(math.acos(arg) / 3.0)


def _oracle_j1(phi: float) -> float:
    c, s = math.cos(phi), math.sin(phi)
    return max(c, s, c + s)


def _oracle_j32(phi: float) -> float:
    f, g = _fg(phi)
    return 0.25 * (5 * f + 2 * math.sqrt(f * f + 3 * g * g))


def _oracle_j2(phi: float) -> float:
    f, g = _fg(phi)
    return 2 * f + math.sqrt(f * f + 3 * g * g)


def _oracle_j52(phi: float) -> float:
    return 0.25 * _cubic_branch(phi, 35.0 / 3.0, 112.0 / 3.0, 1280.0 / 27.0)


def _oracle_j3(phi: float) -> float:
    f, g = _fg(phi)
    if 0.0 <= phi < math.pi / 2:
        return 5 * f + math.sqrt(f * f + 15 * g * g)
    if math.pi / 2 <= phi <= 5 * math.pi / 4:
        return 0.5 * (7 * f - 3 * g + math.sqrt(8.0) * math.sqrt(2 * f * f - 3 * f * g + 3 * g * g))
    return 0.5 * (7 * f + 3 * g + math.sqrt(8.0) * math.sqrt(2 * f * f + 3 * f * g + 3 * g * g))


def _oracle_j72(phi: float) -> float:
    f, g = _fg(phi)
    p = 168.0 * (f * f + 3 * g * g)
    q = 512.0 * (f**3 - 9 * f * g * g)
    u0 = 48384.0 * (f * f + 3 * g * g) ** 2
    u1 = 5971968.0 * (3 * f**6 - 5 * f**4 * g**2 + 145 * f**2 * g**4 + 49 * g**6)
    arg = min(1.0, max(-1.0, u1 / (2.0 * math.sqrt(u0**3))))
    s = math.sqrt((p + math.sqrt(u0) * math.cos(math.acos(arg) / 3.0)) / 6.0)
    # radicand sign fixed so the branch reproduces the extreme eigenvalue
    # (checked against j^2 at phi=0 and (j(j+1)-1/4)/sqrt(2) at phi=pi/4)
    inner = -4.0 * s * s + 2.0 * p - q / s
    return 0.25 * (21 * f + s + 0.5 * math.sqrt(max(0.0, inner)))


def _oracle_j4(phi: float) -> float:
    return 0.5 * _cubic_branch(phi, 40.0 / 3.0, 208.0 / 3.0, 4480.0 / 27.0)


_ORACLES = {
    2: _oracle_j1,
    3: _oracle_j32,
    4: _oracle_j2,
    5: _oracle_j52,
    6: _oracle_j3,
    7: _oracle_j72,
    8: _oracle_j4,
}


def analytic_lambda_oracle(family: str, j: HalfInt, phi: float) -> float:
    """Closed-form lambda_max(phi) for the planar Jx^2/Jy^2 sweep.

    Supported for j in {1, 3/2, 2, 5/2, 3, 7/2, 4}.
    """
    if family != _ORACLE_FAMILY:
        raise ValueError(f"oracle only covers family {_ORACLE_FAMILY!r}, got {family!r}")
    if j.twice not in _SUPPORTED_ORACLE_TWICE:
        raise UnsupportedJ(f"no closed form for j={j}")
    phi = math.fmod(phi, 2 * math.pi)
    if phi < 0:
        phi += 2 * math.pi
    return _ORACLES[j.twice](phi)


def char_coeffs(obs: HermObservable) -> np.ndarray:
    """Characteristic-polynomial coefficients S_0..S_d via the Newton recursion.

    S_l are the elementary symmetric functions of the eigenvalues, computed
    from traces of matrix powers: S_0 = 1, S_l = (1/l) sum_{i=1..l}
    (-1)^(i-1) tr(A^i) S_{l-i}.
    """
    d = obs.dim
    power_traces = np.empty(d + 1)
    acc = np.eye(d, dtype=np.complex128)
    for i in range(1, d + 1):
        acc = acc @ obs.mat
        power_traces[i] = float(np.real(np.trace(acc)))
    coeffs = np.empty(d + 1)
    coeffs[0] = 1.0
    for l in range(1, d + 1):
        s = 0.0
        for i in range(1, l + 1):
            s += (-1.0) ** (i - 1) * power_traces[i] * coeffs[l - i]
        coeffs[l] = s / l
    return coeffs


# --- the face layer's per-vertex path ------------------------------------------


def cells_reference(points: np.ndarray, tol: float) -> np.ndarray:
    """The first point of each floor(c / tol) cell, in input order."""
    seen: dict[tuple[int, ...], bool] = {}
    keep = []
    for idx, p in enumerate(points):
        key = tuple(int(math.floor(c / tol)) for c in p)
        if key not in seen:
            seen[key] = True
            keep.append(idx)
    return points[keep]


def dedupe_reference(points: np.ndarray, tol: float) -> np.ndarray:
    """The cell pass, then a greedy pass over its survivors."""
    if len(points) <= 1:
        return points
    points = cells_reference(points, tol)
    kept: list[np.ndarray] = []
    for p in points:
        if not any(np.max(np.abs(p - q)) <= tol for q in kept):
            kept.append(p)
    return np.array(kept)


def _bloch_spinor(n: np.ndarray) -> np.ndarray:
    """The spinor of unit Bloch vector n, from the chart of n's hemisphere (up to a phase)."""
    x, y, z = (float(c) for c in n)
    if z >= 0.0:
        return np.array([1.0 + z, complex(x, y)], dtype=np.complex128) / math.sqrt(2.0 * (1.0 + z))
    return np.array([complex(x, -y), 1.0 - z], dtype=np.complex128) / math.sqrt(2.0 * (1.0 - z))


def _pair_cluster_pairs(lift: np.ndarray, compressed, free: np.ndarray, steps: int) -> list:
    center = np.array([float(np.real(b[0, 0] + b[1, 1])) / 2.0 for b in compressed])
    rows = np.array(
        [
            [
                float(np.real(b[1, 0])),
                float(np.imag(b[1, 0])),
                float(np.real(b[0, 0] - b[1, 1])) / 2.0,
            ]
            for b in compressed
        ]
    )
    u, sig, vt = np.linalg.svd(rows)
    cut = 1e-12 * max(1.0, float(sig[0]), float(np.max(np.abs(center))))
    rank = int(np.sum(sig > cut))
    u, w = free
    if rank == 1:
        # the end whose image reaches further along the first free direction
        # of mean space first, along the second on a tie
        along_u, along_w = float(u @ (rows @ vt[0])), float(w @ (rows @ vt[0]))
        first = along_u > 0.0 or (along_u == 0.0 and along_w >= 0.0)
        bloch_dirs = [vt[0], -vt[0]] if first else [-vt[0], vt[0]]
    else:
        # start at the support point along the first free direction of mean
        # space, turning toward the second
        start = rows.T @ u
        start = start - (start @ vt[2]) * vt[2]
        start = start / np.linalg.norm(start)
        turn = np.cross(vt[2], start)
        if w @ (rows @ turn) < 0.0:
            turn = -turn
        angles = 2 * math.pi * np.arange(steps) / steps
        bloch_dirs = [math.cos(t) * start + math.sin(t) * turn for t in angles]
        if rank == 3:
            bloch_dirs.extend([vt[2], -vt[2]])
    pairs = []
    for n in bloch_dirs:
        psi = lift @ _bloch_spinor(n)
        pairs.append((center + rows @ n, psi))
    return pairs


def top_cluster_reference(spec, deg_tol: float) -> tuple[float, np.ndarray]:
    """lambda_max and the eigenvectors of the eigenvalues within deg_tol*max(1, |lambda_max|)."""
    lam = float(spec.values[-1])
    mult = int(np.sum(spec.values >= lam - deg_tol * max(1.0, abs(lam))))
    return lam, spec.vectors[:, len(spec.values) - mult :]


def cluster_vertices_reference(compressed: np.ndarray, fixed: list, deg_tol: float):
    """Vertices (k, n) of one cluster's face, and their states (m, k) in the cluster's basis.

    numrange._cluster_faces for a single cluster, face by face and direction
    by direction: compressed holds the operators compressed onto the
    cluster, (n, m, m), and fixed the unit directions whose hyperplane every
    state of it attains. A point when the cluster is one state or every
    compressed operator is scalar; with one free direction, the segment
    between the extreme eigenvectors of the free operator; with two, the
    analytic range of a pair when m = 2, else a ring of INNER_STEPS
    directions in the free plane, each top cluster compressed once more with
    its direction fixed and built by this function.
    """
    m = compressed.shape[1]
    if m == 1:
        return compressed[:, 0, 0].real[None], np.ones((1, 1))
    scale = max(1.0, float(np.max(np.abs(compressed))))
    diag = compressed[:, np.arange(m), np.arange(m)].real
    means = diag.sum(axis=1) / m
    if float(np.max(np.abs(compressed - means[:, None, None] * np.eye(m)))) <= 1e-10 * scale:
        return diag[:, 0][None], np.eye(m, 1)
    free = np.linalg.svd(np.array(fixed))[2][len(fixed) :]
    if len(free) == 1:
        ends = eig_hermitian(combine_matrix(free[0], compressed)).vectors[:, [0, -1]]
        return np.real(np.sum(ends.conj() * (compressed @ ends), axis=1)).T, ends
    if m == 2:
        return numrange._pair_cluster_vertices(compressed, free)
    parts = []
    for eta in numrange._RING @ free:
        _, top = top_cluster_reference(eig_hermitian(combine_matrix(eta, compressed)), deg_tol)
        inner = top.conj().T @ compressed @ top
        coords, states = cluster_vertices_reference((inner + inner.conj().transpose(0, 2, 1)) / 2.0, [*fixed, eta], deg_tol)
        parts.append((coords, top @ states))
    return np.vstack([coords for coords, _ in parts]), np.hstack([states for _, states in parts])


def cluster_pairs_reference(mats, lift: np.ndarray, fixed: list, deg_tol: float) -> list:
    """(vertex, state) pairs of the face spanned by lift, one list entry per vertex."""
    m = lift.shape[1]
    if m == 1:
        psi = lift[:, 0]
        return [(expectations(mats, psi), psi)]
    compressed = [lift.conj().T @ (mat @ lift) for mat in mats]
    compressed = [(b + b.conj().T) / 2.0 for b in compressed]
    scale = max(1.0, max(float(np.max(np.abs(b))) for b in compressed))
    means = [float(np.real(np.trace(b))) / m for b in compressed]
    if all(
        float(np.max(np.abs(b - mu * np.eye(m)))) <= 1e-10 * scale
        for b, mu in zip(compressed, means)
    ):
        psi = lift[:, 0]
        return [(expectations(mats, psi), psi)]
    free = np.linalg.svd(np.array(fixed))[2][len(fixed) :]
    if len(free) == 1:
        vectors = eig_hermitian(combine_matrix(free[0], compressed)).vectors
        ends = (lift @ vectors[:, 0], lift @ vectors[:, -1])
        return [(expectations(mats, psi), psi) for psi in ends]
    if m == 2:
        return _pair_cluster_pairs(lift, compressed, free, numrange.INNER_STEPS)
    pairs = []
    for direction in numrange.sweep_directions(2, numrange.INNER_STEPS):
        eta = direction.eta @ free
        _, top = top_cluster_reference(eig_hermitian(combine_matrix(eta, compressed)), deg_tol)
        pairs.extend(cluster_pairs_reference(mats, lift @ top, [*fixed, eta], deg_tol))
    return pairs


def certify_extremes_reference(ops, coords: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """One vertex: eig_min tested before eig_max, one break per coordinate."""
    out = coords.copy()
    for i, op in enumerate(ops):
        width = max(1.0, op.eig_max - op.eig_min)
        for ext in (op.eig_min, op.eig_max):
            if abs(out[i] - ext) <= numrange.EXTREME_WINDOW * width:
                scale = max(1.0, abs(op.eig_min), abs(op.eig_max))
                if float(np.linalg.norm(op.mat @ psi - ext * psi)) <= numrange.EXTREME_RESIDUAL * scale:
                    out[i] = ext
                elif out[i] == ext:
                    inward = 1e-12 * width
                    out[i] = ext + (inward if ext == op.eig_min else -inward)
                break
    return out


def face_vertices_reference(vec, direction, deg_tol: float = numrange.DEG_TOL_DEFAULT) -> np.ndarray:
    """numrange.face(vec, direction, deg_tol).vertices, one vertex at a time, from the dense operators."""
    sf = numrange.support(vec, direction, deg_tol)
    pairs = cluster_pairs_reference(vec.mats, sf.eigenbasis, [direction.eta], deg_tol)
    verts = [certify_extremes_reference(vec.ops, coords, psi) for coords, psi in pairs]
    scale = max(1.0, max(max(abs(op.eig_min), abs(op.eig_max)) for op in vec.ops))
    points = dedupe_reference(np.array(verts), numrange.DEDUP_TOL * scale)
    return numrange._reduce_collinear(points, numrange.DEDUP_TOL * scale)


# --- the face layer's per-direction path ----------------------------------------


def solve_reference(vec, directions, deg_tol: float):
    """Support records of many directions, and each block's part of their clusters, one direction at a time.

    Each block solves every direction's band for its top k = min(2, size)
    eigenpairs, doubling k while the block's lowest computed value is still
    within deg_tol*max(1, |lambda_max|) of the largest over all blocks. The
    record's lambda_max is then the largest top value of each block's last
    solve, the one its vectors come from. The cluster's columns ascend in
    value, ties by block, and the gap runs to the largest computed value below
    the cluster. Returns the records and, per block, the list of (direction
    number, the block's columns in the merged cluster, their eigenvectors in
    the block's space).
    """
    for direction in directions:
        if direction.n != vec.n:
            raise DimensionMismatch(f"direction has {direction.n} components, vector has {vec.n}")
    blocks = vec.blocks
    etas = np.array([direction.eta for direction in directions]).reshape(len(directions), vec.n)
    bands = [block.combine(etas) for block in blocks]
    solved = [[band_top(band, min(2, block.size)) for band in rows] for block, rows in zip(blocks, bands)]
    records = []
    members: list[list] = [[] for _ in blocks]
    for k, direction in enumerate(directions):
        lam = max(float(rows[k][0][-1]) for rows in solved)
        floor = lam - deg_tol * max(1.0, abs(lam))
        cluster = []  # (value, block number, column in the block's solve) of every value in the cluster
        below = []  # each block's largest value under the cluster
        for i, block in enumerate(blocks):
            values, vectors = solved[i][k]
            while values[0] >= floor and len(values) < block.size:
                values, vectors = band_top(bands[i][k], min(2 * len(values), block.size))
            solved[i][k] = values, vectors
            cut = int(np.searchsorted(values, floor))
            if cut:
                below.append(float(values[cut - 1]))
            cluster.extend((values[c], i, c) for c in range(cut, len(values)))
        lam = max(float(solved[i][k][0][-1]) for i in range(len(blocks)))
        cluster.sort(key=lambda entry: entry[0])
        basis = np.zeros((vec.dim, len(cluster)), dtype=np.complex128)
        owners = [i for _, i, _ in cluster]
        for col, (_, i, c) in enumerate(cluster):
            basis[blocks[i].index, col] = solved[i][k][1][:, c]
        for i in set(owners):
            cols = np.array([col for col, owner in enumerate(owners) if owner == i])
            members[i].append((k, cols, solved[i][k][1][:, -len(cols) :]))
        records.append(
            numrange.SupportFace(
                direction=direction,
                lambda_max=lam,
                multiplicity=len(cluster),
                eigenbasis=basis,
                gap=lam - max(below) if below else None,
            )
        )
    return records, members


def compressed_reference(vec, records, members) -> list[np.ndarray]:
    """Each record's operators compressed onto its cluster, (n, m, m), zeros between blocks' columns.

    Block.compress runs once per block and column count over every direction
    with that many of the block's columns.
    """
    out = [np.zeros((vec.n, sf.multiplicity, sf.multiplicity), dtype=np.complex128) for sf in records]
    for block, entries in zip(vec.blocks, members):
        groups = {}
        for entry in entries:
            groups.setdefault(len(entry[1]), []).append(entry)
        for group in groups.values():
            pieces = block.compress(np.stack([vectors for _, _, vectors in group]))
            for (k, cols, _), piece in zip(group, pieces):
                out[k][:, cols[:, None], cols] = piece
    return out


def cluster_compressions(vec, directions, deg_tol: float = numrange.DEG_TOL_DEFAULT):
    """The records of solve_reference and their compressed operators, one (n, m, m) array per record."""
    records, members = solve_reference(vec, directions, deg_tol)
    return records, compressed_reference(vec, records, members)


def faces_reference(vec, directions, deg_tol: float = numrange.DEG_TOL_DEFAULT) -> list:
    """numrange.faces with every face built by cluster_vertices_reference from its dense compression."""
    records, compressed = cluster_compressions(vec, directions, deg_tol)
    if not records:
        return []
    coords, states = [], []
    for sf, ops in zip(records, compressed):
        face_coords, face_states = cluster_vertices_reference(ops, [sf.direction.eta], deg_tol)
        coords.append(face_coords)
        states.append(face_states)
    offsets = np.cumsum([0, *(len(c) for c in coords)])

    def state(v):
        f = int(np.searchsorted(offsets, v, side="right")) - 1
        return records[f].eigenbasis @ states[f][:, v - offsets[f]]

    verts = numrange._certify_extremes(vec, np.vstack(coords), state)
    ends, _ = vec.spectral_ends
    tol = numrange.DEDUP_TOL * max(1.0, float(np.abs(ends).max()))
    for f, sf in enumerate(records):
        points = verts[offsets[f] : offsets[f + 1]]
        if len(points) > 1:
            points = numrange._reduce_collinear(numrange._dedupe(points, tol), tol)
        sf.vertices = points
    return records


# --- the scoring layer's per-vertex path ---------------------------------------


def normalize_mean_reference(x: float, lo: float, hi: float) -> tuple[float, float]:
    """Split x in [lo, hi] into the complementary weights (dot, ring)."""
    width = hi - lo
    if width <= bounds.RANGE_TOL:
        raise DegenerateRange(f"interval [{lo}, {hi}] has zero width")
    slack = bounds.CLAMP_TOL * max(1.0, width)
    if not lo - slack <= x <= hi + slack:  # NaN fails too
        raise ValueError(f"x={x} outside [{lo}, {hi}] beyond clamp tolerance")
    if x == lo:
        return 1.0, 0.0
    if x == hi:
        return 0.0, 1.0
    ring = (min(max(x, lo), hi) - lo) / width
    floor = bounds.RING_FLOOR
    if x > lo and ring < bounds.RING_RAMP:
        floor *= ring / bounds.RING_RAMP
    ring = min(max(ring, floor), 1.0 - bounds.RING_FLOOR)
    return 1.0 - ring, ring


def measure_reference(kind, x: float, lo: float, hi: float) -> float:
    dot, ring = normalize_mean_reference(x, lo, hi)
    if kind.tag == "h":
        out = 0.0
        for w in (dot, ring):
            if w > 0.0:
                out -= w * math.log(w)
        return out
    if kind.tag == "u":
        return dot**kind.kappa + ring**kind.kappa
    return max(dot, ring)


def combined_reference(kind, r, rect) -> float:
    """Sum of the per-coordinate measure over the mean vector r."""
    r = np.asarray(r, dtype=float)
    if r.shape != (rect.n,):
        raise ValueError(f"point shape {r.shape} does not match rect n={rect.n}")
    return sum(measure_reference(kind, float(x), lo, hi) for x, lo, hi in zip(r, rect.lo, rect.hi))


def best_vertex_reference(kind, f, rect, sense: str) -> tuple[np.ndarray, float]:
    """The face vertex that scores best for the measure, with its value."""
    vals = [combined_reference(kind, v, rect) for v in f.vertices]
    i = int(np.argmin(vals) if sense == bounds.MIN else np.argmax(vals))
    return f.vertices[i], vals[i]


def grid_nodes(grid) -> list[tuple[int, int]]:
    """The (theta step, phi step) of each direction of a grid, in sweep_directions order.

    A ring of K' steps is (0, 0) .. (0, K'-1); a (K, K') grid runs from the
    north pole (0, 0) through rows t = 1..K-1 of K' steps to the south pole
    (K, 0).
    """
    if not isinstance(grid, tuple):
        return [(0, p) for p in range(grid)]
    K, Kp = grid
    return [(0, 0), *((t, p) for t in range(1, K) for p in range(Kp)), (K, 0)]


@functools.lru_cache(maxsize=16)
def grid_neighbors(grid) -> list[list[int]]:
    """Each grid direction's neighbour indices: one phi step either way round its ring,
    and one theta step at the same phi; a pole neighbours every direction of its ring."""
    nodes = grid_nodes(grid)
    K, Kp = grid if isinstance(grid, tuple) else (None, grid)
    poles = {0, K} if K else set()

    def adjacent(a, b):
        (t, p), (u, q) = a, b
        if t == u:
            return t not in poles and (q - p) % Kp in (1, Kp - 1)
        return abs(t - u) == 1 and (p == q or t in poles or u in poles)

    return [[i for i, b in enumerate(nodes) if adjacent(a, b)] for a in nodes]


def local_optima_reference(values, grid, sense: str) -> list[int]:
    """The grid directions whose value is no worse than every neighbour's, node by node."""
    cmp = (lambda u, v: u <= v) if sense == bounds.MIN else (lambda u, v: u >= v)
    return [k for k, near in enumerate(grid_neighbors(grid)) if all(cmp(values[k], values[i]) for i in near)]


def collect_reference(evaluated, best: float):
    """The angles within VALUE_TOL of best, sorted; of those _same_angles matches, the first one met."""
    keep = []
    for angles, value in evaluated:
        if abs(value - best) <= bounds.VALUE_TOL and not any(bounds._same_angles(angles, kept) for kept in keep):
            keep.append(angles)
    return sorted(keep)


def best_vertex(kind, f, rect, sense: str) -> tuple[float, np.ndarray, np.ndarray]:
    """The best value of the measure over the face's vertices, with that vertex's weights (dot, ring)."""
    dot, ring = bounds._weights(f.vertices, rect.lo, rect.hi)
    vals = bounds._scores(kind, dot, ring)
    i = int(np.argmin(vals) if sense == bounds.MIN else np.argmax(vals))
    return float(vals[i]), dot[i], ring[i]


def gradient_reference(kind, dots: np.ndarray, rings: np.ndarray, rect) -> np.ndarray:
    """The gradient of combined at the point of weights (dots, rings), or its limit direction where a slope is unbounded.

    One coordinate at a time in Python floats, with w = hi - lo: h gives
    ln(dot/ring)/w, u_kappa gives kappa (ring^(kappa-1) - dot^(kappa-1))/w
    and umax sign(ring - dot)/w. At an exact endpoint h and u_kappa with
    kappa < 1 have unbounded slope; there the direction is the signs of the
    unbounded coordinates (+1 where ring = 0, -1 where dot = 0) and 0
    everywhere else.
    """
    grad = np.zeros(rect.n)
    steep = np.zeros(rect.n)
    unbounded = kind.tag == "h" or (kind.tag == "u" and kind.kappa < 1.0)
    for i, (dot, ring, lo, hi) in enumerate(zip(dots.tolist(), rings.tolist(), rect.lo, rect.hi)):
        width = hi - lo
        if unbounded and (dot == 0.0 or ring == 0.0):
            steep[i] = 1.0 if ring == 0.0 else -1.0
        elif kind.tag == "h":
            grad[i] = math.log(dot / ring) / width
        elif kind.tag == "u":
            grad[i] = kind.kappa * (ring ** (kind.kappa - 1.0) - dot ** (kind.kappa - 1.0)) / width
        else:
            grad[i] = np.sign(ring - dot) / width
    return steep if steep.any() else grad


def better(u: float, v: float, sense: str) -> bool:
    """u strictly better than v for a bound of this sense."""
    return u < v if sense == bounds.MIN else u > v


def ascend_reference(vec, start, kind, rect, deg_tol: float, solve=numrange.face):
    """Successive linearization from the grid face start, one solve(vec, direction, deg_tol) a step.

    Each step solves the face at the measure's gradient at the current best
    vertex and moves to that face's best vertex only if its value is strictly
    better. It stops when the value does not improve, when the gradient
    vanishes, when eta repeats within ANGLE_TOL, or after MAX_STEPS.
    """
    sense = kind.sense
    direction = start.direction
    value, dot, ring = best_vertex(kind, start, rect, sense)
    for _ in range(bounds.MAX_STEPS):
        g = gradient_reference(kind, dot, ring, rect)
        norm = float(np.linalg.norm(g))
        if norm == 0.0:
            break
        eta = g / norm if sense == bounds.MAX else -g / norm
        if np.linalg.norm(eta - direction.eta) <= bounds.ANGLE_TOL:
            break
        step = numrange.direction(eta)
        found, dot_new, ring_new = best_vertex(kind, solve(vec, step, deg_tol), rect, sense)
        if not better(found, value, sense):
            break
        direction, value, dot, ring = step, found, dot_new, ring_new
    return direction.angles, value


def optimize_reference(vec, boundary, kinds, solve=numrange.face) -> list:
    """optimize_bounds' results, each measure scored and refined on its own, one ascent after another."""
    rect = numrange.hyperrect(vec)
    points = boundary.all_vertices()
    starts = np.cumsum([0] + [len(f.vertices) for f in boundary.faces[:-1]])
    results = []
    for kind in kinds:
        sense = kind.sense
        scores = bounds._scores(kind, *bounds._weights(points, rect.lo, rect.hi))
        flat = (np.minimum if sense == bounds.MIN else np.maximum).reduceat(scores, starts)
        candidates = local_optima_reference(flat, boundary.grid, sense)
        candidates.sort(key=lambda k: flat[k], reverse=(sense == bounds.MAX))
        best = float(flat.min() if sense == bounds.MIN else flat.max())
        refined = []
        for k in candidates[: bounds.MAX_REFINE]:
            angles, v = ascend_reference(vec, boundary.faces[k], kind, rect, boundary.deg_tol, solve)
            refined.append((angles, v))
            if better(v, best, sense):
                best = v
        grid = [(f.direction.angles, v) for f, v in zip(boundary.faces, flat)]
        near = [(angles, v) for angles, v in grid if abs(v - best) <= bounds.VALUE_TOL]
        results.append(bounds.MeasureResult(kind, best, sense, collect_reference(near + refined, best)))
    return results


# --- membership at every grid direction ----------------------------------------


def membership_reference(vec, r, grid) -> float:
    """min over the grid of lambda_max(eta) - eta.r, one solve per direction."""
    etas = np.array([d.eta for d in numrange.sweep_directions(vec.n, grid)])
    return float(np.min(block_top_eigenvalues(etas, vec.blocks) - etas @ np.asarray(r, dtype=float)))


# --- the commuting polytope -----------------------------------------------------

# relative commutator tolerance, and the seed of the random combination
# diagonalized for the common eigenbasis
COMM_TOL = 1e-10
COMM_SEED = 20


class NotCommuting(SpecRangeError):
    """Operators do not mutually commute within tolerance."""


def expectations(mats, psi: np.ndarray) -> np.ndarray:
    """<psi|A_i|psi> for every matrix, one matrix-vector product each."""
    return np.array([float(np.real(psi.conj() @ (m @ psi))) for m in mats])


def commuting_polytope(vec) -> np.ndarray:
    """numrange.convex_hull of the diagonal mean vectors in a common eigenbasis.

    A random real combination is diagonalized to produce the simultaneous
    eigenbasis; the seed COMM_SEED is fixed so results are deterministic.
    NotCommuting when two operators do not commute within COMM_TOL of their
    scale, NoConvergence when none of 8 combinations diagonalizes every
    operator.
    """
    mats = vec.mats
    for i in range(len(mats)):
        for k in range(i + 1, len(mats)):
            a, b = mats[i], mats[k]
            scale = max(1.0, float(np.max(np.abs(a))) * float(np.max(np.abs(b))))
            if float(np.max(np.abs(a @ b - b @ a))) > COMM_TOL * scale:
                raise NotCommuting(f"{vec.ops[i].label!r} and {vec.ops[k].label!r} do not commute")
    rng = np.random.default_rng(COMM_SEED)
    for _ in range(8):
        coeffs = rng.normal(size=len(mats))
        basis = eig_hermitian(combine_matrix(coeffs, mats)).vectors
        offdiag = max(
            float(np.max(np.abs(b - np.diag(np.diag(b))))) for b in (basis.conj().T @ (m @ basis) for m in mats)
        )
        if offdiag <= 1e-8 * max(1.0, max(float(np.max(np.abs(m))) for m in mats)):
            break
    else:
        raise NoConvergence("no random combination of the operators diagonalized them all")
    return numrange.convex_hull(np.array([expectations(mats, basis[:, l]) for l in range(basis.shape[1])]))
