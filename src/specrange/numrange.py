"""Supporting-hyperplane sweep over Hermitian operator vectors.

For each unit direction eta the top eigenvalue of eta.E gives a supporting
hyperplane of the allowed region of mean vectors; the states attaining it
generate the touching face. A sweep is one call of ``faces`` over all its
directions: each block of the operator set forms and solves every direction's
band, the blocks' top clusters merge per direction (``support`` is that step
at one direction), and the operators are compressed onto each cluster from
the blocks' stored diagonals (``linalg.Block.compress``). Every face is built
from those small compressed operators alone, by its number of free
directions (_cluster_vertices): a point when they are scalar, a segment
when one direction is free, and with two the analytic range of a pair or a
ring of segments. ``face`` is ``faces`` at one direction.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NoConvergence, NonFinite, NotCommuting
from .linalg import band_top, block_top_eigenvalues, combine_matrix, eig_hermitian
from .spinops import ObservableVec

DEG_TOL_DEFAULT = 1e-8
DEDUP_TOL = 1e-8
COLLINEAR_TOL = 1e-10
# commuting-polytope test: relative commutator tolerance, and the seed of the
# random combination diagonalized for the common eigenbasis
COMM_TOL = 1e-10
COMM_SEED = 20
# degenerate-face reconstruction: the ring of directions a 2D face is swept on
# in its free plane, and the ring of Bloch directions of a doublet ellipse
INNER_STEPS = 64

# body-diagonal unit vectors (+1,+1,+1)/sqrt3 family with component product +1;
# the four directions where odd-dimensional sweeps go degenerate
DIAG_SIGNS = ((1, 1, 1), (-1, 1, -1), (-1, -1, 1), (1, -1, -1))


@dataclass(frozen=True)
class Direction:
    """Unit direction in mean-value space with its spherical angles."""

    eta: np.ndarray
    phi: float
    theta: float | None = None  # None for n=2

    @property
    def n(self) -> int:
        return len(self.eta)


def direction2(phi: float) -> Direction:
    eta = np.array([math.cos(phi), math.sin(phi)])
    return Direction(eta=eta, phi=phi)


def direction3(theta: float, phi: float) -> Direction:
    st = math.sin(theta)
    eta = np.array([st * math.cos(phi), st * math.sin(phi), math.cos(theta)])
    return Direction(eta=eta, phi=phi, theta=theta)


def diag_directions() -> list[Direction]:
    """The four body-diagonal directions (theta_l, phi_l) of the sweep."""
    out = []
    for signs in DIAG_SIGNS:
        theta = math.acos(signs[2] / math.sqrt(3.0))
        phi = math.atan2(signs[1], signs[0]) % (2 * math.pi)
        out.append(direction3(theta, phi))
    return out


def _checked_grid(n: int, grid):
    """grid as plain ints, or ValueError if it is not a sweep_directions grid for n operators."""
    if n == 2:
        if not isinstance(grid, numbers.Integral) or grid < 8:
            raise ValueError(f"a 2D grid is a step count >= 8, got {grid!r}")
        return int(grid)
    counts = isinstance(grid, tuple) and len(grid) == 2 and all(isinstance(g, numbers.Integral) for g in grid)
    if not counts or grid[0] < 4 or grid[1] < 8:
        raise ValueError(f"a 3D grid is a pair (theta_steps >= 4, phi_steps >= 8), got {grid!r}")
    return int(grid[0]), int(grid[1])


def sweep_directions(n: int, grid) -> list[Direction]:
    """The direction grid of every sweep.

    n = 2: grid is a step count K' >= 8, the ring phi_k' = 2 pi k'/K'.
    n = 3: grid is a pair (K, K') with K >= 4 and K' >= 8, the lat-long grid
    theta_k = k pi/K, phi_k' = 2 pi k'/K', in grid order: the north pole,
    rows k = 1..K-1 of K' directions, then the south pole. Any other grid
    raises ValueError.
    """
    grid = _checked_grid(n, grid)
    if n == 2:
        return [direction2(float(p)) for p in 2 * math.pi * np.arange(grid) / grid]
    K, Kp = grid
    phis = 2 * math.pi * np.arange(Kp) / Kp
    dirs = [direction3(0.0, 0.0)]
    for theta in np.linspace(0.0, math.pi, K + 1)[1:-1]:
        dirs.extend(direction3(float(theta), float(p)) for p in phis)
    return [*dirs, direction3(math.pi, 0.0)]


def split_grid(values: np.ndarray, grid: tuple[int, int]):
    """A 3D grid's per-direction array (first axis in sweep_directions order) as
    (north pole, its (K-1, K') block of rows k = 1..K-1 in phi order, south pole)."""
    K, Kp = grid
    return values[0], values[1:-1].reshape(K - 1, Kp, *values.shape[1:]), values[-1]


def sign_image(grid, signs) -> np.ndarray:
    """For each index k of the sweep_directions grid, the index of S eta_k, S = diag(signs).

    Integer arithmetic only: the phi column c goes to c, -c, steps/2 - c or
    c + steps/2 (mod steps) as S keeps or flips x and y, and when S flips z
    the poles swap and the rows reverse. S eta_k matches the grid's
    direction at the image to rounding. The identity when signs are all +1,
    and when S flips x on an odd phi count, which phi -> pi - phi and
    phi -> phi + pi do not map onto itself.
    """
    steps = grid[1] if isinstance(grid, tuple) else grid
    count = steps if not isinstance(grid, tuple) else 2 + (grid[0] - 1) * steps
    if all(s == 1 for s in signs) or (signs[0] < 0 and steps % 2):
        return np.arange(count)
    cols = (signs[0] * signs[1] * np.arange(steps) + (steps // 2 if signs[0] < 0 else 0)) % steps
    if not isinstance(grid, tuple):
        return cols
    north, rows, south = split_grid(np.arange(count), grid)
    if signs[2] < 0:
        north, rows, south = south, rows[::-1], north
    return np.concatenate([[north], rows[:, cols].ravel(), [south]])


def local_optima(values: np.ndarray, grid, cmp) -> np.ndarray:
    """The indices, ascending, of the grid directions whose value is cmp-no-worse than each neighbour's.

    values holds one value per direction of the sweep_directions grid; cmp is
    np.less_equal for minima or np.greater_equal for maxima, so ties count.
    Neighbours wrap in phi, adjacent rows meet at the same column, and a pole
    meets its whole adjacent row.
    """
    if not isinstance(grid, tuple):
        return np.flatnonzero(cmp(values, np.roll(values, 1)) & cmp(values, np.roll(values, -1)))
    north, rows, south = split_grid(values, grid)
    ok = cmp(rows, np.roll(rows, 1, axis=1)) & cmp(rows, np.roll(rows, -1, axis=1))
    ok[0] &= cmp(rows[0], north)
    ok[1:] &= cmp(rows[1:], rows[:-1])
    ok[:-1] &= cmp(rows[:-1], rows[1:])
    ok[-1] &= cmp(rows[-1], south)
    poles = cmp(north, rows[0]).all(), cmp(south, rows[-1]).all()
    return np.flatnonzero(np.concatenate([poles[:1], ok.ravel(), poles[1:]]))


@functools.lru_cache(maxsize=8)
def _grid_orbits(n: int, grid, group) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The grid's unit vectors, one index per orbit of the sign group, and each index's orbit number.

    grid as _checked_grid returns it, group as ObservableVec.sign_group.
    An orbit's representative is the smallest of an index's images
    sign_image(grid, S) over the group; the representatives ascend, so they
    are in grid order. Every array is read-only, as the cache shares it.
    """
    etas = np.array([d.eta for d in sweep_directions(n, grid)])
    orbit = np.min([sign_image(grid, signs) for signs in group], axis=0)
    solved, solution = np.unique(orbit, return_inverse=True)
    for array in (etas, solved, solution):
        array.flags.writeable = False
    return etas, solved, solution


@dataclass
class SupportFace:
    """Per-direction record: support value, eigenspace, and face vertices."""

    direction: Direction
    lambda_max: float
    multiplicity: int
    eigenbasis: np.ndarray  # (d, multiplicity)
    vertices: np.ndarray | None = None  # (k, n) mean vectors
    gap: float | None = None  # lambda_max minus next eigenvalue below the cluster
    exhausted: bool = False  # never set (every face is resolved); perfbench/tracer.py's census reads it

    @property
    def is_point(self) -> bool:  # False while vertices are unset, as in a support record
        return self.vertices is not None and len(self.vertices) == 1


@dataclass
class Boundary:
    """One sweep: a face per direction of sweep_directions(n, grid), in that order."""

    faces: list[SupportFace]
    grid: int | tuple[int, int]  # the sweep_directions grid, as membership takes it
    deg_tol: float = DEG_TOL_DEFAULT

    def all_vertices(self) -> np.ndarray:
        return np.vstack([f.vertices for f in self.faces])


@dataclass(frozen=True)
class Hyperrect:
    lo: tuple[float, ...]
    hi: tuple[float, ...]

    @property
    def n(self) -> int:
        return len(self.lo)

    def corners(self) -> np.ndarray:
        out = []
        for mask in range(2**self.n):
            out.append([self.hi[i] if mask >> i & 1 else self.lo[i] for i in range(self.n)])
        return np.array(out)


def support(vec: ObservableVec, direction: Direction, deg_tol: float = DEG_TOL_DEFAULT) -> SupportFace:
    """Top eigenvalue, its cluster multiplicity and eigenspace basis (no vertices): _solve at one direction."""
    return _solve(vec, [direction], deg_tol)[0][0]


def _solve(vec: ObservableVec, directions, deg_tol: float):
    """Support records of many directions, and each block's part of their clusters.

    vec.blocks holds the operators validated and band-packed once. Each block
    forms the bands of every direction in one call (Block.combine, whose rows
    do not depend on each other), and each band is solved for its top k
    eigenpairs only: k = min(2, size) at first, doubled while the block's
    lowest computed value is still inside the cluster, the values within
    deg_tol*max(1, |lambda_max|) of the largest over all blocks. The blocks
    then merge as one spectrum: the cluster's eigenvectors are embedded into
    C^d in ascending order of their values, and the gap runs to the largest
    computed value below the cluster (None when the cluster fills C^d). Each
    block whose top does not fill the cluster has a computed value below it,
    so that value is the spectrum's next one. A cluster that spans blocks has
    block-pure eigenvectors, which no operator couples.

    Returns the records, in direction order, and per block the list of
    (direction number, the block's cluster columns in the merged cluster,
    their eigenvectors in the block's space).
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
        cluster.sort(key=lambda entry: entry[0])
        basis = np.zeros((vec.dim, len(cluster)), dtype=np.complex128)
        owners = [i for _, i, _ in cluster]
        for col, (_, i, c) in enumerate(cluster):
            basis[blocks[i].index, col] = solved[i][k][1][:, c]
        for i in set(owners):
            cols = np.array([col for col, owner in enumerate(owners) if owner == i])
            # a block's values ascend, so its columns keep their order in the merged cluster
            members[i].append((k, cols, solved[i][k][1][:, -len(cols) :]))
        records.append(
            SupportFace(
                direction=direction,
                lambda_max=lam,
                multiplicity=len(cluster),
                eigenbasis=basis,
                gap=lam - max(below) if below else None,
            )
        )
    return records, members


def _compressed(vec: ObservableVec, records, members) -> list[np.ndarray]:
    """Each record's operators compressed onto its cluster, (n, m, m), from the blocks' bands.

    Block.compress runs once per block and column count over every direction
    with that many of the block's columns; entries between columns of
    different blocks stay exact zeros.
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


def _top_cluster(spec, deg_tol: float) -> tuple[float, np.ndarray]:
    """lambda_max and the eigenvectors of the eigenvalues within deg_tol*max(1, |lambda_max|)."""
    lam = float(spec.values[-1])
    mult = int(np.sum(spec.values >= lam - deg_tol * max(1.0, abs(lam))))
    return lam, spec.vectors[:, spec.dim - mult :]


def _expectations(mats, psi: np.ndarray) -> np.ndarray:
    return np.array([float(np.real(psi.conj() @ (m @ psi))) for m in mats])


# sweep_directions(2, INNER_STEPS) as (cos t, sin t) rows: the ring a free
# plane is swept on and a doublet ellipse is sampled on
_RING = np.array([d.eta for d in sweep_directions(2, INNER_STEPS)])


def _pair_cluster_vertices(pair: np.ndarray, free: np.ndarray):
    """Extreme points of a 2-dim cluster's range in the free plane, analytically, with their states (2, k).

    On C^2 each compressed operator is c_i I + v_i . sigma, so the range is
    the affine image of the Bloch sphere: an ellipse ring, a segment, or a
    point, read off from the SVD of the stacked v_i. A vertex is center +
    rows @ n for its Bloch direction n, one matrix-vector product per vertex
    (a stacked matmul): one matrix-matrix product need not round the same.

    The ring is sampled from its Bloch plane alone, not from the SVD's axes
    in it, which a near-circular ellipse fixes only to the split of its two
    singular values. With u, w = free, the orthonormal rows spanning the
    plane the face lies in, the ring starts at the Bloch direction of the
    range's support point along u and turns toward w. So the samples depend
    on the range and the free plane only, not on the cluster's basis.
    """
    center = (pair[:, 0, 0] + pair[:, 1, 1]).real / 2.0
    rows = np.stack([pair[:, 1, 0].real, pair[:, 1, 0].imag, (pair[:, 0, 0] - pair[:, 1, 1]).real / 2.0], axis=1)
    _, sig, vt = np.linalg.svd(rows)
    cut = 1e-12 * max(1.0, float(sig[0]), float(np.max(np.abs(center))))
    rank = int(np.sum(sig > cut))
    if rank == 1:
        dirs = np.array([vt[0], -vt[0]])
    else:
        u, w = free
        a, b = vt[:2] @ (rows.T @ u)
        norm = math.hypot(a, b)
        start = (a * vt[0] + b * vt[1]) / norm
        turn = (a * vt[1] - b * vt[0]) / norm  # start turned a quarter in the plane
        if w @ (rows @ turn) < 0.0:
            turn = -turn
        dirs = _RING[:, :1] * start + _RING[:, 1:] * turn
        if rank == 3:  # near-degenerate cluster: range slightly thickened
            dirs = np.vstack([dirs, vt[2], -vt[2]])
    coords = center + np.matmul(rows, dirs[:, :, None])[:, :, 0]
    # each spinor from the chart of its own hemisphere, [1 + n_z, n_x + i n_y]
    # in the north and [n_x - i n_y, 1 - n_z] in the south: no half angle, so a
    # direction within an ulp of a pole keeps its small component exact
    nx, ny, nz = dirs.T
    north = nz >= 0.0
    spinors = np.array([np.where(north, 1.0 + nz, nx - 1j * ny), np.where(north, nx + 1j * ny, 1.0 - nz)])
    return coords, spinors / np.sqrt(2.0 * (1.0 + np.abs(nz)))


def _cluster_vertices(compressed: np.ndarray, fixed: list, deg_tol: float):
    """Vertices (k, n) of a cluster's face, and their states (m, k) in the cluster's basis.

    compressed holds the operators compressed onto the cluster, (n, m, m).
    Every state of the cluster attains the hyperplane of each unit direction
    in `fixed`, so the face lies in their orthogonal complement and is built
    by its number of free directions: a point when the cluster is one state
    or every compressed operator is scalar; with one, the segment between
    the extreme eigenvectors of the free operator, for any m; with two, the
    analytic range of a pair when m = 2, else a convex set
    (Toeplitz-Hausdorff) swept on _RING in the free plane, whose every top
    cluster, compressed once more with its direction fixed, has one free
    direction: the recursion is one level deep.
    """
    m = compressed.shape[1]
    if m == 1:
        return compressed[:, 0, 0].real[None], np.ones((1, 1))
    scale = max(1.0, float(np.max(np.abs(compressed))))
    diag = compressed[:, np.arange(m), np.arange(m)].real
    means = diag.sum(axis=1) / m
    if float(np.max(np.abs(compressed - means[:, None, None] * np.eye(m)))) <= 1e-10 * scale:
        # every cluster state maps to the same mean vector: an exposed point
        return diag[:, 0][None], np.eye(m, 1)
    free = np.linalg.svd(np.array(fixed))[2][len(fixed) :]
    if len(free) == 1:
        ends = eig_hermitian(combine_matrix(free[0], compressed)).vectors[:, [0, -1]]
        return np.real(np.sum(ends.conj() * (compressed @ ends), axis=1)).T, ends
    if m == 2:
        return _pair_cluster_vertices(compressed, free)
    parts = []
    for eta in _RING @ free:
        _, top = _top_cluster(eig_hermitian(combine_matrix(eta, compressed)), deg_tol)
        inner = top.conj().T @ compressed @ top
        coords, states = _cluster_vertices((inner + inner.conj().transpose(0, 2, 1)) / 2.0, [*fixed, eta], deg_tol)
        parts.append((coords, top @ states))
    return np.vstack([coords for coords, _ in parts]), np.hstack([states for _, states in parts])


EXTREME_WINDOW = 1e-10
EXTREME_RESIDUAL = 1e-9


def _certify_extremes(vec: ObservableVec, coords: np.ndarray, state) -> np.ndarray:
    """Snap coordinates to exact spectral endpoints when the state proves it.

    Measures with exponent < 1 have unbounded slope at the interval ends, so
    e-16 coordinate noise would otherwise surface as noise^kappa in bounds;
    the eigen-residual test separates true extreme states cleanly. One window
    test flags the (vertex, operator, end) entries; only flagged coordinates
    pay for a residual, at eig_min when both ends are near, against the
    vertex's state in C^d, state(v).
    """
    ends, width = vec.spectral_ends
    near = np.abs(coords[:, :, None] - ends) <= EXTREME_WINDOW * width[:, None]
    if not near.any():
        return coords
    out = coords.copy()
    for v, i in zip(*np.nonzero(near.any(axis=2))):
        top = not near[v, i, 0]
        ext = ends[i, int(top)]
        psi = state(v)
        scale = max(1.0, abs(ends[i, 0]), abs(ends[i, 1]))
        if float(np.linalg.norm(vec.ops[i].mat @ psi - ext * psi)) <= EXTREME_RESIDUAL * scale:
            out[v, i] = ext
        elif out[v, i] == ext:
            # not an extreme state, only a bitwise float collision:
            # push inside so downstream treats it as a generic value
            inward = 1e-12 * width[i]
            out[v, i] = ext - inward if top else ext + inward
    return out


def _first_in_cell(points: np.ndarray, cell: float) -> np.ndarray:
    """The first point, in input order, of each cell floor(points / cell)."""
    keys = np.floor(points / cell)
    order = np.lexsort(keys.T)  # stable: a cell's first point leads its run
    ranked = keys[order]
    leads = np.ones(len(points), dtype=bool)
    leads[1:] = np.any(ranked[1:] != ranked[:-1], axis=1)
    return points[np.sort(order[leads])]


def _dedupe(points: np.ndarray, tol: float) -> np.ndarray:
    if len(points) <= 1:
        return points
    # the cell pass keeps each cell's first point; the greedy pass, one
    # pairwise Chebyshev matrix, catches cell-straddling duplicates and keeps
    # each row close to no row kept before it. A face has at most
    # 2 INNER_STEPS vertices (a ring of segments), so the matrix stays small.
    points = _first_in_cell(points, tol)
    close = np.max(np.abs(points[:, None] - points[None]), axis=2) <= tol
    np.fill_diagonal(close, False)
    if not close.any():
        return points
    kept: list[int] = []
    for i in range(len(points)):
        if not close[i, kept].any():
            kept.append(i)
    return points[kept]


def _reduce_collinear(points: np.ndarray, tol: float) -> np.ndarray:
    """Collapse a segment-shaped vertex cloud to its two endpoints."""
    if len(points) <= 2:
        return points
    centered = points - points.mean(axis=0)
    axis_len = float(np.max(np.linalg.norm(centered, axis=1)))
    if axis_len <= tol:
        return points[:1]
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    proj = centered @ vt[0]
    residual = centered - np.outer(proj, vt[0])
    if float(np.max(np.abs(residual))) <= tol:
        return points[[int(np.argmin(proj)), int(np.argmax(proj))]]
    return points


def faces(vec: ObservableVec, directions, deg_tol: float = DEG_TOL_DEFAULT) -> list[SupportFace]:
    """Support data plus the face's vertex set in mean-value space, for every direction.

    Each direction's top cluster is solved and merged block by block over all
    directions (_solve), and the operators are compressed onto it from the
    blocks' bands (_compressed), so a face is built from small compressed
    operators only (_cluster_vertices). A state becomes a vector of C^d only
    for a certification residual. Extreme certification is one window test
    over every vertex; dedupe and collinear reduction act on each face of
    more than one vertex, at DEDUP_TOL times the operators' spectral scale.
    A direction's face does not depend on the other directions of the call.
    """
    records, members = _solve(vec, directions, deg_tol)
    if not records:
        return []
    coords, states = [], []
    for sf, compressed in zip(records, _compressed(vec, records, members)):
        face_coords, face_states = _cluster_vertices(compressed, [sf.direction.eta], deg_tol)
        coords.append(face_coords)
        states.append(face_states)
    offsets = np.cumsum([0, *(len(c) for c in coords)])

    def state(v):
        f = int(np.searchsorted(offsets, v, side="right")) - 1
        return records[f].eigenbasis @ states[f][:, v - offsets[f]]

    verts = _certify_extremes(vec, np.vstack(coords), state)
    # scaled by the operators, not by the face: a scale read from the face's
    # own coordinates puts the largest one on an edge of the dedupe cells,
    # where a rounding-level change moves it across and changes the count
    ends, _ = vec.spectral_ends
    tol = DEDUP_TOL * max(1.0, float(np.abs(ends).max()))
    for f, sf in enumerate(records):
        points = verts[offsets[f] : offsets[f + 1]]
        if len(points) > 1:
            points = _reduce_collinear(_dedupe(points, tol), tol)
        sf.vertices = points
    return records


def face(vec: ObservableVec, direction: Direction, deg_tol: float = DEG_TOL_DEFAULT) -> SupportFace:
    """faces at one direction."""
    return faces(vec, [direction], deg_tol)[0]


def convex_hull(points: np.ndarray) -> np.ndarray:
    """Hull vertices of a 2D or 3D point cloud, hulled in its affine span.

    Points within 1e-9 of the scale max(1, max|coordinate|) merge into their
    cell's first (_first_in_cell). The span is the SVD axes along which some
    point lies past COLLINEAR_TOL of the scale: with none the cloud gives its
    first point, with one its two ends (_reduce_collinear) in lexicographic
    order, else Qhull's vertices (a flat 3D cloud hulled in its plane),
    near-collinear ones kept. A 2D hull runs counter-clockwise from its
    lowest leftmost vertex; a 3D hull keeps input order.
    """
    from scipy.spatial import ConvexHull  # deferred: scipy.spatial loads only once a hull is asked for

    pts = np.asarray(points, dtype=float)
    scale = max(1.0, float(np.max(np.abs(pts))))
    pts = _first_in_cell(pts, 1e-9 * scale)
    tol = COLLINEAR_TOL * scale
    centered = pts - pts.mean(axis=0)
    axes = np.linalg.svd(centered, full_matrices=False)[2]
    span = axes[np.max(np.abs(centered @ axes.T), axis=0) > tol]
    if not len(span):
        return pts[:1]
    if len(span) == 1:
        ends = _reduce_collinear(pts, tol)
        return ends[np.lexsort(ends.T[::-1])]
    hull = ConvexHull(pts if len(span) == pts.shape[1] else centered @ span.T).vertices
    if pts.shape[1] == 3:
        return pts[np.sort(hull)]
    return pts[np.roll(hull, -np.lexsort(pts[hull].T[::-1])[0])]


def boundary2d(vec: ObservableVec, steps: int = 360, deg_tol: float = DEG_TOL_DEFAULT) -> Boundary:
    """Faces at phi_k = 2 pi k / steps."""
    if vec.n != 2:
        raise DimensionMismatch("boundary2d needs a 2-operator vector")
    return Boundary(faces=faces(vec, sweep_directions(2, steps), deg_tol), grid=steps, deg_tol=deg_tol)


def boundary3d(
    vec: ObservableVec,
    theta_steps: int,
    phi_steps: int,
    deg_tol: float = DEG_TOL_DEFAULT,
) -> Boundary:
    """Lat-long sweep: theta_k = k pi/K (both poles), phi_k' = k' 2pi/K'."""
    if vec.n != 3:
        raise DimensionMismatch("boundary3d needs a 3-operator vector")
    grid = (theta_steps, phi_steps)
    return Boundary(faces=faces(vec, sweep_directions(3, grid), deg_tol), grid=grid, deg_tol=deg_tol)


def hyperrect(vec: ObservableVec) -> Hyperrect:
    """Cartesian product of the operators' spectral intervals."""
    return Hyperrect(
        lo=tuple(op.eig_min for op in vec.ops),
        hi=tuple(op.eig_max for op in vec.ops),
    )


def membership(vec: ObservableVec, r, grid) -> float:
    """Signed margin min_eta (lambda_max(eta) - eta.r); negative certifies r outside.

    grid is a sweep_directions grid: a step count for two operators,
    (theta_steps, phi_steps) for three. The min runs over every direction of
    the grid, with lambda_max solved in one call at one direction per orbit
    of vec.sign_group (_grid_orbits, built once per grid and group). A
    shared value is the image direction's own up to the rounding of the
    grid's angles plus the group's verified residual, so a negative margin
    still certifies r outside.
    """
    r = np.asarray(r, dtype=float)
    if r.shape != (vec.n,):
        raise DimensionMismatch(f"point has shape {r.shape}, expected ({vec.n},)")
    if not np.all(np.isfinite(r)):
        raise NonFinite(f"point {r.tolist()} is not finite")
    grid = _checked_grid(vec.n, grid)
    etas, solved, solution = _grid_orbits(vec.n, grid, vec.sign_group)
    return float(np.min(block_top_eigenvalues(etas[solved], vec.blocks)[solution] - etas @ r))


def commuting_polytope(vec: ObservableVec) -> np.ndarray:
    """convex_hull of the diagonal mean vectors in a common eigenbasis.

    A random real combination is diagonalized to produce the simultaneous
    eigenbasis; the seed COMM_SEED is fixed so results are deterministic.
    NoConvergence when none of 8 combinations diagonalizes every operator.
    """
    mats = vec.mats
    for i in range(len(mats)):
        for k in range(i + 1, len(mats)):
            a, b = mats[i], mats[k]
            scale = max(1.0, float(np.max(np.abs(a))) * float(np.max(np.abs(b))))
            if float(np.max(np.abs(a @ b - b @ a))) > COMM_TOL * scale:
                raise NotCommuting(
                    f"{vec.ops[i].label!r} and {vec.ops[k].label!r} do not commute"
                )
    rng = np.random.default_rng(COMM_SEED)
    for _ in range(8):
        coeffs = rng.normal(size=len(mats))
        spec = eig_hermitian(combine_matrix(coeffs, mats))
        basis = spec.vectors
        offdiag = max(
            float(np.max(np.abs(b - np.diag(np.diag(b)))))
            for b in (basis.conj().T @ (m @ basis) for m in mats)
        )
        if offdiag <= 1e-8 * max(1.0, max(float(np.max(np.abs(m))) for m in mats)):
            break
    else:
        raise NoConvergence("no random combination of the operators diagonalized them all")
    return convex_hull(np.array([_expectations(mats, basis[:, l]) for l in range(basis.shape[1])]))
