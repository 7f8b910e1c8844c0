"""Supporting-hyperplane sweep over Hermitian operator vectors.

For each unit direction eta the top eigenvalue of eta.E gives a supporting
hyperplane of the allowed region of mean vectors; the states attaining it
generate the touching face. A sweep is one call of ``faces`` over all its
directions: each block of the operator set forms and solves every direction's
band, and the blocks' top values merge as arrays over all directions, with
only a direction whose block needs more values re-solved in a loop
(``support`` is that step at one direction). The clusters' bases are
stacked by multiplicity; each block compresses the operators onto the rows
of a basis it holds (``linalg.Block.compress``), and the blocks' parts add:
no operator couples two blocks, so the compression is block diagonal. A
one-state face is its state's mean, gathered in bulk; every other face is
built from its compression by its number of free directions, all faces of
one cluster size at once (_cluster_faces): a point when the operators are
scalar, a segment when one direction is free, and with two the analytic
range of a pair or a ring of segments. ``face`` is ``faces`` at one direction.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonFinite
from .linalg import band_top, block_top_eigenvalues, combine_matrix, eig_hermitian
from .spinops import ObservableVec

DEG_TOL_DEFAULT = 1e-8
DEDUP_TOL = 1e-8
COLLINEAR_TOL = 1e-10
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

    @property
    def angles(self) -> tuple[float, ...]:
        """(phi,) in 2D, (theta, phi) in 3D: the angle columns of every output."""
        return (self.phi,) if self.theta is None else (self.theta, self.phi)


def direction(eta: np.ndarray) -> Direction:
    """The sweep direction of the unit vector eta: phi in [0, 2 pi), and 0 at a pole.

    A tiny negative atan2, which % rounds up to exactly 2 pi, is folded to 0.
    """
    phi = math.atan2(eta[1], eta[0]) % (2 * math.pi)
    phi = 0.0 if phi == 2 * math.pi else phi
    if len(eta) == 2:
        return direction2(phi)
    rho = math.hypot(eta[0], eta[1])
    return direction3(math.atan2(rho, eta[2]), phi if rho > 0.0 else 0.0)


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


def grid_size(grid) -> int:
    """The number of directions of the sweep_directions grid: K' in 2D, 2 + (K - 1) K' in 3D."""
    return 2 + (grid[0] - 1) * grid[1] if isinstance(grid, tuple) else grid


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
    if all(s == 1 for s in signs) or (signs[0] < 0 and steps % 2):
        return np.arange(grid_size(grid))
    cols = (signs[0] * signs[1] * np.arange(steps) + (steps // 2 if signs[0] < 0 else 0)) % steps
    if not isinstance(grid, tuple):
        return cols
    north, rows, south = split_grid(np.arange(grid_size(grid)), grid)
    if signs[2] < 0:
        north, rows, south = south, rows[::-1], north
    return np.concatenate([[north], rows[:, cols].ravel(), [south]])


def local_optima(values: np.ndarray, grid) -> np.ndarray:
    """The indices, ascending, of the grid directions whose value is >= each neighbour's.

    values holds one value per direction of the sweep_directions grid, an
    oriented score (negated to find minima); ties count. Neighbours wrap in
    phi, adjacent rows meet at the same column, and a pole meets its whole
    adjacent row.
    """
    if not isinstance(grid, tuple):
        return np.flatnonzero((values >= np.roll(values, 1)) & (values >= np.roll(values, -1)))
    north, rows, south = split_grid(values, grid)
    ok = (rows >= np.roll(rows, 1, axis=1)) & (rows >= np.roll(rows, -1, axis=1))
    ok[0] &= rows[0] >= north
    ok[1:] &= rows[1:] >= rows[:-1]
    ok[:-1] &= rows[:-1] >= rows[1:]
    ok[-1] &= rows[-1] >= south
    poles = (north >= rows[0]).all(), (south >= rows[-1]).all()
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

    @property
    def n(self) -> int:
        """The number of operators, read from the grid: a step count in 2D, a pair in 3D."""
        return 3 if isinstance(self.grid, tuple) else 2

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


def _last_rows(array: np.ndarray, width: int, fill: float) -> np.ndarray:
    """array's last `width` entries along axis 1, left-padded with fill where it has fewer."""
    pad = width - array.shape[1]
    if pad > 0:
        array = np.pad(array, [(0, 0), (pad, 0)] + [(0, 0)] * (array.ndim - 2), constant_values=fill)
    return array[:, array.shape[1] - width :]


def _solve(vec: ObservableVec, directions, deg_tol: float):
    """Support records of many directions, and their cluster bases stacked by multiplicity.

    vec.blocks holds the operators validated and band-packed once. Each block
    forms the bands of every direction in one call (Block.combine, whose rows
    do not depend on each other), and each band is solved for its top k
    eigenpairs only. The first k is sized so that its index range does not
    end inside a degenerate pair, where LAPACK's bisection must split two
    values equal to rounding: min(2, size), or min(4, size) on a block whose
    levels are all Kramers pairs (vec.kramers_blocks), whose top two always
    lie in the cluster. Structure only sizes the first request; the values
    decide the cluster. The blocks then merge as arrays over all directions:
    the cluster is the values within deg_tol*max(1, |lambda|) of the largest
    top value lambda, and a direction in which a block's lowest computed
    value is still inside the cluster re-solves that block, doubling k until
    it is not. The record's lambda_max is the largest top value of each
    block's last request, the one whose vectors the cluster holds, so a
    direction's record does not depend on the other directions of the call
    (two requests of one band can differ in the last bits). The cluster's
    eigenvectors are scattered into C^d in ascending order of their values,
    ties by block, and the gap runs to the largest computed value below the
    cluster (None when the cluster fills C^d). Each block whose top does not
    fill the cluster has a computed value below it, so that value is the
    spectrum's next one. A cluster that spans blocks has block-pure
    eigenvectors, which no operator couples. Per multiplicity m, the stacks
    pair the directions whose cluster has m states with their (G, d, m)
    bases, which the records' eigenbases view. ValueError unless deg_tol is
    finite and >= 0.
    """
    if not 0.0 <= deg_tol < math.inf:
        raise ValueError(f"deg_tol must be finite and >= 0, got {deg_tol!r}")
    for direction in directions:
        if direction.n != vec.n:
            raise DimensionMismatch(f"direction has {direction.n} components, vector has {vec.n}")
    blocks, count = vec.blocks, len(directions)
    if not count:
        return [], []
    etas = np.array([direction.eta for direction in directions]).reshape(count, vec.n)
    bands = [block.combine(etas) for block in blocks]
    asks = [min(4 if kramers else 2, block.size) for block, kramers in zip(blocks, vec.kramers_blocks)]
    solved = [[band_top(band, k) for band in rows] for k, rows in zip(asks, bands)]
    firsts = [np.array([values for values, _ in rows]).reshape(count, -1) for rows in solved]
    ends = np.array([values[:, -1] for values in firsts]).reshape(len(blocks), count)  # each block's top value
    lam = ends.max(axis=0)
    floor = lam - deg_tol * np.maximum(1.0, np.abs(lam))
    counts = np.array([np.sum(values >= floor[:, None], axis=1) for values in firsts]).reshape(len(blocks), count)
    below = np.array([np.max(values, axis=1, where=values < floor[:, None], initial=-np.inf) for values in firsts])
    keys, tops = [], []
    for i, (block, rows, values) in enumerate(zip(blocks, solved, firsts)):
        grown = {}  # direction -> (values, vectors) of its re-solve
        for k in np.flatnonzero(counts[i] == values.shape[1]) if values.shape[1] < block.size else ():
            top, vectors = rows[k]
            while top[0] >= floor[k] and len(top) < block.size:
                top, vectors = band_top(bands[i][k], min(2 * len(top), block.size))
            cut = int(np.searchsorted(top, floor[k]))
            counts[i, k], below[i, k] = len(top) - cut, top[cut - 1] if cut else -np.inf
            grown[k], ends[i, k] = (top, vectors), top[-1]
        width = int(counts[i].max(initial=0))
        top_values = _last_rows(values, width, -np.inf)
        top_vectors = _last_rows(np.stack([vectors.T for _, vectors in rows]), width, 0.0)
        for k, (top, vectors) in grown.items():
            c = min(width, len(top))
            top_values[k, width - c :] = top[len(top) - c :]
            top_vectors[k, width - c :] = vectors[:, len(top) - c :].T
        member = np.arange(width) >= width - counts[i][:, None]
        keys.append(np.where(member, top_values, np.inf))
        tops.append(top_vectors)
    widths = [key.shape[1] for key in keys]
    slots = np.argsort(np.hstack(keys), axis=1, kind="stable")  # the cluster first, ascending, ties by block
    owners = np.repeat(np.arange(len(blocks)), widths)[slots]
    columns = np.concatenate([np.arange(w) for w in widths])[slots]  # each slot's row in its block's tops
    mult = counts.sum(axis=0)
    bases, stacks = [None] * count, []
    for m in np.unique(mult):
        rows = np.flatnonzero(mult == m)
        basis = np.zeros((len(rows), vec.dim, m), dtype=np.complex128)
        for i, block in enumerate(blocks):
            sel, c = np.nonzero(owners[rows, :m] == i)  # the block's (face, column) places in the stack
            basis[sel[:, None], block.index, c[:, None]] = tops[i][rows[sel], columns[rows[sel], c]]
        for k, b in zip(rows.tolist(), basis):
            bases[k] = b
        stacks.append((rows, basis))
    lam = ends.max(axis=0)  # from each block's last request, whose vectors the cluster holds
    gaps = (lam - below.max(axis=0, initial=-np.inf)).tolist()  # inf where nothing lies below the cluster
    records = [
        SupportFace(direction=d, lambda_max=top, multiplicity=m, eigenbasis=b, gap=None if gap == math.inf else gap)
        for d, top, m, b, gap in zip(directions, lam.tolist(), mult.tolist(), bases, gaps)
    ]
    return records, stacks


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
    u, w = free
    if rank == 1:  # the end whose image reaches further along u first, along w on a tie
        dirs = np.array([vt[0], -vt[0]] if (u @ (rows @ vt[0]), w @ (rows @ vt[0])) >= (0.0, 0.0) else [-vt[0], vt[0]])
    else:
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


def _cluster_faces(compressed: np.ndarray, fixed: np.ndarray, deg_tol: float) -> list:
    """Each of G clusters' face: its vertices (k, n) and their states (m, k) in the cluster's basis.

    compressed holds the operators compressed onto each cluster, (G, n, m, m).
    Every state of cluster g attains the hyperplane of each unit direction in
    fixed[g], (G, f, n), so the face lies in their orthogonal complement and
    is built by its number of free directions, n - f: a point when the
    cluster is one state or every compressed operator is scalar; with one,
    the segment between the extreme eigenvectors of the free operator, for
    any m; with two, the analytic range of a pair when m = 2, else a convex
    set (Toeplitz-Hausdorff) swept on _RING in the free plane, whose every
    top cluster, compressed once more with its direction fixed, has one free
    direction: the recursion is one level deep. Every step but the pair (one
    call per cluster) and the ring's inner compressions (one per direction)
    runs stacked, each cluster rounding as a stack of one would.
    """
    m = compressed.shape[2]
    scale = np.maximum(1.0, np.max(np.abs(compressed), axis=(1, 2, 3)))
    diag = compressed[:, :, np.arange(m), np.arange(m)].real
    means = diag.sum(axis=2) / m
    spread = np.max(np.abs(compressed - means[:, :, None, None] * np.eye(m)), axis=(1, 2, 3))
    out = [(point[None], np.eye(m, 1)) for point in diag[:, :, 0]]  # kept where the operators are scalar
    rest = np.flatnonzero(spread > 1e-10 * scale)
    if not len(rest):
        return out
    compressed, fixed = compressed[rest], fixed[rest]
    free = np.linalg.svd(fixed)[2][:, fixed.shape[1] :]
    if free.shape[1] == 1:
        ends = eig_hermitian(combine_matrix(free[:, 0], compressed)).vectors[..., [0, -1]]
        coords = np.real(np.sum(ends.conj()[:, None] * (compressed @ ends[:, None]), axis=2))
        built = zip(coords.transpose(0, 2, 1), ends)
    elif m == 2:
        built = map(_pair_cluster_vertices, compressed, free)
    else:
        etas = _RING @ free  # (G, INNER_STEPS, n)
        spectra = eig_hermitian(combine_matrix(etas, compressed[:, None]))
        lam = spectra.values[..., -1:]
        sizes = np.sum(spectra.values >= lam - deg_tol * np.maximum(1.0, np.abs(lam)), axis=-1).ravel()
        tops = [vectors[:, m - k :] for vectors, k in zip(spectra.vectors.reshape(-1, m, m), sizes.tolist())]
        inners = [top.conj().T @ compressed[t // INNER_STEPS] @ top for t, top in enumerate(tops)]
        deeper = np.concatenate([np.repeat(fixed, INNER_STEPS, axis=0), etas.reshape(len(tops), 1, -1)], axis=1)
        parts = [None] * len(tops)  # each direction's sub-face, from one call per sub-cluster size
        for k in np.unique(sizes).tolist():
            at = np.flatnonzero(sizes == k)
            inner = np.stack([inners[t] for t in at])
            inner = (inner + inner.conj().swapaxes(-1, -2)) / 2.0
            for t, (coords, states) in zip(at.tolist(), _cluster_faces(inner, deeper[at], deg_tol)):
                parts[t] = coords, tops[t] @ states
        rings = [zip(*parts[g : g + INNER_STEPS]) for g in range(0, len(parts), INNER_STEPS)]
        built = [(np.vstack(coords), np.hstack(states)) for coords, states in rings]
    for g, face in zip(rest.tolist(), built):
        out[g] = face
    return out


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

    Each direction's top cluster is solved and merged over all directions at
    once (_solve), which stacks the clusters' bases by multiplicity m. Their
    states are block-pure, so a block holds the columns nonzero on its
    positions; it compresses the rows of a stack that hold a column in it,
    over only the columns some row holds (a real block the real part; a
    column it does not hold compresses to zero). No operator couples two
    blocks, so the parts add into one zeroed (G, n, m, m) stack per m. A
    one-state face is its stack entry, all at once; the faces of each
    m >= 2 go through one _cluster_faces call.

    A state becomes a vector of C^d only for a certification residual.
    Extreme certification is one window test over every vertex; dedupe and
    collinear reduction act on each face of more than one vertex, at
    DEDUP_TOL times the operators' spectral scale. A direction's face does
    not depend on the other directions of the call.
    """
    records, stacks = _solve(vec, directions, deg_tol)
    built = {}  # face -> (vertices, their states in its cluster's basis), for clusters of several states
    singles, means = [], np.empty((0, vec.n))  # the one-state faces and their points
    for rows, basis in stacks:
        m = basis.shape[2]
        compressed = np.zeros((len(rows), vec.n, m, m), dtype=np.complex128)
        for block in vec.blocks:
            held = basis[:, block.index].any(axis=1)  # (G, m): block-pure states, so nonzero here means held
            at, cols = np.flatnonzero(held.any(axis=1))[:, None, None], np.flatnonzero(held.any(axis=0))
            part = basis[at, block.index[:, None], cols]
            part = part if block.bands.dtype.kind == "c" else part.real
            compressed[at[..., None], np.arange(vec.n)[:, None, None], cols[:, None], cols] += block.compress(part)
        if m == 1:
            singles, means = rows, compressed[:, :, 0, 0].real
        else:
            fixed = np.array([records[k].direction.eta for k in rows])[:, None]
            built.update(zip(rows.tolist(), _cluster_faces(compressed, fixed, deg_tol)))
    nverts = np.ones(len(records), dtype=int)
    nverts[list(built)] = [len(face_coords) for face_coords, _ in built.values()]
    offsets = np.concatenate([[0], np.cumsum(nverts)])
    coords = np.empty((offsets[-1], vec.n))
    coords[offsets[singles]] = means
    for k, (face_coords, _) in built.items():
        coords[offsets[k] : offsets[k + 1]] = face_coords

    def state(v):
        f = int(np.searchsorted(offsets, v, side="right")) - 1
        _, states = built.get(f, (None, np.ones((1, 1))))
        return records[f].eigenbasis @ states[:, v - offsets[f]]

    verts = _certify_extremes(vec, coords, state)
    # scaled by the operators, not by the face: a scale read from the face's
    # own coordinates puts the largest one on an edge of the dedupe cells,
    # where a rounding-level change moves it across and changes the count
    ends, _ = vec.spectral_ends
    tol = DEDUP_TOL * max(1.0, float(np.abs(ends).max()))
    # two points are one when they share a dedupe cell or lie within tol, as
    # _dedupe keeps them; only larger faces go through _dedupe itself
    stops = offsets[1:].copy()
    pairs = offsets[:-1][nverts == 2]
    first, second = verts[pairs], verts[pairs + 1]
    same_cell = np.all(np.floor(first / tol) == np.floor(second / tol), axis=1)
    stops[np.flatnonzero(nverts == 2)[same_cell | (np.max(np.abs(first - second), axis=1) <= tol)]] -= 1
    for sf, start, stop in zip(records, offsets[:-1].tolist(), stops.tolist()):
        points = verts[start:stop]
        if stop - start > 2:
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
    """Signed margin min_eta (lambda_max(eta) - eta.r) over a grid; only a margin below a bound certifies r outside.

    grid is a sweep_directions grid: a step count for two operators,
    (theta_steps, phi_steps) for three. The min runs over every direction of
    the grid, with lambda_max solved in one call at one direction per orbit
    of vec.sign_group (_grid_orbits, built once per grid and group). A
    shared value is the image direction's own only up to the rounding of the
    grid's angles and of lambda_max (a few ulps of s, the operators' largest
    |eigenvalue|) plus the group's verified residual: each mapped operator
    matches +-itself within spinops.SIGN_GROUP_TOL * s entrywise, which moves
    lambda_max by at most d sqrt(n) SIGN_GROUP_TOL * s per generator, and a
    group element is a product of at most three. So a margin certifies
    r outside only when it lies below minus that rounding and residual; a
    negative margin inside them certifies nothing, and a positive one never
    certifies r inside, since the region may bulge between grid directions.
    """
    r = np.asarray(r, dtype=float)
    if r.shape != (vec.n,):
        raise DimensionMismatch(f"point has shape {r.shape}, expected ({vec.n},)")
    if not np.all(np.isfinite(r)):
        raise NonFinite(f"point {r.tolist()} is not finite")
    grid = _checked_grid(vec.n, grid)
    etas, solved, solution = _grid_orbits(vec.n, grid, vec.sign_group)
    return float(np.min(block_top_eigenvalues(etas[solved], vec.blocks)[solution] - etas @ r))
