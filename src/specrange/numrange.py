"""Supporting-hyperplane sweep over Hermitian operator vectors.

For each unit direction eta the top eigenvalue of eta.E gives a supporting
hyperplane of the allowed region of mean vectors; the states attaining it
generate the touching face. Nondegenerate directions expose a single extreme
point; degenerate ones get their face rebuilt from the operators compressed
onto the top eigenspace, one free dimension at a time (_cluster_vertices).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EmptyBoundary, NonFinite, NotCommuting
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


def sweep_directions(n: int, grid) -> list[Direction]:
    """The direction grid of every sweep.

    n = 2: grid is a step count K', the ring phi_k' = 2 pi k'/K'.
    n = 3: grid is (K, K'), the lat-long grid theta_k = k pi/K, phi_k' = 2 pi k'/K';
    the north and south poles come first, then rows k = 1..K-1 of K' directions.
    """
    if n == 2:
        return [direction2(float(p)) for p in 2 * math.pi * np.arange(grid) / grid]
    K, Kp = grid
    phis = 2 * math.pi * np.arange(Kp) / Kp
    dirs = [direction3(0.0, 0.0), direction3(math.pi, 0.0)]
    for theta in np.linspace(0.0, math.pi, K + 1)[1:-1]:
        dirs.extend(direction3(float(theta), float(p)) for p in phis)
    return dirs


@dataclass
class SupportFace:
    """Per-direction record: support value, eigenspace, and face vertices."""

    direction: Direction
    lambda_max: float
    multiplicity: int
    eigenbasis: np.ndarray  # (d, multiplicity)
    vertices: np.ndarray | None = None  # (k, n) mean vectors
    is_point: bool = False
    gap: float | None = None  # lambda_max minus next eigenvalue below the cluster
    exhausted: bool = False  # never set (every face is resolved); perfbench/tracer.py's census reads it


@dataclass
class Boundary:
    """One sweep: a face per direction of sweep_directions(n, grid), in that order."""

    faces: list[SupportFace]
    grid: int | tuple[int, int]  # the sweep_directions grid, as membership takes it
    deg_tol: float = DEG_TOL_DEFAULT
    hull: np.ndarray | None = None  # 2D only: (h, 2) extreme-point polygon, CCW

    def rows(self) -> list[list[SupportFace]]:
        """The faces as grid rows, columns in phi order.

        The 2D ring is one row; the 3D grid runs from the north pole to the
        south pole, and each pole row holds its one face.
        """
        if not isinstance(self.grid, tuple):
            return [self.faces]
        north, south, *inner = self.faces
        kp = self.grid[1]
        return [[north], *(inner[k : k + kp] for k in range(0, len(inner), kp)), [south]]

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
    """Top eigenvalue, its cluster multiplicity and eigenspace basis (no vertices).

    vec.blocks holds the operators validated and band-packed once. Each
    block's combination is solved for its top k eigenpairs only: k = min(3,
    size) at first, doubled while the block's lowest computed value is still
    inside the cluster, the values within deg_tol*max(1, |lambda_max|) of the
    largest over all blocks. The blocks then merge as one spectrum: the
    cluster's eigenvectors are embedded into C^d in ascending order of their
    values, and the gap runs to the largest computed value below the cluster
    (None when the cluster fills C^d). Each block whose top does not fill the
    cluster has a computed value below it, so that value is the spectrum's
    next one. A cluster that spans blocks has block-pure eigenvectors, which
    no operator couples.
    """
    if direction.n != vec.n:
        raise DimensionMismatch(f"direction has {direction.n} components, vector has {vec.n}")
    blocks = vec.blocks
    bands = [block.combine(direction.eta) for block in blocks]
    solved = [band_top(band, min(3, block.size)) for band, block in zip(bands, blocks)]
    lam = max(float(values[-1]) for values, _ in solved)
    floor = lam - deg_tol * max(1.0, abs(lam))
    for i, block in enumerate(blocks):
        while solved[i][0][0] >= floor and len(solved[i][0]) < block.size:
            solved[i] = band_top(bands[i], min(2 * len(solved[i][0]), block.size))
    cluster = []  # (value, the block's positions in C^d, eigenvector) of every value in the cluster
    below = []  # each block's largest value under the cluster
    for block, (values, vectors) in zip(blocks, solved):
        cut = int(np.searchsorted(values, floor))
        if cut:
            below.append(float(values[cut - 1]))
        cluster.extend((values[c], block.index, vectors[:, c]) for c in range(cut, len(values)))
    cluster.sort(key=lambda entry: entry[0])
    basis = np.zeros((vec.dim, len(cluster)), dtype=np.complex128)
    for col, (_, index, vector) in enumerate(cluster):
        basis[index, col] = vector
    return SupportFace(
        direction=direction,
        lambda_max=lam,
        multiplicity=len(cluster),
        eigenbasis=basis,
        gap=lam - max(below) if below else None,
    )


def _top_cluster(spec, deg_tol: float) -> tuple[float, np.ndarray]:
    """lambda_max and the eigenvectors of the eigenvalues within deg_tol*max(1, |lambda_max|)."""
    lam = float(spec.values[-1])
    mult = int(np.sum(spec.values >= lam - deg_tol * max(1.0, abs(lam))))
    return lam, spec.vectors[:, spec.dim - mult :]


def _expectations(mats, psi: np.ndarray) -> np.ndarray:
    return np.array([float(np.real(psi.conj() @ (m @ psi))) for m in mats])


def _bloch_spinor(n: np.ndarray) -> np.ndarray:
    theta = math.acos(min(1.0, max(-1.0, n[2])))
    phi = math.atan2(n[1], n[0])
    return np.array(
        [math.cos(theta / 2.0), math.sin(theta / 2.0) * np.exp(1j * phi)], dtype=np.complex128
    )


def _pair_cluster_vertices(mats, lift: np.ndarray, compressed, steps: int):
    """Extreme points of a 2-dim cluster's range, analytically.

    On C^2 each compressed operator is c_i I + v_i . sigma, so the range is
    the affine image of the Bloch sphere: an ellipse ring, a segment, or a
    point, read off from the SVD of the stacked v_i.
    """
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
    if rank == 1:
        bloch_dirs = [vt[0], -vt[0]]
    else:
        angles = 2 * math.pi * np.arange(steps) / steps
        bloch_dirs = [math.cos(t) * vt[0] + math.sin(t) * vt[1] for t in angles]
        if rank == 3:  # near-degenerate cluster: range slightly thickened
            bloch_dirs.extend([vt[2], -vt[2]])
    pairs = []
    for n in bloch_dirs:
        psi = lift @ _bloch_spinor(n)
        pairs.append((center + rows @ n, psi))
    return pairs


def _cluster_vertices(mats, lift: np.ndarray, fixed: list, deg_tol: float):
    """Vertex/state pairs of the face spanned by lift.

    Every state of span(lift) attains the hyperplane of each unit direction in
    `fixed`, so the face lies in their orthogonal complement: a segment when
    one direction is free; when two are, a convex set (Toeplitz-Hausdorff)
    swept on a ring whose every top cluster recurses with its direction fixed,
    so the recursion is at most n - 1 deep. `lift` maps back to the full
    Hilbert space, so expectations are taken against the original operators.
    """
    m = lift.shape[1]
    if m == 1:
        psi = lift[:, 0]
        return [(_expectations(mats, psi), psi)]
    compressed = [lift.conj().T @ (mat @ lift) for mat in mats]
    compressed = [(b + b.conj().T) / 2.0 for b in compressed]
    scale = max(1.0, max(float(np.max(np.abs(b))) for b in compressed))
    means = [float(np.real(np.trace(b))) / m for b in compressed]
    if all(
        float(np.max(np.abs(b - mu * np.eye(m)))) <= 1e-10 * scale
        for b, mu in zip(compressed, means)
    ):
        # every eigenspace state maps to the same mean vector: an exposed point
        psi = lift[:, 0]
        return [(_expectations(mats, psi), psi)]
    if m == 2:
        return _pair_cluster_vertices(mats, lift, compressed, INNER_STEPS)
    free = np.linalg.svd(np.array(fixed))[2][len(fixed) :]
    if len(free) == 1:
        vectors = eig_hermitian(combine_matrix(free[0], compressed)).vectors
        ends = (lift @ vectors[:, 0], lift @ vectors[:, -1])
        return [(_expectations(mats, psi), psi) for psi in ends]
    pairs = []
    for direction in sweep_directions(2, INNER_STEPS):
        eta = direction.eta @ free
        _, top = _top_cluster(eig_hermitian(combine_matrix(eta, compressed)), deg_tol)
        pairs.extend(_cluster_vertices(mats, lift @ top, [*fixed, eta], deg_tol))
    return pairs


EXTREME_WINDOW = 1e-10
EXTREME_RESIDUAL = 1e-9


def _certify_extremes(ops, coords: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """Snap coordinates to exact spectral endpoints when the state proves it.

    Measures with exponent < 1 have unbounded slope at the interval ends, so
    e-16 coordinate noise would otherwise surface as noise^kappa in bounds;
    the eigen-residual test separates true extreme states cleanly.
    """
    out = coords.copy()
    for i, op in enumerate(ops):
        width = max(1.0, op.eig_max - op.eig_min)
        for ext in (op.eig_min, op.eig_max):
            if abs(out[i] - ext) <= EXTREME_WINDOW * width:
                scale = max(1.0, abs(op.eig_min), abs(op.eig_max))
                if float(np.linalg.norm(op.mat @ psi - ext * psi)) <= EXTREME_RESIDUAL * scale:
                    out[i] = ext
                elif out[i] == ext:
                    # not an extreme state, only a bitwise float collision:
                    # push inside so downstream treats it as a generic value
                    inward = 1e-12 * width
                    out[i] = ext + (inward if ext == op.eig_min else -inward)
                break
    return out


def _dedupe(points: np.ndarray, tol: float) -> np.ndarray:
    if len(points) <= 1:
        return points
    # cell pass is O(n); the greedy pass catches cell-straddling duplicates
    # but only runs on small survivors
    seen: dict[tuple[int, ...], bool] = {}
    keep = []
    for idx, p in enumerate(points):
        key = tuple(int(math.floor(c / tol)) for c in p)
        if key not in seen:
            seen[key] = True
            keep.append(idx)
    points = points[keep]
    if len(points) > 64:
        return points
    kept: list[np.ndarray] = []
    for p in points:
        if not any(np.max(np.abs(p - q)) <= tol for q in kept):
            kept.append(p)
    return np.array(kept)


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


def face(vec: ObservableVec, direction: Direction, deg_tol: float = DEG_TOL_DEFAULT) -> SupportFace:
    """Support data plus the face's vertex set in mean-value space."""
    sf = support(vec, direction, deg_tol)
    pairs = _cluster_vertices(vec.mats, sf.eigenbasis, [direction.eta], deg_tol)
    verts = [_certify_extremes(vec.ops, coords, psi) for coords, psi in pairs]
    scale = max(1.0, max(float(np.max(np.abs(v))) for v in verts))
    points = _dedupe(np.array(verts), DEDUP_TOL * scale)
    points = _reduce_collinear(points, DEDUP_TOL * scale)
    sf.vertices = points
    sf.is_point = len(points) == 1
    return sf


def _cross2(o, a, b) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _between_chord(a, c, b, tol: float) -> bool:
    """True when b lies on the segment a-c within distance tol."""
    chord = c - a
    length2 = float(chord @ chord)
    if length2 == 0.0:
        return float(np.linalg.norm(b - a)) <= tol
    t = float((b - a) @ chord) / length2
    if t < -1e-12 or t > 1.0 + 1e-12:
        return False
    dist = abs(_cross2(a, c, b)) / math.sqrt(length2)
    return dist <= tol


def convex_hull_2d(points: np.ndarray) -> np.ndarray:
    """Monotone-chain hull, CCW, with collinear vertices pruned.

    The chain itself runs with exact comparisons (a toleranced chain can drop
    a far corner when near-duplicate extremes create e-16-long edges); the
    collinearity tolerance COLLINEAR_TOL is then applied as a chord-distance
    prune, scaled by max(1, max|coordinate|) so it applies at unit scale.
    """
    pts = np.asarray(points, dtype=float)
    scale = max(1.0, float(np.max(np.abs(pts))))
    # merge floating-point noise clusters so duplicates cannot seed the chain
    cell = 1e-9 * scale
    seen: dict[tuple[int, ...], int] = {}
    keep_idx = []
    for idx, p in enumerate(pts):
        key = tuple(int(math.floor(c / cell)) for c in p)
        if key not in seen:
            seen[key] = idx
            keep_idx.append(idx)
    pts = pts[keep_idx]
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]
    if len(pts) == 1:
        return pts

    def half(seq):
        out: list[np.ndarray] = []
        for p in seq:
            while len(out) >= 2 and _cross2(out[-2], out[-1], p) <= 0.0:
                out.pop()
            out.append(p)
        return out

    lower = half(pts)
    upper = half(pts[::-1])
    hull = lower[:-1] + upper[:-1]
    if len(hull) <= 2:
        return np.array(hull) if hull else pts[:1]
    # prune interior points of straight runs (the anchor hull[0] itself can
    # be a mid-edge point displaced by e-16, so finish with a ring pass)
    tol = COLLINEAR_TOL * scale
    out = [hull[0]]
    for p in hull[1:]:
        while len(out) >= 2 and _between_chord(out[-2], p, out[-1], tol):
            out.pop()
        out.append(p)
    while len(out) >= 3 and _between_chord(out[-2], out[0], out[-1], tol):
        out.pop()
    while len(out) > 2:
        n = len(out)
        for i in range(n):
            if _between_chord(out[(i - 1) % n], out[(i + 1) % n], out[i], tol):
                out.pop(i)
                break
        else:
            break
    return np.array(out)


def boundary2d(vec: ObservableVec, steps: int = 360, deg_tol: float = DEG_TOL_DEFAULT) -> Boundary:
    """Faces at phi_k = 2 pi k / steps plus the convex hull of their vertices."""
    if vec.n != 2:
        raise DimensionMismatch("boundary2d needs a 2-operator vector")
    if steps < 8:
        raise ValueError("steps must be >= 8")
    faces = [face(vec, d, deg_tol) for d in sweep_directions(2, steps)]
    hull = convex_hull_2d(np.vstack([f.vertices for f in faces]))
    return Boundary(faces=faces, grid=steps, deg_tol=deg_tol, hull=hull)


def boundary3d(
    vec: ObservableVec,
    theta_steps: int,
    phi_steps: int,
    deg_tol: float = DEG_TOL_DEFAULT,
) -> Boundary:
    """Lat-long sweep: theta_k = k pi/K (both poles), phi_k' = k' 2pi/K'."""
    if vec.n != 3:
        raise DimensionMismatch("boundary3d needs a 3-operator vector")
    if theta_steps < 4 or phi_steps < 8:
        raise ValueError("theta_steps >= 4 and phi_steps >= 8 required")
    grid = (theta_steps, phi_steps)
    faces = [face(vec, d, deg_tol) for d in sweep_directions(3, grid)]
    return Boundary(faces=faces, grid=grid, deg_tol=deg_tol)


def hyperrect(vec: ObservableVec) -> Hyperrect:
    """Cartesian product of the operators' spectral intervals."""
    return Hyperrect(
        lo=tuple(op.eig_min for op in vec.ops),
        hi=tuple(op.eig_max for op in vec.ops),
    )


def membership(vec: ObservableVec, r, grid) -> float:
    """Signed margin min_eta (lambda_max(eta) - eta.r); negative certifies r outside.

    grid is a sweep_directions grid: a step count for two operators,
    (theta_steps, phi_steps) for three.
    """
    r = np.asarray(r, dtype=float)
    if r.shape != (vec.n,):
        raise DimensionMismatch(f"point has shape {r.shape}, expected ({vec.n},)")
    if not np.all(np.isfinite(r)):
        raise NonFinite(f"point {r.tolist()} is not finite")
    etas = np.array([d.eta for d in sweep_directions(vec.n, grid)])
    return float(np.min(block_top_eigenvalues(etas, vec.blocks) - etas @ r))


def commuting_polytope(vec: ObservableVec) -> np.ndarray:
    """Hull vertices of the diagonal mean vectors in a common eigenbasis.

    A random real combination is diagonalized to produce the simultaneous
    eigenbasis; the seed COMM_SEED is fixed so results are deterministic.
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
    points = np.array([_expectations(mats, basis[:, l]) for l in range(basis.shape[1])])
    if vec.n == 2:
        return convex_hull_2d(points)
    from scipy.spatial import ConvexHull, QhullError  # deferred: only 3-op polytopes need it

    pts = _dedupe(points, 1e-10 * max(1.0, float(np.max(np.abs(points)))))
    if len(pts) <= 3:
        return pts
    try:
        return pts[ConvexHull(pts).vertices]
    except QhullError:
        return pts  # degenerate (coplanar) clouds are returned as-is


def block_union_range(parts, steps: int) -> np.ndarray:
    """Hull of the union of several 2-operator boundaries (dimensions may differ)."""
    parts = list(parts)
    if not parts:
        raise EmptyBoundary("no parts given")
    vertex_sets = []
    for part in parts:
        if part.n != 2:
            raise DimensionMismatch("block_union_range needs 2-operator vectors")
        vertex_sets.append(boundary2d(part, steps=steps).all_vertices())
    return convex_hull_2d(np.vstack(vertex_sets))
