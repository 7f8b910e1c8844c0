"""Complex Hermitian linear algebra with certified residual accuracy.

All matrices are square numpy complex128 arrays. Full eigendecompositions
(eigenvalues and eigenvectors) are delegated to LAPACK through
numpy.linalg.eigh, which meets the residual contract
``|A v - lambda v| <= 1e-10 |A|_F`` for the dimensions used here (d <= 201);
the face layer uses them on operators compressed to a top eigenspace.

Readers of many real combinations of one operator set need only the top of
each spectrum. ``split_blocks`` validates the set once and splits it into
blocks, the connected components of the union of the operators' nonzero
patterns, with no code per operator family; each block is packed once into
upper band storage at its own bandwidth, real when every operator's block is
real. A block forms the bands of many combinations at once
(``Block.combine``, one matrix-vector product per combination, so each band
is the same whatever else the call forms), and ``band_top`` computes only a
band's top eigenpairs with LAPACK ?hbevx (?sbevx for a real block):
band-to-tridiagonal reduction, bisection for the selected eigenvalues,
inverse iteration for their vectors.
Every request is sized so that its index range never ends inside a
degenerate pair: ?stebz must place an index boundary between the last value
asked for and the next one down, and when those two agree to rounding it
bisects to full precision to split them. So a request asks for at least the
top two values (a doublet on top then lies wholly inside it), and
``numrange`` asks a block whose levels are all Kramers pairs for four.
``Block.compress`` reads V^H A_i V for columns V of the block's space from the
stored diagonals, so the face layer never forms a dense operator.
``block_top_eigenvalues`` is the max over blocks of each block's top
eigenvalue, for many combinations at once, from the same top-two request a
sweep makes first; ``numrange`` merges the blocks' top clusters into one.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    NoConvergence,
    NonFinite,
    NonHermitian,
    NotNormalized,
)

HERMITICITY_RTOL = 1e-12
NORM_TOL = 1e-12
# bisection tolerance of ?hbevx/?sbevx: twice LAPACK's safe minimum, the most
# accurate setting, as scipy.linalg.eig_banded chooses it
BEVX_ABSTOL = 2 * np.finfo(np.float64).tiny


def as_cmatrix(entries) -> np.ndarray:
    """Coerce to a finite square complex matrix, or a stack of them (..., m, m)."""
    mat = np.asarray(entries, dtype=np.complex128)
    if mat.ndim < 2 or mat.shape[-1] != mat.shape[-2]:
        raise DimensionMismatch(f"expected a square matrix, got shape {mat.shape}")
    if not np.all(np.isfinite(mat.real)) or not np.all(np.isfinite(mat.imag)):
        raise NonFinite("matrix has non-finite entries")
    return mat


def check_hermitian(mat: np.ndarray) -> None:
    """NonHermitian unless each matrix of mat (..., m, m) is Hermitian within HERMITICITY_RTOL of its own scale."""
    scale = np.maximum(1.0, np.max(np.abs(mat), axis=(-2, -1), initial=0.0))
    asym = np.max(np.abs(mat - np.swapaxes(mat, -1, -2).conj()), axis=(-2, -1), initial=0.0)
    if np.any(asym > HERMITICITY_RTOL * scale):
        worst = np.unravel_index(np.argmax(asym / scale), scale.shape)
        raise NonHermitian(f"max asymmetry {asym[worst]:.3e} exceeds {HERMITICITY_RTOL:.0e}*{scale[worst]:.3e}")


@dataclass(frozen=True)
class Spectrum:
    """Full ascending spectrum with orthonormal eigenvector columns, or one per matrix of a stack."""

    values: np.ndarray  # (..., d), nondecreasing
    vectors: np.ndarray  # (..., d, d), column k pairs with values[..., k]


@dataclass(frozen=True)
class HermObservable:
    """Hermitian matrix with cached extreme eigenvalues; one coordinate of the mean vector."""

    mat: np.ndarray
    label: str
    eig_min: float
    eig_max: float

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


def make_hermitian(entries, label: str = "") -> HermObservable:
    """Validate and wrap a Hermitian matrix, caching its extreme eigenvalues."""
    mat = as_cmatrix(entries)
    if mat.ndim != 2:
        raise DimensionMismatch(f"expected a square matrix, got shape {mat.shape}")
    check_hermitian(mat)
    mat = (mat + mat.conj().T) / 2.0  # bitwise Hermitian from here on
    mat.setflags(write=False)
    try:
        vals = np.linalg.eigvalsh(mat)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    return HermObservable(mat=mat, label=label, eig_min=float(vals[0]), eig_max=float(vals[-1]))


def eig_hermitian(mat) -> Spectrum:
    """Full ascending eigendecomposition of a Hermitian matrix, or of each of a stack (..., m, m) as if alone."""
    mat = as_cmatrix(mat)
    check_hermitian(mat)
    try:
        values, vectors = np.linalg.eigh(mat)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    values.setflags(write=False)
    vectors.setflags(write=False)
    return Spectrum(values=values, vectors=vectors)


def combine_matrix(coeffs, mats) -> np.ndarray:
    """sum_i coeffs[..., i] * mats[..., i, :, :], stacks broadcast, each as if alone (no validation; hot path)."""
    coeffs, mats = np.asarray(coeffs, dtype=float), np.asarray(mats)
    out = np.zeros(np.broadcast_shapes(coeffs.shape[:-1], mats.shape[:-3]) + mats.shape[-2:], dtype=mats.dtype)
    for i in range(coeffs.shape[-1]):
        out += coeffs[..., i, None, None] * mats[..., i, :, :]
    return out


@dataclass(frozen=True)
class Block:
    """One block of an operator set, packed in upper band storage.

    Row b - k of a band holds the k-th superdiagonal, right-aligned: the
    upper band storage LAPACK's ?hbevx reads.
    """

    index: np.ndarray  # (m,) ascending positions of the block in C^d
    bands: np.ndarray  # (n_ops, b + 1, m); float64 when every operator's block is real

    @property
    def size(self) -> int:
        return len(self.index)

    def combine(self, coeffs) -> np.ndarray:
        """Band of sum_i coeffs[..., i] * op_i, shape coeffs.shape[:-1] + (b + 1, m).

        One matrix-vector product per row (a stacked matmul), the same call
        with the same shapes for every row, so a row's band is bitwise the
        same whatever other rows the call takes: one matrix-matrix product
        need not round a row of many like a row of one. The operators are
        finite, but a combination can still overflow or take a non-finite
        coefficient, so it is checked: NonFinite.
        """
        coeffs = np.asarray(coeffs, dtype=float)
        out = np.matmul(coeffs[..., None, :], self.bands.reshape(len(self.bands), -1))[..., 0, :]
        if not np.all(np.isfinite(out)):
            raise NonFinite("operator combination has non-finite entries")
        return out.reshape(out.shape[:-1] + self.bands.shape[1:])

    def compress(self, vectors) -> np.ndarray:
        """V^H op_i V for every operator, shape vectors.shape[:-2] + (n_ops, c, c).

        vectors holds columns of the block's space, shape (..., m, c). The
        compressions are read from the b + 1 stored diagonals: with D the
        main diagonal and U_k the k-th superdiagonal, V^H A V = H + H^H for
        H = V^H (D/2) V + sum_k V[:m-k]^H U_k V[k:], so every result is
        Hermitian bitwise. Each entry is one sum over the block's positions,
        so a row's result does not depend on the other rows of the call. The
        sums run in an order set by the memory layout, so vectors is first
        laid out with each column contiguous (a copy unless it already is):
        the result depends on the values alone.
        """
        vectors = np.swapaxes(np.ascontiguousarray(np.swapaxes(vectors, -1, -2)), -1, -2)
        b = self.bands.shape[1] - 1
        left = vectors.conj()[..., None, :, :, None]  # (..., 1, m, c, 1)
        right = vectors[..., None, :, None, :]  # (..., 1, m, 1, c)
        half = (left * (0.5 * self.bands[:, b, :, None, None]) * right).sum(axis=-3)
        for k in range(1, b + 1):
            half += (left[..., :-k, :, :] * self.bands[:, b - k, k:, None, None] * right[..., k:, :, :]).sum(axis=-3)
        return half + np.swapaxes(half, -1, -2).conj()


def split_blocks(mats) -> tuple[Block, ...]:
    """Validate an operator set once and split it into blocks.

    The operators are checked finite and Hermitian here, and nowhere per
    combination: a real combination of Hermitian matrices is Hermitian. The
    blocks are the connected components of the union of the operators'
    exact nonzero patterns, found by boolean transitive closure (repeated
    squaring, so log2 of the longest path in products), and ordered by their
    first index. No entry of any operator couples two blocks, so every real
    combination is block diagonal in the same blocks. A set that does not
    split is one block, at bandwidth d - 1 when dense.
    """
    mats = [as_cmatrix(m) for m in mats]
    for m in mats:
        check_hermitian(m)
    d = mats[0].shape[0]
    if any(m.shape != (d, d) for m in mats):
        raise DimensionMismatch("operators differ in dimension")
    pattern = np.any(np.stack(mats) != 0, axis=0)
    reach = pattern | pattern.T | np.eye(d, dtype=bool)
    while True:
        wider = (reach.astype(np.float64) @ reach) > 0
        if np.array_equal(wider, reach):
            break
        reach = wider
    first = np.argmax(reach, axis=1)  # the smallest index in each position's block
    blocks = []
    for root in np.unique(first):
        index = np.flatnonzero(first == root)
        sub = np.stack([m[np.ix_(index, index)] for m in mats])
        if not np.any(sub.imag):
            sub = sub.real
        offsets = np.abs(np.subtract.outer(np.arange(len(index)), np.arange(len(index))))
        b = int(offsets[np.any(sub != 0, axis=0)].max(initial=0))
        bands = np.zeros((len(mats), b + 1, len(index)), dtype=sub.dtype)
        for k in range(b + 1):
            bands[:, b - k, k:] = np.diagonal(sub, k, axis1=1, axis2=2)
        index.setflags(write=False)
        bands.setflags(write=False)
        blocks.append(Block(index=index, bands=bands))
    return tuple(blocks)


@functools.cache
def _bevx(kind: str):
    """LAPACK's ?hbevx for a complex band (dtype kind "c"), ?sbevx for a real one, resolved once per kind."""
    from scipy.linalg.lapack import dsbevx, zhbevx  # deferred: scipy.linalg takes longer to import than specrange

    return zhbevx if kind == "c" else dsbevx


def band_top(band: np.ndarray, k: int, vectors: bool = True):
    """The top k eigenvalues, ascending, of one band-stored Hermitian matrix.

    With ``vectors`` also their orthonormal eigenvector columns, as a pair.
    This is scipy.linalg.eig_banded(select="i") without its per-call
    argument checks, which cost three times LAPACK's own work at d <= 5:
    the same ?hbevx/?sbevx call, at the same abstol. The band must be
    finite; a LAPACK failure raises NoConvergence.

    The cost depends on where the index range ends: when the k-th value from
    the top and the one below it agree to rounding, ?stebz bisects to full
    precision to split them. Callers choose k so that the range does not end
    inside a degenerate pair: two rather than one, four on a Kramers block.
    """
    bevx = _bevx(band.dtype.kind)
    m = band.shape[1]
    values, vecs, found, _, info = bevx(
        band, 0.0, 0.0, m - k + 1, m, compute_v=int(vectors), range=2, abstol=BEVX_ABSTOL, overwrite_ab=0
    )
    if info != 0 or found != k:
        raise NoConvergence(f"banded eigensolver: info {info}, {found} of {k} eigenvalues")
    return (values[:k], vecs) if vectors else values[:k]


def block_top_eigenvalues(coeffs, blocks) -> np.ndarray:
    """lambda_max of sum_i coeffs[k, i] * op_i for every row k, from the set's blocks.

    Each block is asked for its top min(2, size) values, without vectors, and
    the largest is kept. A top-one request would end its index range between
    lambda_1 and lambda_2, which bisection must split to full precision when
    they form a doublet (anticomm at integer j has one on top in most
    directions), so two values cost less than one.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    n_ops = len(blocks[0].bands)
    if coeffs.ndim != 2 or coeffs.shape[1] != n_ops:
        raise DimensionMismatch(f"coefficients have shape {coeffs.shape}, expected (k, {n_ops})")
    tops = np.full(len(coeffs), -np.inf)
    for block in blocks:
        rows = block.combine(coeffs)
        k = min(2, block.size)
        tops = np.maximum(tops, [band_top(row, k, vectors=False)[-1] for row in rows])
    return tops


def expectation(obs: HermObservable, psi) -> float:
    """Born-rule mean value <psi|A|psi> for a unit vector psi; NonFinite for a state with a NaN or inf entry."""
    psi = np.asarray(psi, dtype=np.complex128).reshape(-1)
    if psi.shape[0] != obs.dim:
        raise DimensionMismatch(f"state length {psi.shape[0]} != dim {obs.dim}")
    if not np.all(np.isfinite(psi)):
        raise NonFinite(f"state {psi.tolist()} is not finite")
    nrm = float(np.linalg.norm(psi))
    if abs(nrm - 1.0) > NORM_TOL:
        raise NotNormalized(f"|psi| = {nrm!r}")
    return float(np.real(psi.conj() @ (obs.mat @ psi)))
