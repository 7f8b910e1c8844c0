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
real. A combination is formed block by block (``Block.combine``), and
``band_top`` computes only its top eigenpairs with LAPACK ?hbevx (?sbevx for a
real block): band-to-tridiagonal reduction, bisection for the selected
eigenvalues, inverse iteration for their vectors. ``top_eigenvalues`` is the
max over blocks of each block's top eigenvalue; ``numrange.support`` merges
the blocks' top clusters into one.
"""

from __future__ import annotations

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
    """Coerce to a finite square complex matrix."""
    mat = np.asarray(entries, dtype=np.complex128)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {mat.shape}")
    if not np.all(np.isfinite(mat.real)) or not np.all(np.isfinite(mat.imag)):
        raise NonFinite("matrix has non-finite entries")
    return mat


def check_hermitian(mat: np.ndarray) -> None:
    scale = max(1.0, float(np.max(np.abs(mat))) if mat.size else 0.0)
    asym = float(np.max(np.abs(mat - mat.conj().T))) if mat.size else 0.0
    if asym > HERMITICITY_RTOL * scale:
        raise NonHermitian(f"max asymmetry {asym:.3e} exceeds {HERMITICITY_RTOL:.0e}*{scale:.3e}")


@dataclass(frozen=True)
class Spectrum:
    """Full ascending spectrum with orthonormal eigenvector columns."""

    values: np.ndarray  # (d,), nondecreasing
    vectors: np.ndarray  # (d, d), column k pairs with values[k]

    @property
    def dim(self) -> int:
        return len(self.values)


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
    check_hermitian(mat)
    mat = (mat + mat.conj().T) / 2.0  # bitwise Hermitian from here on
    mat.setflags(write=False)
    try:
        vals = np.linalg.eigvalsh(mat)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NoConvergence(str(exc)) from exc
    return HermObservable(mat=mat, label=label, eig_min=float(vals[0]), eig_max=float(vals[-1]))


def eig_hermitian(mat) -> Spectrum:
    """Full ascending eigendecomposition of a Hermitian matrix."""
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
    """Real-linear combination of matrices (no validation; hot path)."""
    out = np.zeros_like(mats[0])
    for c, m in zip(coeffs, mats):
        out += float(c) * m
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

        The operators are finite, but a combination can still overflow or
        take a non-finite coefficient, so it is checked: NonFinite.
        """
        n_ops = len(self.bands)
        out = np.asarray(coeffs, dtype=float) @ self.bands.reshape(n_ops, -1)
        if not np.all(np.isfinite(out)):
            raise NonFinite("operator combination has non-finite entries")
        return out.reshape(out.shape[:-1] + self.bands.shape[1:])


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


def band_top(band: np.ndarray, k: int, vectors: bool = True):
    """The top k eigenvalues, ascending, of one band-stored Hermitian matrix.

    With ``vectors`` also their orthonormal eigenvector columns, as a pair.
    This is scipy.linalg.eig_banded(select="i") without its per-call
    argument checks, which cost three times LAPACK's own work at d <= 5:
    the same ?hbevx/?sbevx call, at the same abstol. The band must be
    finite; a LAPACK failure raises NoConvergence.
    """
    from scipy.linalg.lapack import dsbevx, zhbevx  # deferred: scipy.linalg takes longer to import than specrange

    bevx = zhbevx if np.iscomplexobj(band) else dsbevx
    m = band.shape[1]
    values, vecs, found, _, info = bevx(
        band, 0.0, 0.0, m - k + 1, m, compute_v=int(vectors), range=2, abstol=BEVX_ABSTOL, overwrite_ab=0
    )
    if info != 0 or found != k:
        raise NoConvergence(f"banded eigensolver: info {info}, {found} of {k} eigenvalues")
    return (values[:k], vecs) if vectors else values[:k]


def block_top_eigenvalues(coeffs, blocks) -> np.ndarray:
    """lambda_max of sum_i coeffs[k, i] * op_i for every row k, from the set's blocks."""
    coeffs = np.asarray(coeffs, dtype=float)
    n_ops = len(blocks[0].bands)
    if coeffs.ndim != 2 or coeffs.shape[1] != n_ops:
        raise DimensionMismatch(f"coefficients have shape {coeffs.shape}, expected (k, {n_ops})")
    tops = np.full(len(coeffs), -np.inf)
    for block in blocks:
        rows = block.combine(coeffs)
        tops = np.maximum(tops, [band_top(row, 1, vectors=False)[0] for row in rows])
    return tops


def top_eigenvalues(coeffs, mats) -> np.ndarray:
    """lambda_max of sum_i coeffs[k, i] * mats[i] for every row k of coeffs.

    The operators are validated and split into blocks once (split_blocks);
    each row is the max over blocks of the block's top eigenvalue.
    """
    return block_top_eigenvalues(coeffs, split_blocks(mats))


def expectation(obs: HermObservable, psi) -> float:
    """Born-rule mean value <psi|A|psi> for a unit vector psi."""
    psi = np.asarray(psi, dtype=np.complex128).reshape(-1)
    if psi.shape[0] != obs.dim:
        raise DimensionMismatch(f"state length {psi.shape[0]} != dim {obs.dim}")
    nrm = float(np.linalg.norm(psi))
    if abs(nrm - 1.0) > NORM_TOL:
        raise NotNormalized(f"|psi| = {nrm!r}")
    return float(np.real(psi.conj() @ (obs.mat @ psi)))
