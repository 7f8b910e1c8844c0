"""Complex Hermitian linear algebra with certified residual accuracy.

All matrices are square numpy complex128 arrays. Full eigendecompositions
(eigenvalues and eigenvectors) are delegated to LAPACK through
numpy.linalg.eigh, which meets the residual contract
``|A v - lambda v| <= 1e-10 |A|_F`` for the dimensions used here (d <= 201).
Readers that need only the top eigenvalue of many real combinations of one
operator set use ``top_eigenvalues``: the set is packed once into Hermitian
band storage and each combination goes through LAPACK ?hbevx (tridiagonal
reduction, then bisection for the one eigenvalue), via scipy.linalg.eig_banded.
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


def top_eigenvalues(coeffs, mats) -> np.ndarray:
    """lambda_max of sum_i coeffs[k, i] * mats[i] for every row k of coeffs.

    The operators are validated once (finite, Hermitian): a real combination
    of Hermitian matrices is Hermitian, so the rows need no checks of their
    own. The bandwidth b is the farthest diagonal with a nonzero entry in any
    operator; every row is formed in upper band storage, shape (b+1, d), and
    only its top eigenvalue is computed. A diagonal set has b = 0, a dense one
    b = d - 1; both take this same path.
    """
    from scipy.linalg import eig_banded  # deferred: scipy.linalg takes longer to import than specrange

    mats = [as_cmatrix(m) for m in mats]
    for m in mats:
        check_hermitian(m)
    d = mats[0].shape[0]
    if any(m.shape != (d, d) for m in mats):
        raise DimensionMismatch("operators differ in dimension")
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.ndim != 2 or coeffs.shape[1] != len(mats):
        raise DimensionMismatch(f"coefficients have shape {coeffs.shape}, expected (k, {len(mats)})")
    offsets = np.abs(np.subtract.outer(np.arange(d), np.arange(d)))
    b = int(offsets[np.any(np.stack(mats) != 0, axis=0)].max(initial=0))
    bands = np.zeros((len(mats), b + 1, d), dtype=np.complex128)
    for band, m in zip(bands, mats):
        for k in range(b + 1):
            band[b - k, k:] = np.diagonal(m, k)
    rows = np.tensordot(coeffs, bands, axes=1)
    if not np.all(np.isfinite(rows)):
        raise NonFinite("operator combinations have non-finite entries")
    try:
        tops = [
            eig_banded(
                row, select="i", select_range=(d - 1, d - 1), eigvals_only=True, check_finite=False
            )[0]
            for row in rows
        ]
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    return np.array(tops, dtype=float)


def expectation(obs: HermObservable, psi) -> float:
    """Born-rule mean value <psi|A|psi> for a unit vector psi."""
    psi = np.asarray(psi, dtype=np.complex128).reshape(-1)
    if psi.shape[0] != obs.dim:
        raise DimensionMismatch(f"state length {psi.shape[0]} != dim {obs.dim}")
    nrm = float(np.linalg.norm(psi))
    if abs(nrm - 1.0) > NORM_TOL:
        raise NotNormalized(f"|psi| = {nrm!r}")
    return float(np.real(psi.conj() @ (obs.mat @ psi)))
