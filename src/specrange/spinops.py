"""Angular momentum operator families, coherent kets, and frame transformations.

Conventions: the basis is ordered m = +j, j-1, ..., -j, so Jz's diagonal
descends. Half-integers are carried exactly as twice-j integers, and the
ladder coefficients sqrt((j-+m)(j+-m+1)) are rooted once from exact integer
products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GammaOutOfRange, WrongKind
from .linalg import Block, HermObservable, make_hermitian, split_blocks

KIND_J = "J"
KIND_JPOW = "JPOW"
KIND_JSQ2D = "JSQ2D"
KIND_LADDER = "LADDER"
KIND_ANTICOMM = "ANTICOMM"


@dataclass(frozen=True, order=True)
class HalfInt:
    """Exact half-integer quantum number, stored as twice its value."""

    twice: int

    def __post_init__(self):
        if self.twice < 0:
            raise ValueError("twice-j must be nonnegative")

    @property
    def j(self) -> float:
        return self.twice / 2.0

    @property
    def dim(self) -> int:
        return self.twice + 1

    @property
    def is_integer(self) -> bool:
        return self.twice % 2 == 0

    @classmethod
    def parse(cls, text: str) -> "HalfInt":
        """Parse 'p/2'-style rationals or plain integers, e.g. '3/2', '2'."""
        text = text.strip()
        if "/" in text:
            num, den = text.split("/", 1)
            num, den = int(num), int(den)
            if den == 2:
                return cls(num)
            if den == 1:
                return cls(2 * num)
            raise ValueError(f"not a half-integer: {text!r}")
        return cls(2 * int(text))

    def __str__(self) -> str:
        return str(self.twice // 2) if self.is_integer else f"{self.twice}/2"


@dataclass(frozen=True)
class ObservableVec:
    """Ordered vector of 2 or 3 Hermitian observables on one Hilbert space."""

    ops: tuple[HermObservable, ...]
    j: HalfInt
    kind: str
    gamma: int = 1

    def __post_init__(self):
        if len(self.ops) not in (2, 3):
            raise ValueError("ObservableVec holds 2 or 3 operators")
        dims = {op.dim for op in self.ops}
        if len(dims) != 1:
            raise ValueError("operators differ in dimension")

    @property
    def n(self) -> int:
        return len(self.ops)

    @property
    def dim(self) -> int:
        return self.ops[0].dim

    @property
    def mats(self) -> list[np.ndarray]:
        return [op.mat for op in self.ops]

    @cached_property
    def blocks(self) -> tuple[Block, ...]:
        """The operators validated and split into band-stored blocks, once per vector."""
        return split_blocks(self.mats)


@dataclass(frozen=True)
class SpinOperators:
    jx: HermObservable
    jy: HermObservable
    jz: HermObservable
    jplus: np.ndarray
    jminus: np.ndarray


def m_values(j: HalfInt) -> np.ndarray:
    """Quantum numbers m = j, j-1, ..., -j in basis order."""
    return (j.twice - 2 * np.arange(j.dim)) / 2.0


def angular_momentum(j: HalfInt) -> SpinOperators:
    """Jx, Jy, Jz as observables plus the raw (non-Hermitian) ladder matrices."""
    d = j.dim
    jz = np.diag(m_values(j)).astype(np.complex128)
    jplus = np.zeros((d, d), dtype=np.complex128)
    for i in range(1, d):
        twice_m = j.twice - 2 * i  # source state |m>
        prod = (j.twice - twice_m) * (j.twice + twice_m + 2)  # 4(j-m)(j+m+1)
        jplus[i - 1, i] = math.sqrt(prod) / 2.0
    jminus = jplus.conj().T
    jx = (jplus + jminus) / 2.0
    jy = (jplus - jminus) / 2.0j
    return SpinOperators(
        jx=make_hermitian(jx, "Jx"),
        jy=make_hermitian(jy, "Jy"),
        jz=make_hermitian(jz, "Jz"),
        jplus=jplus,
        jminus=jminus,
    )


def ladder_combo(j: HalfInt, gamma: int) -> ObservableVec:
    """The pair (J+^g + J-^g, i(J+^g - J-^g)); the null pair when g >= d."""
    if gamma < 1:
        raise GammaOutOfRange(f"gamma must be >= 1, got {gamma}")
    ops = angular_momentum(j)
    plus_pow = np.linalg.matrix_power(ops.jplus, gamma)
    x = plus_pow + plus_pow.conj().T
    y = 1j * (plus_pow - plus_pow.conj().T)
    return ObservableVec(
        ops=(make_hermitian(x, f"X_{gamma}"), make_hermitian(y, f"Y_{gamma}")),
        j=j,
        kind=KIND_LADDER,
        gamma=gamma,
    )


def power_vec(j: HalfInt, gamma: int) -> ObservableVec:
    """Entrywise matrix powers (Jx^g, Jy^g, Jz^g)."""
    if gamma < 1:
        raise GammaOutOfRange(f"gamma must be >= 1, got {gamma}")
    ops = angular_momentum(j)
    triple = tuple(
        make_hermitian(np.linalg.matrix_power(base.mat, gamma), f"{base.label}^{gamma}")
        for base in (ops.jx, ops.jy, ops.jz)
    )
    return ObservableVec(ops=triple, j=j, kind=KIND_JPOW, gamma=gamma)


def jsq_pair(j: HalfInt) -> ObservableVec:
    """The planar pair (Jx^2, Jy^2)."""
    ops = angular_momentum(j)
    pair = tuple(
        make_hermitian(base.mat @ base.mat, f"{base.label}^2") for base in (ops.jx, ops.jy)
    )
    return ObservableVec(ops=pair, j=j, kind=KIND_JSQ2D, gamma=2)


def anticomm_vec(j: HalfInt, gamma: int = 1) -> ObservableVec:
    """Anticommutators of gamma-th powers: (Jx^g Jz^g + Jz^g Jx^g, ...)."""
    if gamma < 1:
        raise GammaOutOfRange(f"gamma must be >= 1, got {gamma}")
    ops = angular_momentum(j)
    xg, yg, zg = (np.linalg.matrix_power(o.mat, gamma) for o in (ops.jx, ops.jy, ops.jz))
    pairs = [(xg, zg, "A1"), (yg, zg, "A2"), (xg, yg, "A3")]
    trip = []
    for a, b, name in pairs:
        prod = a @ b
        label = name if gamma == 1 else f"{name}_g{gamma}"
        trip.append(make_hermitian(prod + prod.conj().T, label))
    return ObservableVec(ops=tuple(trip), j=j, kind=KIND_ANTICOMM, gamma=gamma)


def coherent_ket(j: HalfInt, theta: float, phi: float) -> np.ndarray:
    """Angular momentum coherent state, the top eigenket of eta(theta,phi).J."""
    d = j.dim
    amp = np.empty(d, dtype=np.complex128)
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    for k in range(d):  # k = j - m
        m = (j.twice - 2 * k) / 2.0
        amp[k] = (
            math.sqrt(math.comb(j.twice, k))
            * c ** (j.twice - k)
            * s**k
            * np.exp(-1j * m * phi)
        )
    nrm = np.linalg.norm(amp)
    return amp / nrm if nrm > 0 else amp


def rotation_matrix(theta: float, phi: float) -> np.ndarray:
    """Orthogonal frame rotation taking Jz to eta(theta,phi).J."""
    ct, st = math.cos(theta), math.sin(theta)
    cp, sp = math.cos(phi), math.sin(phi)
    return np.array(
        [
            [ct * cp, ct * sp, -st],
            [-sp, cp, 0.0],
            [st * cp, st * sp, ct],
        ]
    )


def rotate_frame(vec: ObservableVec, theta: float, phi: float) -> ObservableVec:
    """Rotate an angular momentum triple; the third component becomes eta.J."""
    if vec.kind != KIND_J:
        raise WrongKind(f"rotate_frame needs kind {KIND_J!r}, got {vec.kind!r}")
    rot = rotation_matrix(theta, phi)
    mats = vec.mats
    rotated = []
    for row, name in zip(rot, ("Jx'", "Jy'", "Jz'")):
        acc = sum(float(c) * m for c, m in zip(row, mats))
        rotated.append(make_hermitian(acc, name))
    return ObservableVec(ops=tuple(rotated), j=vec.j, kind=KIND_J, gamma=vec.gamma)


def j_triple(j: HalfInt) -> ObservableVec:
    """(Jx, Jy, Jz) as an observable vector."""
    ops = angular_momentum(j)
    return ObservableVec(ops=(ops.jx, ops.jy, ops.jz), j=j, kind=KIND_J, gamma=1)


def scale_uniform(vec: ObservableVec, s: float) -> ObservableVec:
    """Multiply every operator by a finite s > 0 (extreme eigenvalues scale exactly)."""
    if not 0 < s < math.inf:
        raise ValueError(f"scale must be positive and finite, got {s}")
    scaled = tuple(
        HermObservable(
            mat=op.mat * s,
            label=f"{s:g}*{op.label}",
            eig_min=op.eig_min * s,
            eig_max=op.eig_max * s,
        )
        for op in vec.ops
    )
    return ObservableVec(ops=scaled, j=vec.j, kind=vec.kind, gamma=vec.gamma)
