"""Operator sets, the angular momentum families, coherent kets, and frame rotations.

Conventions: the basis is ordered m = +j, j-1, ..., -j, so Jz's diagonal
descends. Half-integers are carried exactly as twice-j integers, and the
ladder coefficients sqrt((j-+m)(j+-m+1)) are rooted once from exact integer
products.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, GammaOutOfRange
from .linalg import Block, HermObservable, make_hermitian, split_blocks

# a symmetry generates ObservableVec.sign_group when it maps every operator
# to +-itself within this fraction of the operators' largest |eigenvalue|
SIGN_GROUP_TOL = 1e-12


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
    """Ordered vector of 2 or 3 Hermitian observables on one Hilbert space.

    Any Hermitian pair or triple makes one; gamma is a spin family's power, else 1.
    """

    ops: tuple[HermObservable, ...]
    gamma: int = 1

    def __post_init__(self):
        if len(self.ops) not in (2, 3):
            raise DimensionMismatch("ObservableVec holds 2 or 3 operators")
        if len({op.dim for op in self.ops}) != 1:
            raise DimensionMismatch("operators differ in dimension")

    @property
    def n(self) -> int:
        return len(self.ops)

    @property
    def dim(self) -> int:
        return self.ops[0].dim

    @property
    def j(self) -> HalfInt:
        """The quantum number whose multiplet has this dimension, d = 2j + 1."""
        return HalfInt(self.dim - 1)

    @property
    def mats(self) -> list[np.ndarray]:
        return [op.mat for op in self.ops]

    @cached_property
    def blocks(self) -> tuple[Block, ...]:
        """The operators validated and split into band-stored blocks, once per vector."""
        return split_blocks(self.mats)

    @cached_property
    def generator_signs(self) -> tuple[tuple[int, ...] | None, ...]:
        """The sign tuple s of each of four symmetries g with g A_i g^-1 = s_i A_i, or None where g is not one.

        The symmetries, in the Jz basis and in this order: complex
        conjugation K, e^{-i pi Jz}, which takes A_ab to (-1)^(a+b) A_ab,
        e^{-i pi Jy}, which does the same at the reversed indices a -> d-1-a,
        and Theta = e^{-i pi Jy} K, antiunitary like K, which may fix a set
        that neither factor keeps. One is kept when it sends every operator to
        +itself or -itself within SIGN_GROUP_TOL of the operators' largest
        |eigenvalue| (a zero operator takes +1), since matmul-built powers
        are not mapped bitwise.
        """
        self.blocks  # validates the operators, so an invalid one raises before any test
        d = self.dim
        checker = (-1.0) ** np.add.outer(np.arange(d), np.arange(d))
        tol = SIGN_GROUP_TOL * float(np.abs(self.spectral_ends[0]).max())
        generators = []
        flip = lambda m: checker * m[::-1, ::-1]  # noqa: E731
        for turn in (np.conj, lambda m: checker * m, flip, lambda m: flip(np.conj(m))):
            signs = []
            for mat in self.mats:
                image = turn(mat)
                if np.max(np.abs(image - mat)) <= tol:
                    signs.append(1)
                elif np.max(np.abs(image + mat)) <= tol:
                    signs.append(-1)
                else:
                    generators.append(None)
                    break
            else:
                generators.append(tuple(signs))
        return tuple(generators)

    @cached_property
    def sign_group(self) -> tuple[tuple[int, ...], ...]:
        """Every S = diag(+-1) with lambda_max(S eta) = lambda_max(eta) that three symmetries generate, identity first.

        A unitary or antiunitary g with g A_i g^-1 = s_i A_i for every
        operator maps the allowed region onto itself by S = diag(s). The
        group is the closure of the first three kept generators
        (generator_signs) under elementwise product.
        """
        group = {(1,) * self.n}
        for g in filter(None, self.generator_signs[:3]):  # the elements commute and square to the identity, so H u gH is closed
            group |= {tuple(a * b for a, b in zip(g, s)) for s in group}
        return tuple(sorted(group, reverse=True))

    @cached_property
    def kramers_blocks(self) -> tuple[bool, ...]:
        """Per block of self.blocks, whether every level of the block is a Kramers pair.

        It needs Theta = e^{-i pi Jy} K to fix every operator: its signs in
        generator_signs are all +1. Theta maps basis index a to d-1-a, so it
        maps a block onto itself when the block's positions are symmetric
        under that reversal, and at even d,
        Theta^2 = -1. Then every real combination of the operators commutes
        with Theta on the block, and each of its levels is doubly degenerate.
        A set whose levels pair across blocks (jsq2d at half-integer j) has
        no closed block.
        """
        theta = self.generator_signs[3]
        d = self.dim
        if theta is None or -1 in theta or d % 2:
            return (False,) * len(self.blocks)
        return tuple(bool(np.array_equal(block.index, d - 1 - block.index[::-1])) for block in self.blocks)

    @cached_property
    def spectral_ends(self) -> tuple[np.ndarray, np.ndarray]:
        """Each operator's (eig_min, eig_max) as an (n, 2) array, and max(1, eig_max - eig_min).

        Built once per vector, so a face's extreme-point test reads arrays.
        """
        ends = np.array([(op.eig_min, op.eig_max) for op in self.ops])
        return ends, np.maximum(1.0, ends[:, 1] - ends[:, 0])


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


def _spin_matrices(j: HalfInt) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Jx, Jy, Jz and J+ as plain complex matrices, for builders that only multiply them.

    Each equals its validated observable's matrix (angular_momentum) bitwise:
    the symmetrisation there halves an exact doubling.
    """
    d = j.dim
    jz = np.diag(m_values(j)).astype(np.complex128)
    jplus = np.zeros((d, d), dtype=np.complex128)
    for i in range(1, d):
        twice_m = j.twice - 2 * i  # source state |m>
        prod = (j.twice - twice_m) * (j.twice + twice_m + 2)  # 4(j-m)(j+m+1)
        jplus[i - 1, i] = math.sqrt(prod) / 2.0
    jminus = jplus.conj().T
    return (jplus + jminus) / 2.0, (jplus - jminus) / 2.0j, jz, jplus


def angular_momentum(j: HalfInt) -> SpinOperators:
    """Jx, Jy, Jz as observables plus the raw (non-Hermitian) ladder matrices."""
    jx, jy, jz, jplus = _spin_matrices(j)
    return SpinOperators(
        jx=make_hermitian(jx, "Jx"),
        jy=make_hermitian(jy, "Jy"),
        jz=make_hermitian(jz, "Jz"),
        jplus=jplus,
        jminus=jplus.conj().T,
    )


def checked_gamma(gamma) -> int:
    """gamma as an int, or GammaOutOfRange unless it is an integer >= 1."""
    if not isinstance(gamma, numbers.Integral) or gamma < 1:
        raise GammaOutOfRange(f"gamma must be an integer >= 1, got {gamma!r}")
    return int(gamma)


def ladder_combo(j: HalfInt, gamma: int) -> ObservableVec:
    """The pair (J+^g + J-^g, i(J+^g - J-^g)); the null pair when g >= d."""
    gamma = checked_gamma(gamma)
    plus_pow = np.linalg.matrix_power(_spin_matrices(j)[3], gamma)
    x = plus_pow + plus_pow.conj().T
    y = 1j * (plus_pow - plus_pow.conj().T)
    return ObservableVec(ops=(make_hermitian(x, f"X_{gamma}"), make_hermitian(y, f"Y_{gamma}")), gamma=gamma)


def power_vec(j: HalfInt, gamma: int) -> ObservableVec:
    """Entrywise matrix powers (Jx^g, Jy^g, Jz^g)."""
    gamma = checked_gamma(gamma)
    triple = tuple(
        make_hermitian(np.linalg.matrix_power(base, gamma), f"{name}^{gamma}")
        for base, name in zip(_spin_matrices(j), ("Jx", "Jy", "Jz"))
    )
    return ObservableVec(ops=triple, gamma=gamma)


def jsq_pair(j: HalfInt) -> ObservableVec:
    """The planar pair (Jx^2, Jy^2)."""
    pair = tuple(make_hermitian(base @ base, f"{name}^2") for base, name in zip(_spin_matrices(j), ("Jx", "Jy")))
    return ObservableVec(ops=pair, gamma=2)


def anticomm_vec(j: HalfInt, gamma: int = 1) -> ObservableVec:
    """Anticommutators of gamma-th powers: (Jx^g Jz^g + Jz^g Jx^g, ...)."""
    gamma = checked_gamma(gamma)
    xg, yg, zg = (np.linalg.matrix_power(base, gamma) for base in _spin_matrices(j)[:3])
    pairs = [(xg, zg, "A1"), (yg, zg, "A2"), (xg, yg, "A3")]
    trip = []
    for a, b, name in pairs:
        prod = a @ b
        label = name if gamma == 1 else f"{name}_g{gamma}"
        trip.append(make_hermitian(prod + prod.conj().T, label))
    return ObservableVec(ops=tuple(trip), gamma=gamma)


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
    """Rotate an operator triple, and so its region, by rotation_matrix(theta, phi).

    The third component becomes eta.A, and each label gains a prime (Jx').
    """
    if vec.n != 3:
        raise DimensionMismatch(f"rotate_frame needs an operator triple, got {vec.n} operators")
    rot = rotation_matrix(theta, phi)
    mats = vec.mats
    rotated = tuple(
        make_hermitian(sum(float(c) * m for c, m in zip(row, mats)), f"{op.label}'") for row, op in zip(rot, vec.ops)
    )
    return ObservableVec(ops=rotated, gamma=vec.gamma)


def j_triple(j: HalfInt) -> ObservableVec:
    """(Jx, Jy, Jz) as an observable vector."""
    ops = angular_momentum(j)
    return ObservableVec(ops=(ops.jx, ops.jy, ops.jz))


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
    return ObservableVec(ops=scaled, gamma=vec.gamma)
