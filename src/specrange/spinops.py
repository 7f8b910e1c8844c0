"""Operator sets, the angular momentum families, coherent kets, and frame rotations.

Conventions: the basis is ordered m = +j, j-1, ..., -j, so Jz's diagonal
descends. Half-integers are carried exactly as twice-j integers, and the
ladder coefficients sqrt((j-+m)(j+-m+1)) are rooted once from exact integer
products.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, GammaOutOfRange
from .linalg import Block, HermObservable, make_hermitian, split_blocks

# a symmetry generates ObservableVec.symmetries when it maps every operator to
# + or - some operator within this fraction of the operators' largest |eigenvalue|
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


def _composed_key(outer, inner) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The (order, signs) of g o h from g's and h's: h takes A_i to t_i A_k, and g takes A_k to s_k A_order_k."""
    (order, signs), (inner_order, inner_signs) = outer, inner
    return tuple(order[k] for k in inner_order), tuple(t * signs[k] for t, k in zip(inner_signs, inner_order))


@dataclass(frozen=True, eq=False)
class Symmetry:
    """A unitary or antiunitary g of C^d with g A_i g^-1 = signs_i A_order_i, as its exact action on states.

    (g v)_a = phases_a v_{perm_a}, with v conjugated first when conjugate is
    set: a basis permutation, phases +-1 or +-i and complex conjugation, so
    applying g rounds nothing. It maps the allowed region onto itself by the
    signed permutation P, (P eta)_order_i = signs_i eta_i, so
    lambda_max(P eta) = lambda_max(eta), and it takes the top eigenspace at
    eta onto the one at P eta. residual is the largest entry of any
    g A_i g^-1 - signs_i A_order_i, measured when the table is built.
    """

    signs: tuple[int, ...]
    order: tuple[int, ...]
    perm: np.ndarray
    phases: np.ndarray
    conjugate: bool
    residual: float = 0.0

    @property
    def key(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(order, signs): the signed permutation g realizes, which names it in the table."""
        return self.order, self.signs

    def apply(self, states: np.ndarray) -> np.ndarray:
        """g applied to each state of C^d along axis -2: a (d, m) basis or a (G, d, m) stack of them."""
        states = states.conj() if self.conjugate else states
        return self.phases[:, None] * states[..., self.perm, :]

    def transform(self, mats: np.ndarray) -> np.ndarray:
        """g mat g^-1 of each d x d matrix on the last two axes: entry (a, b) is phases_a conj(phases_b)
        mat_{perm_a perm_b}, conjugated when g is."""
        mats = mats.conj() if self.conjugate else mats
        flat = (self.perm[:, None] * len(self.perm) + self.perm).ravel()  # one flat take: fancy 2D indexing is slower
        images = np.take(mats.reshape(*mats.shape[:-2], -1), flat, axis=-1).reshape(mats.shape)
        return np.multiply.outer(self.phases, self.phases.conj()) * images

    def after(self, other: "Symmetry") -> "Symmetry":
        """The composition self o other, whose signed permutation is self's after other's; its residual is left 0."""
        inner = other.phases[self.perm]
        order, signs = _composed_key(self.key, other.key)
        return Symmetry(
            signs=signs,
            order=order,
            perm=other.perm[self.perm],
            phases=self.phases * (inner.conj() if self.conjugate else inner),
            conjugate=self.conjugate != other.conjugate,
        )


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
    def generators(self) -> tuple[Symmetry | None, ...]:
        """Each of five candidate symmetries g with the signed permutation it realizes, or None where g is not one.

        The candidates, in the Jz basis and in this order: complex
        conjugation K, e^{-i pi Jz}, which takes A_ab to (-1)^(a+b) A_ab,
        e^{-i pi Jy}, which does the same at the reversed indices a -> d-1-a,
        the quarter turn Q = diag(i^a), which is e^{-i pi Jz/2} up to a
        global phase and maps Jx to Jy and Jy to -Jx, and Theta =
        e^{-i pi Jy} K, antiunitary like K, which may fix a set that neither
        factor keeps. Q's phases are divided on each block by the phase at
        the block's first index: a phase constant on a block commutes with
        every operator, since none couples two blocks, so a real block (the
        parity blocks of jsq2d) gets +-1 phases and its states stay real.
        One is kept when it sends every operator A_i to +A_k or -A_k within
        SIGN_GROUP_TOL of the operators' largest |eigenvalue| (A_i itself
        tried first, + before -; a zero operator takes +itself), and the k
        form a permutation; matmul-built powers are not mapped bitwise. Its
        residual is the largest such difference.
        """
        self.blocks  # validates the operators, so an invalid one raises before any test
        d = self.dim
        index, alternating = np.arange(d), (-1.0) ** np.arange(d)
        reversed_index = index[::-1].copy()
        turns = index.copy()
        for block in self.blocks:
            turns[block.index] -= block.index[0]
        quarter = np.array([1, 1j, -1, -1j])[turns % 4]
        quarter = quarter if quarter.imag.any() else quarter.real
        tol = SIGN_GROUP_TOL * float(np.abs(self.spectral_ends[0]).max())
        stack = np.stack(self.mats)

        def match(image, i):
            """(k, sign, miss) of the first +-A_k within tol of image, A_i itself first, or None."""
            for k in sorted(range(self.n), key=lambda k: k != i):
                for sign in (1, -1):
                    miss = float(np.max(np.abs(image - sign * stack[k])))
                    if miss <= tol:
                        return k, sign, miss
            return None

        kept = []
        for perm, phases, conjugate in (
            (index, np.ones(d), True),
            (index, alternating, False),
            (reversed_index, alternating, False),
            (index, quarter, False),
            (reversed_index, alternating, True),
        ):
            turn = Symmetry((), (), perm, phases, conjugate)
            matches = [match(image, i) for i, image in enumerate(turn.transform(stack))]
            if None in matches or sorted(k for k, _, _ in matches) != list(range(self.n)):
                kept.append(None)
                continue
            order, signs, misses = zip(*matches)
            kept.append(dataclasses.replace(turn, signs=signs, order=order, residual=max(misses)))
        return tuple(kept)

    @property
    def generator_signs(self) -> tuple[tuple[int, ...] | None, ...]:
        """The sign tuple of each of the five generators, or None where the candidate is not a symmetry."""
        return tuple(None if g is None else g.signs for g in self.generators)

    def _closure(self, generators) -> tuple[Symmetry, ...]:
        """The group the kept generators generate, one element per (order, signs), each with its measured residual.

        Products are taken until nothing new appears (the group need not be
        abelian), keeping the first element found for each key; two
        elements with one key realize it alike. The identity comes first,
        then the elements by operator order ascending and sign tuple
        descending.
        """
        n, d = self.n, self.dim
        stack = np.stack(self.mats)
        identity = Symmetry((1,) * n, tuple(range(n)), np.arange(d), np.ones(d), False)
        table = {identity.key: identity}
        size = 0
        while size < len(table):
            size = len(table)
            for g in filter(None, generators):
                for h in list(table.values()):
                    if _composed_key(g.key, h.key) in table:
                        continue
                    if h is identity:  # g o identity is g, whose residual the generator test measured
                        table[g.key] = g
                        continue
                    gh = g.after(h)
                    misses = gh.transform(stack) - np.array(gh.signs)[:, None, None] * stack[list(gh.order)]
                    table[gh.key] = dataclasses.replace(gh, residual=float(np.max(np.abs(misses))))
        return tuple(table[key] for key in sorted(table, key=lambda key: (key[0], [-s for s in key[1]])))

    @cached_property
    def symmetries(self) -> tuple[Symmetry, ...]:
        """The symmetry table the sweeps share over: the closure of K, e^{-i pi Jz}, e^{-i pi Jy} and Q, identity first.

        A unitary or antiunitary g with g A_i g^-1 = s_i A_order_i for every
        operator maps the allowed region onto itself by a signed permutation
        P, and the top eigenspace at eta onto the one at P eta. Theta stays
        out of the closure; kramers_blocks alone reads it. The spin families
        get order 2 (jsq2d, jpow gamma = 2), 4 (ladder gamma = 2), 8
        (anticomm and ladder gamma = 1) or 16 (J, jpow gamma = 3).
        """
        return self._closure(self.generators[:4])

    @cached_property
    def sign_group(self) -> tuple[tuple[int, ...], ...]:
        """The sign tuples of the diagonals S = diag(+-1) that K, e^{-i pi Jz} and e^{-i pi Jy} generate, descending.

        The group membership shares over; each S keeps lambda_max(S eta) =
        lambda_max(eta), and the identity comes first. Q stays out, so
        membership's orbits and margins are those of the sign group alone.
        """
        identity = tuple(range(self.n))
        return tuple(g.signs for g in self._closure(self.generators[:3]) if g.order == identity)

    @cached_property
    def kramers_blocks(self) -> tuple[bool, ...]:
        """Per block of self.blocks, whether every level of the block is a Kramers pair.

        It needs Theta = e^{-i pi Jy} K to fix every operator: it is kept
        with each operator mapped to +itself. Theta maps basis index a to
        d-1-a, so it maps a block onto itself when the block's positions are
        symmetric under that reversal, and at even d,
        Theta^2 = -1. Then every real combination of the operators commutes
        with Theta on the block, and each of its levels is doubly degenerate.
        A set whose levels pair across blocks (jsq2d at half-integer j) has
        no closed block.
        """
        theta = self.generators[4]
        d = self.dim
        if theta is None or theta.key != (tuple(range(self.n)), (1,) * self.n) or d % 2:
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
