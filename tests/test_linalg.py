import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import char_coeffs
from specrange.errors import DimensionMismatch, NonHermitian, NotNormalized
from specrange.linalg import (
    Block,
    as_cmatrix,
    block_top_eigenvalues,
    combine_matrix,
    eig_hermitian,
    expectation,
    make_hermitian,
    split_blocks,
)
from specrange.numrange import support, sweep_directions
from specrange.spinops import (
    HalfInt,
    ObservableVec,
    angular_momentum,
    anticomm_vec,
    coherent_ket,
    j_triple,
    jsq_pair,
    ladder_combo,
    power_vec,
)


def random_hermitian(rng, d):
    raw = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (raw + raw.conj().T) / 2.0


def test_make_hermitian_diagonal():
    obs = make_hermitian(np.diag([0.5, -0.5]), "half-sz")
    assert obs.eig_min == pytest.approx(-0.5, abs=1e-14)
    assert obs.eig_max == pytest.approx(0.5, abs=1e-14)


def test_make_hermitian_offdiag():
    obs = make_hermitian(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert obs.eig_min == pytest.approx(-1.0, abs=1e-14)
    assert obs.eig_max == pytest.approx(1.0, abs=1e-14)


def test_make_hermitian_rejects_antihermitian():
    with pytest.raises(NonHermitian):
        make_hermitian(np.array([[0.0, 1j], [1j, 0.0]]))


def test_eig_diagonal_permutation():
    spec = eig_hermitian(np.diag([3.0, 1.0, 2.0]).astype(complex))
    assert np.allclose(spec.values, [1.0, 2.0, 3.0])


def test_eig_ladder_combo_top_value():
    x2 = ladder_combo(HalfInt(3), 2).ops[0]
    spec = eig_hermitian(x2.mat)
    assert spec.values[-1] == pytest.approx(2 * math.sqrt(3), abs=1e-12)


def test_eig_reconstruction_random():
    rng = np.random.default_rng(11)
    mat = random_hermitian(rng, 8)
    spec = eig_hermitian(mat)
    rebuilt = (spec.vectors * spec.values) @ spec.vectors.conj().T
    assert np.linalg.norm(rebuilt - mat) <= 1e-9 * np.linalg.norm(mat)


@pytest.mark.parametrize("d", [2, 5, 16, 64])
def test_eig_residual_and_orthonormality(d):
    rng = np.random.default_rng(d)
    mat = random_hermitian(rng, d)
    spec = eig_hermitian(mat)
    fro = np.linalg.norm(mat)
    for k in range(d):
        res = np.linalg.norm(mat @ spec.vectors[:, k] - spec.values[k] * spec.vectors[:, k])
        assert res <= 1e-10 * fro
    gram = spec.vectors.conj().T @ spec.vectors
    assert np.max(np.abs(gram - np.eye(d))) <= 1e-10
    assert np.all(np.diff(spec.values) >= 0)


def test_eig_determinism():
    rng = np.random.default_rng(3)
    mat = random_hermitian(rng, 12)
    a = eig_hermitian(mat)
    b = eig_hermitian(mat)
    assert a.values.tobytes() == b.values.tobytes()
    assert a.vectors.tobytes() == b.vectors.tobytes()


def test_stacked_eig_and_combination_match_per_matrix_calls_bitwise():
    """A (5, 7) stack of combinations of five 3-operator sets, against each formed and solved alone.

    The one formed alone is bitwise the sum of float(c) * A_i, one operator at a time.
    """
    rng = np.random.default_rng(11)
    mats = np.stack([[random_hermitian(rng, 4) for _ in range(3)] for _ in range(5)])
    coeffs = rng.normal(size=(5, 7, 3))
    combined = combine_matrix(coeffs, mats[:, None])
    spectra = eig_hermitian(combined)
    assert combined.shape == (5, 7, 4, 4) and spectra.vectors.shape == (5, 7, 4, 4)
    for g in range(5):
        for s in range(7):
            alone = combine_matrix(coeffs[g, s], list(mats[g]))
            summed = np.zeros((4, 4), dtype=complex)
            for c, mat in zip(coeffs[g, s], mats[g]):
                summed += float(c) * mat
            assert alone.tobytes() == summed.tobytes() == combined[g, s].tobytes()
            spec = eig_hermitian(alone)
            assert spec.values.tobytes() == spectra.values[g, s].tobytes()
            assert spec.vectors.tobytes() == spectra.vectors[g, s].tobytes()


def test_stacked_eig_rejects_a_non_hermitian_member():
    rng = np.random.default_rng(3)
    stack = np.stack([random_hermitian(rng, 3) for _ in range(4)])
    eig_hermitian(stack)
    stack[2, 0, 1] += 1e-6
    with pytest.raises(NonHermitian):
        eig_hermitian(stack)


@pytest.mark.parametrize("shape", [(2, 3), (3,), (4, 2, 3)])
def test_as_cmatrix_rejects_non_square_input(shape):
    with pytest.raises(DimensionMismatch, match="square matrix"):
        as_cmatrix(np.zeros(shape))


def test_combine_identity_and_cancellation():
    ops = angular_momentum(HalfInt(3))
    same = make_hermitian(combine_matrix([1.0, 0.0], [ops.jx.mat, ops.jy.mat]))
    assert np.allclose(same.mat, ops.jx.mat)
    zero = make_hermitian(combine_matrix([1.0, -1.0], [ops.jx.mat, ops.jx.mat]))
    assert np.max(np.abs(zero.mat)) == 0.0


def test_combine_closed_form_top_eigenvalue():
    # equal-weight mix of the squared pair at j=3/2 has top eigenvalue 7*sqrt(2)/4
    pair = jsq_pair(HalfInt(3))
    mixed = make_hermitian(combine_matrix([math.cos(math.pi / 4), math.sin(math.pi / 4)], pair.mats))
    assert mixed.eig_max == pytest.approx(7 * math.sqrt(2) / 4, abs=1e-12)


def assert_top_matches_support(vec, grid):
    """Banded top eigenvalues against the dense eigh of support, direction by direction.

    Both solvers are backward stable, so they agree to a small multiple of
    eps * |eta.A|, not of eps * |lambda_max|: where lambda_max is far below
    the spectral radius (anticomm gamma = 2 at j = 20 has a direction with
    lambda_max = 21.1 and lambda_min = -70137) the dense value is the one off,
    by 2.7e-11 against a 40-digit reference, while the banded one is off by 1.4e-14.
    """
    dirs = sweep_directions(vec.n, grid)
    tops = block_top_eigenvalues(np.array([d.eta for d in dirs]), split_blocks(vec.mats))
    assert tops.shape == (len(dirs),)
    for d, top in zip(dirs, tops):
        lam = support(vec, d).lambda_max
        radius = float(np.linalg.norm(combine_matrix(d.eta, vec.mats), 2))
        assert abs(top - lam) <= 1e-12 * max(1.0, abs(lam), radius)


FAMILIES = [
    j_triple,
    jsq_pair,
    *(lambda j, g=g: power_vec(j, g) for g in (1, 2, 3)),
    *(lambda j, g=g: ladder_combo(j, g) for g in (1, 2, 3)),
    *(lambda j, g=g: anticomm_vec(j, g) for g in (1, 2, 3)),
]


@pytest.mark.parametrize("twice", [0, 1, 3, 10, 40])
@pytest.mark.parametrize("family", range(len(FAMILIES)))
def test_top_eigenvalues_match_dense_support(family, twice):
    vec = FAMILIES[family](HalfInt(twice))
    assert_top_matches_support(vec, 36 if vec.n == 2 else (6, 12))


def test_top_eigenvalues_diagonal_set():
    j = HalfInt(7)
    jz = angular_momentum(j).jz
    vec = ObservableVec(ops=(jz, make_hermitian(jz.mat @ jz.mat, "Jz^2")), j=j, kind="J")
    assert_top_matches_support(vec, 36)


def test_top_eigenvalues_dense_random_set():
    rng = np.random.default_rng(11)
    ops = tuple(make_hermitian(random_hermitian(rng, 17), f"R{i}") for i in range(3))
    assert_top_matches_support(ObservableVec(ops=ops, j=HalfInt(16), kind="J"), (6, 12))


# (family, gamma): (block count, block bandwidth or None when not fixed, real)
BLOCK_CENSUS = {
    ("jsq2d", 2): (2, 1, True),
    ("jpow", 2): (2, 1, True),
    ("ladder", 2): (2, 1, False),
    ("ladder", 3): (3, 1, False),
    ("jpow", 4): (2, 2, True),
    ("anticomm", 2): (2, 2, True),
    ("j", 1): (1, None, False),
    ("jpow", 3): (1, None, False),
    ("anticomm", 1): (1, None, False),
    ("anticomm", 3): (1, None, False),
}
BUILDERS = {
    "j": lambda j, g: j_triple(j),
    "jsq2d": lambda j, g: jsq_pair(j),
    "jpow": power_vec,
    "ladder": ladder_combo,
    "anticomm": anticomm_vec,
}


@pytest.mark.parametrize("case", list(BLOCK_CENSUS), ids=lambda c: f"{c[0]}{c[1]}")
def test_block_census_at_j10(case):
    """The blocks at j = 10 are the connected components of the operators' nonzero patterns."""
    count, bandwidth, real = BLOCK_CENSUS[case]
    vec = BUILDERS[case[0]](HalfInt(20), case[1])
    blocks = split_blocks(vec.mats)
    assert len(blocks) == count
    assert sorted(np.concatenate([b.index for b in blocks]).tolist()) == list(range(vec.dim))
    if bandwidth is not None:
        assert [b.bands.shape[1] - 1 for b in blocks] == [bandwidth] * count
    assert all((b.bands.dtype == np.float64) == real for b in blocks)
    owner = np.zeros(vec.dim, dtype=int)
    for k, b in enumerate(blocks):
        owner[b.index] = k
    coupling = np.not_equal.outer(owner, owner)
    for b in blocks:
        for mat, band in zip(vec.mats, b.bands):
            assert not np.any(mat[coupling])
            sub = mat[np.ix_(b.index, b.index)]
            w = band.shape[0] - 1
            assert not np.any(np.triu(sub, w + 1))
            for k in range(w + 1):
                assert np.array_equal(band[w - k, k:], np.diagonal(sub, k))


@pytest.mark.parametrize("case", list(BLOCK_CENSUS), ids=lambda c: f"{c[0]}{c[1]}")
def test_block_combine_rows_do_not_depend_on_the_batch(case):
    """Each row of a batched Block.combine is bitwise the band of its coefficients alone."""
    vec = BUILDERS[case[0]](HalfInt(20), case[1])
    coeffs = np.random.default_rng(1).normal(size=(37, vec.n))
    for block in split_blocks(vec.mats):
        batch = block.combine(coeffs)
        for row, band in zip(coeffs, batch):
            assert block.combine(row).tobytes() == band.tobytes()
            assert block.combine(row[None])[0].tobytes() == band.tobytes()


def test_block_compress_does_not_depend_on_the_input_layout():
    """C-ordered, Fortran-ordered and column-contiguous copies of the same vectors compress to the same bytes."""
    rng = np.random.default_rng(7)
    [block] = split_blocks(anticomm_vec(HalfInt(40), 1).mats)
    vectors = rng.normal(size=(50, block.size, 2)) + 1j * rng.normal(size=(50, block.size, 2))
    want = block.compress(np.ascontiguousarray(vectors.transpose(0, 2, 1)).transpose(0, 2, 1)).tobytes()
    for copy in (np.ascontiguousarray(vectors), np.asfortranarray(vectors)):
        assert block.compress(copy).tobytes() == want


@pytest.mark.parametrize("zeros", [1, 2, 5])
@pytest.mark.parametrize("c", [1, 2, 3])
@pytest.mark.parametrize("case", [("jsq2d", 2), ("anticomm", 1)], ids=["real", "complex"])
def test_block_compress_of_own_columns_ignores_zero_columns(case, c, zeros):
    """A block's c own columns compress to the same bytes whatever zero columns sit before, between or after them.

    numrange.faces compresses each block over every column that some cluster
    of a stack holds in it, so a cluster's own columns sit among zero columns
    of other blocks' states, and must round as they would alone.
    """
    vec = BUILDERS[case[0]](HalfInt(20), case[1])
    rng = np.random.default_rng(10 * c + zeros)
    for block in split_blocks(vec.mats):
        own = np.stack([_orthonormal(rng, block.size, c, block.bands.dtype.type) for _ in range(4)])
        want = block.compress(own).tobytes()
        blank = np.zeros((4, block.size, zeros), dtype=own.dtype)
        for full, at in (
            (np.concatenate([blank, own], axis=2), np.arange(zeros, zeros + c)),
            (np.concatenate([own[..., :1], blank, own[..., 1:]], axis=2), np.r_[0, zeros + 1 : zeros + c]),
            (np.concatenate([own, blank], axis=2), np.arange(c)),
        ):
            assert block.compress(full)[..., at[:, None], at].tobytes() == want


def _diagonal_set():
    jz = angular_momentum(HalfInt(20)).jz
    return ObservableVec(ops=(jz, make_hermitian(jz.mat @ jz.mat, "Jz^2")), j=HalfInt(20), kind="J")


def _orthonormal(rng, size: int, c: int, dtype) -> np.ndarray:
    raw = rng.normal(size=(size, c))
    if dtype == np.complex128:
        raw = raw + 1j * rng.normal(size=(size, c))
    return np.linalg.qr(raw)[0]


def assert_compress_matches_dense(mats, block: Block, c: int, rng):
    """Block.compress of a stack of c orthonormal columns against dense V^H A V, per operator."""
    dtypes = (np.float64, np.complex128) if block.bands.dtype == np.float64 else (np.complex128,)
    for dtype in dtypes:
        vectors = np.stack([_orthonormal(rng, block.size, c, dtype) for _ in range(3)])
        got = block.compress(vectors)
        assert got.shape == (3, len(mats), c, c)
        assert np.array_equal(got, np.swapaxes(got, -1, -2).conj())
        for mat, rows in zip(mats, np.swapaxes(got, 0, 1)):
            sub = mat[np.ix_(block.index, block.index)]
            want = vectors.conj().transpose(0, 2, 1) @ sub @ vectors
            assert np.max(np.abs(rows - want)) <= 1e-13 * max(1.0, np.linalg.norm(mat, 2))


@pytest.mark.parametrize("c", [1, 2, 3])
@pytest.mark.parametrize("case", [*BLOCK_CENSUS, "diagonal"], ids=lambda c: "".join(map(str, c)) if c != "diagonal" else c)
def test_block_compress_matches_dense(case, c):
    """V^H A_i V from the stored diagonals, on real and complex bands and on the b = 0 diagonal set."""
    vec = _diagonal_set() if case == "diagonal" else BUILDERS[case[0]](HalfInt(20), case[1])
    rng = np.random.default_rng(c)
    blocks = [b for b in split_blocks(vec.mats) if b.size >= c]
    if case == "diagonal":
        # the diagonal set splits into blocks of one; pack it whole at b = 0 too
        whole = np.stack([np.diag(m).real for m in vec.mats])[:, None, :]
        blocks.append(Block(index=np.arange(vec.dim), bands=whole))
    assert blocks
    for block in blocks:
        assert_compress_matches_dense(vec.mats, block, c, rng)


def test_matmul_identity_and_commutator():
    ops = angular_momentum(HalfInt(2))
    eye = np.eye(3, dtype=complex)
    assert np.allclose(ops.jx.mat @ eye, ops.jx.mat)
    comm = ops.jx.mat @ ops.jy.mat - ops.jy.mat @ ops.jx.mat
    assert np.max(np.abs(comm - 1j * ops.jz.mat)) <= 1e-12


def test_matmul_double_raise():
    ops = angular_momentum(HalfInt(2))
    jpp = ops.jplus @ ops.jplus
    lowest = np.zeros(3, dtype=complex)
    lowest[2] = 1.0  # |m=-1>
    out = jpp @ lowest
    assert out[0] == pytest.approx(2.0, abs=1e-14)  # maps to 2|+1>
    assert np.max(np.abs(out[1:])) == 0.0


def test_expectation_eigenstate_and_offdiagonal():
    j = HalfInt(5)
    ops = angular_momentum(j)
    top = np.zeros(j.dim, dtype=complex)
    top[0] = 1.0  # |m=+j>
    assert expectation(ops.jz, top) == pytest.approx(j.j, abs=1e-14)
    assert expectation(ops.jx, top) == pytest.approx(0.0, abs=1e-14)


def test_expectation_coherent_state():
    j = HalfInt(4)
    ops = angular_momentum(j)
    theta, phi = 0.9, 2.2
    ket = coherent_ket(j, theta, phi)
    assert expectation(ops.jz, ket) == pytest.approx(j.j * math.cos(theta), abs=1e-12)


def test_expectation_rejects_unnormalized():
    ops = angular_momentum(HalfInt(1))
    with pytest.raises(NotNormalized):
        expectation(ops.jz, np.array([1.0, 1.0]))


def test_char_coeffs_identity():
    obs = make_hermitian(np.eye(3, dtype=complex))
    assert np.allclose(char_coeffs(obs), [1.0, 3.0, 3.0, 1.0], atol=1e-12)


def test_char_coeffs_ladder_pair():
    x2 = ladder_combo(HalfInt(2), 2).ops[0]  # eigenvalues {2, 0, -2}
    assert np.allclose(char_coeffs(x2), [1.0, 0.0, -4.0, 0.0], atol=1e-12)


def test_char_coeffs_angle_independent():
    combo = ladder_combo(HalfInt(3), 2)
    lists = []
    for phi in (0.0, 1.0, 2.5):
        mixed = make_hermitian(combine_matrix([math.cos(phi), math.sin(phi)], combo.mats))
        lists.append(char_coeffs(mixed))
    for other in lists[1:]:
        assert np.max(np.abs(other - lists[0])) <= 1e-9


@pytest.mark.parametrize("d", [2, 4, 9, 16])
def test_char_coeffs_match_symmetric_polynomials(d):
    rng = np.random.default_rng(100 + d)
    obs = make_hermitian(random_hermitian(rng, d))
    coeffs = char_coeffs(obs)
    vals = eig_hermitian(obs.mat).values
    poly = np.array([1.0])
    for lam in vals:
        poly = np.convolve(poly, [1.0, -lam])
    elementary = np.array([(-1.0) ** l * poly[l] for l in range(d + 1)])
    for l in range(d + 1):
        assert abs(coeffs[l] - elementary[l]) <= 1e-8 * max(1.0, abs(elementary[l]))


@given(st.integers(min_value=2, max_value=10), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_expectation_within_spectral_interval(d, seed):
    rng = np.random.default_rng(seed)
    obs = make_hermitian(random_hermitian(rng, d))
    psi = rng.normal(size=d) + 1j * rng.normal(size=d)
    psi /= np.linalg.norm(psi)
    val = expectation(obs, psi)
    assert obs.eig_min - 1e-10 <= val <= obs.eig_max + 1e-10
