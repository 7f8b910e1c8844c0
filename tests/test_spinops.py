import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import CI_LONG, anticomm_sum_pair
from oracles import analytic_lambda_oracle
from specrange.errors import DimensionMismatch, GammaOutOfRange, UnsupportedJ
from specrange import spinops
from specrange.linalg import block_top_eigenvalues, eig_hermitian, expectation, make_hermitian
from specrange.numrange import direction, faces, sweep_directions
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
    rotate_frame,
    rotation_matrix,
    scale_uniform,
)


def basis_state(j, m_index):
    e = np.zeros(j.dim, dtype=complex)
    e[m_index] = 1.0
    return e


def test_halfint_parsing_and_props():
    assert HalfInt.parse("3/2").twice == 3
    assert HalfInt.parse("2").twice == 4
    assert str(HalfInt(3)) == "3/2"
    assert str(HalfInt(4)) == "2"
    assert HalfInt(3).dim == 4
    with pytest.raises(ValueError):
        HalfInt(-1)


def test_halfint_parse_reads_a_denominator_of_one_and_rejects_others():
    assert HalfInt.parse("6/1") == HalfInt(12)
    assert HalfInt.parse(" 6/2 ") == HalfInt(6)
    for text in ("3/4", "1/3"):
        with pytest.raises(ValueError, match="half-integer"):
            HalfInt.parse(text)


def test_spin_half_is_half_pauli():
    ops = angular_momentum(HalfInt(1))
    assert np.allclose(ops.jx.mat, np.array([[0, 0.5], [0.5, 0]]))
    assert np.allclose(ops.jy.mat, np.array([[0, -0.5j], [0.5j, 0]]))
    assert np.allclose(ops.jz.mat, np.diag([0.5, -0.5]))


def test_ladder_action_j1():
    ops = angular_momentum(HalfInt(2))
    out = ops.jplus @ basis_state(HalfInt(2), 1)  # J+|0>
    assert out[0] == pytest.approx(math.sqrt(2), abs=1e-15)


def test_casimir_j2():
    ops = angular_momentum(HalfInt(4))
    total = ops.jx.mat @ ops.jx.mat + ops.jy.mat @ ops.jy.mat + ops.jz.mat @ ops.jz.mat
    assert np.max(np.abs(total - 6 * np.eye(5))) <= 1e-10


def _commutation_js():
    if CI_LONG:
        return [HalfInt(t) for t in range(1, 101)]
    return [HalfInt(t) for t in (1, 2, 3, 5, 9, 20, 51, 100)]


@pytest.mark.parametrize("j", _commutation_js(), ids=str)
def test_commutation_relations(j):
    ops = angular_momentum(j)
    mats = [ops.jx.mat, ops.jy.mat, ops.jz.mat]
    for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        comm = mats[a] @ mats[b] - mats[b] @ mats[a]
        assert np.max(np.abs(comm - 1j * mats[c])) <= 1e-12 * max(1.0, j.j**2)


@pytest.mark.parametrize("j", [HalfInt(t) for t in (1, 2, 3, 4, 7, 20)], ids=str)
def test_casimir_multiple_j(j):
    ops = angular_momentum(j)
    total = sum(m.mat @ m.mat for m in (ops.jx, ops.jy, ops.jz))
    expected = j.j * (j.j + 1)
    assert np.max(np.abs(total - expected * np.eye(j.dim))) <= 1e-10 * max(1.0, expected)


def test_ladders_are_mutual_adjoints():
    ops = angular_momentum(HalfInt(5))
    assert np.array_equal(ops.jminus, ops.jplus.conj().T)


def test_raw_spin_matrices_equal_the_validated_ones_bitwise():
    """The family builders multiply the raw matrices, so their sets are what the observables' would give."""
    for twice in range(120):
        ops = angular_momentum(HalfInt(twice))
        raw = spinops._spin_matrices(HalfInt(twice))
        for got, want in zip(raw, (ops.jx.mat, ops.jy.mat, ops.jz.mat, ops.jplus)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), twice


def test_ladder_combo_gamma1():
    j = HalfInt(3)
    ops = angular_momentum(j)
    vec = ladder_combo(j, 1)
    assert np.allclose(vec.ops[0].mat, 2 * ops.jx.mat)
    assert np.allclose(vec.ops[1].mat, -2 * ops.jy.mat)


def test_ladder_combo_null_at_dimension():
    vec = ladder_combo(HalfInt(2), 3)  # gamma = d
    assert np.max(np.abs(vec.ops[0].mat)) == 0.0
    assert np.max(np.abs(vec.ops[1].mat)) == 0.0


def test_ladder_combo_j2_gamma3():
    vec = ladder_combo(HalfInt(4), 3)
    assert vec.ops[0].eig_max == pytest.approx(12.0, abs=1e-12)


def test_ladder_combo_rejects_nonpositive_gamma():
    with pytest.raises(GammaOutOfRange):
        ladder_combo(HalfInt(2), 0)


def test_ladder_combo_hermitian():
    for gamma in (1, 2, 3):
        vec = ladder_combo(HalfInt(5), gamma)
        for op in vec.ops:
            assert np.max(np.abs(op.mat - op.mat.conj().T)) == 0.0


def test_power_vec_matches_triple_at_gamma1():
    j = HalfInt(3)
    assert np.allclose(power_vec(j, 1).ops[0].mat, angular_momentum(j).jx.mat)


def test_power_vec_fourth_power_corner_value():
    j = HalfInt(4)  # j=2
    vec = power_vec(j, 4)
    top = basis_state(j, 0)
    bottom = basis_state(j, 4)
    for ket in (top, bottom):
        assert expectation(vec.ops[0], ket) == pytest.approx(2 * 5 / 4, abs=1e-12)
        assert expectation(vec.ops[1], ket) == pytest.approx(2 * 5 / 4, abs=1e-12)


def test_power_vec_spin_half_squares():
    vec = power_vec(HalfInt(1), 2)
    for op in vec.ops:
        assert np.allclose(op.mat, np.eye(2) / 4)


def test_jsq_pair_point_case():
    vec = jsq_pair(HalfInt(1))
    for op in vec.ops:
        assert np.allclose(op.mat, np.eye(2) / 4)


def test_jsq_pair_j1_commuting_projectors():
    vec = jsq_pair(HalfInt(2))
    a, b = (op.mat for op in vec.ops)
    assert np.max(np.abs(a @ b - b @ a)) <= 1e-14
    for m in (a, b):
        vals = eig_hermitian(m).values
        assert np.allclose(np.sort(vals), [0.0, 1.0, 1.0], atol=1e-12)  # rank-2 projector


def test_jsq_pair_j32_range():
    vec = jsq_pair(HalfInt(3))
    for op in vec.ops:
        assert op.eig_min == pytest.approx(0.25, abs=1e-12)
        assert op.eig_max == pytest.approx(2.25, abs=1e-12)


def test_anticomm_zero_for_spin_half():
    vec = anticomm_vec(HalfInt(1), 1)
    for op in vec.ops:
        assert np.max(np.abs(op.mat)) <= 1e-15


def test_anticomm_extremes():
    vec = anticomm_vec(HalfInt(3), 1)
    for op in vec.ops:
        assert op.eig_max == pytest.approx(math.sqrt(3), abs=1e-12)
        assert op.eig_min == pytest.approx(-math.sqrt(3), abs=1e-12)
    vec1 = anticomm_vec(HalfInt(2), 1)
    assert vec1.ops[0].eig_max == pytest.approx(1.0, abs=1e-12)


def test_anticomm_relates_to_ladder_combo():
    j = HalfInt(4)
    a3 = anticomm_vec(j, 1).ops[2]
    y2 = ladder_combo(j, 2).ops[1]
    assert np.max(np.abs(a3.mat + y2.mat / 2)) <= 1e-13


def test_anticomm_common_spectrum():
    vec = anticomm_vec(HalfInt(5), 1)
    spectra = [eig_hermitian(op.mat).values for op in vec.ops]
    for other in spectra[1:]:
        assert np.max(np.abs(other - spectra[0])) <= 1e-9


def test_coherent_ket_poles():
    j = HalfInt(5)
    top = coherent_ket(j, 0.0, 0.3)
    assert abs(abs(top[0]) - 1.0) <= 1e-12
    bottom = coherent_ket(j, math.pi, 0.7)
    assert abs(abs(bottom[-1]) - 1.0) <= 1e-12


def test_coherent_ket_equator_mean():
    j = HalfInt(2)
    ket = coherent_ket(j, math.pi / 2, 0.0)
    assert expectation(angular_momentum(j).jx, ket) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("j", [HalfInt(1), HalfInt(2), HalfInt(5), HalfInt(10)], ids=str)
def test_coherent_ket_is_top_eigenvector(j):
    rng = np.random.default_rng(j.twice)
    ops = angular_momentum(j)
    for _ in range(5):
        theta = rng.uniform(0, math.pi)
        phi = rng.uniform(0, 2 * math.pi)
        ket = coherent_ket(j, theta, phi)
        lam = (
            math.sin(theta) * math.cos(phi) * ops.jx.mat
            + math.sin(theta) * math.sin(phi) * ops.jy.mat
            + math.cos(theta) * ops.jz.mat
        )
        assert np.linalg.norm(lam @ ket - j.j * ket) <= 1e-10


def test_rotate_frame_identity_and_axis_swap():
    j = HalfInt(3)
    triple = j_triple(j)
    same = rotate_frame(triple, 0.0, 0.0)
    assert np.allclose(same.ops[2].mat, triple.ops[2].mat)
    assert [op.label for op in same.ops] == ["Jx'", "Jy'", "Jz'"]
    swapped = rotate_frame(triple, math.pi / 2, 0.0)
    assert np.max(np.abs(swapped.ops[2].mat - triple.ops[0].mat)) <= 1e-14


def test_rotate_frame_preserves_spectrum_and_algebra():
    j = HalfInt(4)
    rotated = rotate_frame(j_triple(j), 1.1, 2.3)
    for op in rotated.ops:
        vals = eig_hermitian(op.mat).values
        assert np.max(np.abs(vals - np.arange(-j.j, j.j + 1))) <= 1e-10
    mats = [op.mat for op in rotated.ops]
    comm = mats[0] @ mats[1] - mats[1] @ mats[0]
    assert np.max(np.abs(comm - 1j * mats[2])) <= 1e-12


def test_rotate_frame_wrong_kind():
    with pytest.raises(DimensionMismatch):
        rotate_frame(jsq_pair(HalfInt(3)), 0.1, 0.2)


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda: anticomm_vec(HalfInt(3), 1), id="anticomm1-3/2"),
        pytest.param(lambda: power_vec(HalfInt(5), 3), id="jpow3-5/2"),
        pytest.param(lambda: anticomm_vec(HalfInt(4), 2), id="anticomm2-2"),
    ],
)
def test_rotate_frame_turns_any_triple(build):
    """The rotated set's lambda_max at eta is the original's at R^T eta, R = rotation_matrix(theta, phi),
    within 1e-13 of the operators' largest |eigenvalue|."""
    vec = build()
    scale = max(1.0, float(np.abs(vec.spectral_ends[0]).max()))
    dirs = sweep_directions(3, (6, 12))
    for theta, phi in ((0.7, 2.1), (2.4, 5.3)):
        rot = rotation_matrix(theta, phi)
        turned = faces(rotate_frame(vec, theta, phi), dirs)
        original = faces(vec, [direction(rot.T @ d.eta) for d in dirs])
        gaps = [abs(f.lambda_max - g.lambda_max) for f, g in zip(turned, original, strict=True)]
        assert max(gaps) <= 1e-13 * scale, (theta, phi)


def test_scale_uniform():
    vec = power_vec(HalfInt(6), 3)
    same = scale_uniform(vec, 1.0)
    assert np.array_equal(same.ops[0].mat, vec.ops[0].mat)
    scaled = scale_uniform(vec, 1.0 / 27.0)
    assert scaled.ops[0].eig_max == pytest.approx(1.0, abs=1e-12)
    assert scaled.ops[0].eig_min == pytest.approx(-1.0, abs=1e-12)


@pytest.mark.parametrize("s", [0.0, -1.0, math.inf, -math.inf, math.nan])
def test_scale_uniform_rejects_nonpositive_and_nonfinite(s):
    with pytest.raises(ValueError):
        scale_uniform(power_vec(HalfInt(2), 1), s)


def test_scale_uniform_large_j_anticommutator():
    vec = anticomm_vec(HalfInt(50), 1)
    scaled = scale_uniform(vec, 1.0 / 614.689)
    assert scaled.ops[0].eig_max == pytest.approx(1.0, abs=1e-5)
    assert scaled.ops[0].eig_min == pytest.approx(-1.0, abs=1e-5)


def test_oracle_spot_values():
    assert analytic_lambda_oracle("JSQ2D", HalfInt(2), math.pi / 4) == pytest.approx(
        math.sqrt(2), abs=1e-12
    )
    assert analytic_lambda_oracle("JSQ2D", HalfInt(3), 0.0) == pytest.approx(2.25, abs=1e-12)
    assert analytic_lambda_oracle("JSQ2D", HalfInt(4), math.pi / 2) == pytest.approx(4.0, abs=1e-12)


def test_oracle_rejects_unsupported():
    with pytest.raises(UnsupportedJ):
        analytic_lambda_oracle("JSQ2D", HalfInt(9), 0.0)
    with pytest.raises(ValueError):
        analytic_lambda_oracle("LADDER", HalfInt(4), 0.0)


@pytest.mark.parametrize("twice", [2, 3, 4, 5, 6, 7, 8])
def test_oracle_agrees_with_eigensolver(twice):
    j = HalfInt(twice)
    pair = jsq_pair(j)
    for phi in 2 * math.pi * np.arange(360) / 360:
        lam = (math.cos(phi) * pair.ops[0].mat + math.sin(phi) * pair.ops[1].mat)
        top = eig_hermitian(lam).values[-1]
        oracle = analytic_lambda_oracle("JSQ2D", j, float(phi))
        assert abs(top - oracle) <= 1e-9 * max(1.0, abs(top))


# --- complex conjugation K ------------------------------------------------------

# every built-in family as (j, gamma) -> ObservableVec
FAMILIES = {
    "j": lambda j, gamma: j_triple(j),
    "jpow": power_vec,
    "jsq2d": lambda j, gamma: jsq_pair(j),
    "ladder": ladder_combo,
    "anticomm": anticomm_vec,
}


def spectral_scale(vec) -> float:
    ends, _ = vec.spectral_ends
    return max(1.0, float(np.abs(ends).max()))


def conjugation_signs(vec) -> tuple[int, ...] | None:
    """K's signs read from the matrices: +1 for a real operator, -1 for an imaginary one, else None."""
    signs = []
    for mat in vec.mats:
        if not np.any(mat.imag):
            signs.append(1)
        elif not np.any(mat.real):
            signs.append(-1)
        else:
            return None
    return tuple(signs)


# (family, twice j, gamma, K's signs)
REVERSAL_SIGNS = [
    ("j", 3, 1, (1, -1, 1)),
    ("jpow", 5, 2, (1, 1, 1)),
    ("jpow", 5, 3, (1, -1, 1)),
    ("jsq2d", 4, 2, (1, 1)),
    ("ladder", 4, 2, (1, -1)),
    ("ladder", 1, 2, (1, 1)),  # gamma >= d: the null pair
    ("anticomm", 3, 1, (1, -1, -1)),
    ("anticomm", 1, 1, (1, 1, 1)),  # Pauli matrices anticommute: the null triple
    ("anticomm", 4, 2, (1, 1, 1)),
]


def family_ids(cases):
    """Short test ids 'family g<gamma> j=<j>' for (family, twice j, gamma, ...) cases."""
    return [f"{family} g{gamma} j={HalfInt(twice)}" for family, twice, gamma, *_ in cases]


@pytest.mark.parametrize("family, twice, gamma, signs", REVERSAL_SIGNS, ids=family_ids(REVERSAL_SIGNS))
def test_reversal_signs(family, twice, gamma, signs):
    """Jx and Jz are real and Jy imaginary in the Jz basis, and so are their products' parities."""
    vec = FAMILIES[family](HalfInt(twice), gamma)
    assert conjugation_signs(vec) == signs
    assert signs in vec.sign_group


@given(
    st.sampled_from(sorted(FAMILIES)),
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=1, max_value=3),
    st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=3, max_size=3),
)
@settings(max_examples=100, deadline=None)
def test_reversal_keeps_lambda_max(family, twice, gamma, coeffs):
    """Every built set is exactly real or imaginary per operator, so K keeps lambda_max to 1e-13."""
    vec = FAMILIES[family](HalfInt(twice), gamma)
    eta = np.array(coeffs[: vec.n])
    assume(np.linalg.norm(eta) > 1e-3)
    eta /= np.linalg.norm(eta)
    signs = conjugation_signs(vec)
    assert signs is not None and signs in vec.sign_group
    tops = block_top_eigenvalues(np.array([eta, np.array(signs) * eta]), vec.blocks)
    assert abs(tops[0] - tops[1]) <= 1e-13 * spectral_scale(vec)


def test_sign_group_is_trivial_without_the_symmetry():
    """A rotated frame and a set with a generic complex operator keep no generator, K included."""
    rotated = rotate_frame(j_triple(HalfInt(3)), 0.7, 2.1)
    rng = np.random.default_rng(7)
    raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    mixed = make_hermitian(raw + raw.conj().T, "H")
    vec = ObservableVec(ops=(angular_momentum(HalfInt(3)).jz, mixed))
    for trivial in (rotated, vec):
        assert conjugation_signs(trivial) is None
        assert trivial.sign_group == ((1,) * trivial.n,)


# --- the sign group: K and the pi rotations about z and y ----------------------

ALL_SIGNS3 = tuple(itertools.product((1, -1), repeat=3))  # identity first, as sign_group orders them
ANTICOMM_GROUP = ((1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1))

# (family, twice j, gamma, sign group)
SIGN_GROUPS = [
    ("anticomm", 3, 1, ANTICOMM_GROUP),
    ("anticomm", 40, 1, ANTICOMM_GROUP),
    ("anticomm", 6, 3, ANTICOMM_GROUP),
    ("anticomm", 6, 2, ((1, 1, 1),)),
    ("anticomm", 1, 1, ((1, 1, 1),)),  # the null triple
    ("j", 5, 1, ALL_SIGNS3),
    ("j", 0, 1, ((1, 1, 1),)),  # j = 0: every operator is zero
    ("jpow", 7, 3, ALL_SIGNS3),
    ("jpow", 40, 3, ALL_SIGNS3),
    ("jpow", 7, 2, ((1, 1, 1),)),
    ("jsq2d", 6, 2, ((1, 1),)),
    ("ladder", 5, 1, ((1, 1), (1, -1), (-1, 1), (-1, -1))),
    ("ladder", 5, 2, ((1, 1), (1, -1))),
]


@pytest.mark.parametrize("family, twice, gamma, group", SIGN_GROUPS, ids=family_ids(SIGN_GROUPS))
def test_sign_group_orders(family, twice, gamma, group):
    """anticomm gamma = 1 has order 4, the J triple and jpow gamma = 3 order 8, jsq2d the identity alone."""
    assert FAMILIES[family](HalfInt(twice), gamma).sign_group == group


def test_sign_group_keeps_the_rotations_that_matmul_powers_map_to_rounding():
    """e^{-i pi Jy} maps jpow gamma = 3 to +-itself only to rounding, and the group still keeps it."""
    vec = power_vec(HalfInt(7), 3)
    signs = (-1, 1, -1)
    flip = (-1.0) ** np.add.outer(np.arange(vec.dim), np.arange(vec.dim))
    residuals = [flip * m[::-1, ::-1] - s * m for s, m in zip(signs, vec.mats)]
    assert any(np.any(res) for res in residuals)
    assert max(float(np.max(np.abs(res))) for res in residuals) <= 1e-12 * spectral_scale(vec)
    assert signs in vec.sign_group


@pytest.mark.parametrize("family, twice, gamma", [("j", 5, 1), ("jpow", 7, 3), ("anticomm", 6, 1), ("ladder", 5, 1)])
def test_sign_group_is_trivial_after_a_generic_perturbation(family, twice, gamma):
    """A Hermitian perturbation of 1e-6 breaks every generator, so the group is the identity alone."""
    vec = FAMILIES[family](HalfInt(twice), gamma)
    rng = np.random.default_rng(11)
    raw = rng.normal(size=(vec.dim, vec.dim)) + 1j * rng.normal(size=(vec.dim, vec.dim))
    noise = 1e-6 * (raw + raw.conj().T)
    ops = tuple(make_hermitian(m + noise, f"A{i}") for i, m in enumerate(vec.mats))
    perturbed = ObservableVec(ops=ops, gamma=vec.gamma)
    assert len(vec.sign_group) > 1
    assert conjugation_signs(perturbed) is None
    assert perturbed.sign_group == ((1,) * vec.n,)


@given(
    st.sampled_from(sorted(FAMILIES)),
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=1, max_value=3),
    st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=3, max_size=3),
)
@settings(max_examples=100, deadline=None)
def test_sign_group_keeps_lambda_max(family, twice, gamma, coeffs):
    """Every element S of the group keeps lambda_max(S eta) = lambda_max(eta) within 1e-12 of the spectral scale."""
    vec = FAMILIES[family](HalfInt(twice), gamma)
    eta = np.array(coeffs[: vec.n])
    assume(np.linalg.norm(eta) > 1e-3)
    eta /= np.linalg.norm(eta)
    group = vec.sign_group
    assert group[0] == (1,) * vec.n and len(set(group)) == len(group)
    tops = block_top_eigenvalues(np.array(group) * eta, vec.blocks)
    assert np.max(np.abs(tops - tops[0])) <= 1e-12 * spectral_scale(vec)


# --- Kramers blocks: Theta = e^{-i pi Jy} K fixes every operator and squares to -1 ---

# (label, set, whether Theta maps every operator to itself, kramers_blocks)
KRAMERS_CASES = [
    ("anticomm g1 j=3/2", lambda: anticomm_vec(HalfInt(3), 1), True, (True,)),
    ("anticomm g1 j=21/2", lambda: anticomm_vec(HalfInt(21), 1), True, (True,)),
    ("anticomm g1 j=10", lambda: anticomm_vec(HalfInt(20), 1), True, (False,)),  # odd d: Theta^2 = +1
    # Theta fixes the pair, though neither K nor e^{-i pi Jy} keeps A1 + A2
    ("anticomm g1 pair j=21/2", lambda: anticomm_sum_pair(HalfInt(21)), True, (True,)),
    # Theta swaps the two parity blocks: levels pair across blocks
    ("jsq2d j=21/2", lambda: jsq_pair(HalfInt(21)), True, (False, False)),
    ("jpow g2 j=21/2", lambda: power_vec(HalfInt(21), 2), True, (False, False)),
    ("ladder g2 j=21/2", lambda: ladder_combo(HalfInt(21), 2), True, (False, False)),
    # Theta flips the sign of every operator
    ("J j=21/2", lambda: j_triple(HalfInt(21)), False, (False,)),
    ("jpow g3 j=21/2", lambda: power_vec(HalfInt(21), 3), False, (False,)),
]


@pytest.mark.parametrize("label, build, fixed, closed", KRAMERS_CASES, ids=[c[0] for c in KRAMERS_CASES])
def test_kramers_blocks_truth_table(label, build, fixed, closed):
    """A block is Kramers-closed when Theta's signs are all +1, d is even and the block is symmetric.

    K and e^{-i pi Jy} kept with equal signs imply that; the converse fails for the anticomm pair.
    """
    vec = build()
    conj, _, flip, theta = vec.generator_signs
    assert (theta is not None and -1 not in theta) == fixed
    if conj is not None and conj == flip:
        assert theta == (1,) * vec.n
    assert vec.kramers_blocks == closed


def test_kramers_blocks_need_every_operator_fixed_to_the_sign_tolerance():
    """One operator perturbed by 1e-6 breaks both generators and Theta, so no block is closed."""
    vec = anticomm_vec(HalfInt(21), 1)
    rng = np.random.default_rng(5)
    raw = rng.normal(size=(vec.dim, vec.dim)) + 1j * rng.normal(size=(vec.dim, vec.dim))
    ops = (make_hermitian(vec.mats[0] + 1e-6 * (raw + raw.conj().T), "A1"), *vec.ops[1:])
    perturbed = ObservableVec(ops=ops, gamma=vec.gamma)
    assert vec.kramers_blocks == (True,)
    assert perturbed.generator_signs[0] is None and perturbed.generator_signs[2] is None
    assert perturbed.generator_signs[3] is None
    assert perturbed.kramers_blocks == (False,)


@pytest.mark.parametrize("label, build, fixed, closed", KRAMERS_CASES, ids=[c[0] for c in KRAMERS_CASES])
def test_kramers_closed_blocks_have_paired_levels(label, build, fixed, closed):
    """Every level of a closed block is doubly degenerate; an open block of these sets has simple levels."""
    vec = build()
    rng = np.random.default_rng(9)
    eta = rng.normal(size=vec.n)
    eta /= np.linalg.norm(eta)
    for block, kramers in zip(vec.blocks, vec.kramers_blocks):
        mat = sum(c * m[np.ix_(block.index, block.index)] for c, m in zip(eta, vec.mats))
        splits = np.diff(eig_hermitian(mat).values) <= 1e-12 * spectral_scale(vec)
        if kramers:
            assert splits[::2].all()
        else:
            assert not splits.any()
