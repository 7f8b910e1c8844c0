import math

import numpy as np
import pytest

from conftest import CI_LONG
from oracles import analytic_lambda_oracle
from specrange.errors import GammaOutOfRange, UnsupportedJ, WrongKind
from specrange.linalg import eig_hermitian, expectation
from specrange.spinops import (
    HalfInt,
    angular_momentum,
    anticomm_vec,
    coherent_ket,
    j_triple,
    jsq_pair,
    ladder_combo,
    power_vec,
    rotate_frame,
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
    with pytest.raises(WrongKind):
        rotate_frame(jsq_pair(HalfInt(3)), 0.1, 0.2)


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
