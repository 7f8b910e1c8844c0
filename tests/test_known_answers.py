"""Operator sets outside the spin families, built with ObservableVec(ops), against known regions.

- A 2x2 triple A_i = c_i I + m_i.sigma maps the Bloch ball s onto c + M s, with
  M's rows m_i. So lambda_max(eta) = eta.c + |M^T eta|, and the face at eta is
  the one point c + M M^T eta / |M^T eta|.
  Membership is then min_eta (eta.c + |M^T eta| - eta.r) over the grid.
- Operators U diag(lambda_i) U^dagger commute, and their region is the hull
  of the d joint eigenvalue points (lambda_1[k], ..., lambda_n[k]). So every
  face vertex is one of those points, and each measure's bound is its min
  (concave) or max (convex) over them.
- The face of a direct sum A + B at eta is the face of the summand with the
  larger lambda_max, or the hull of both on a tie. A and U A U^dagger have
  the same region, so A + U A U^dagger has A's region, support values and
  bounds.

Each coordinate is compared within a multiple of its operator's spectral
scale max(1, |eig_min|, |eig_max|), and lambda_max within one of the set's
largest.
"""

import numpy as np
import pytest

from conftest import conjugated, direct_sum
from specrange.bounds import combined, optimize_bounds
from specrange.linalg import make_hermitian
from specrange.numrange import boundary2d, boundary3d, hyperrect, membership, sweep_directions
from specrange.spinops import HalfInt, ObservableVec, anticomm_vec, jsq_pair, power_vec

PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]]),
    np.array([[1, 0], [0, -1]], dtype=complex),
)
KINDS = ["h", "u0.5", "u2", "umax"]


def sweep(vec, grid):
    return boundary2d(vec, grid) if isinstance(grid, int) else boundary3d(vec, *grid)


def scales(vec):
    """Each operator's spectral scale, and the largest of them."""
    per_op = np.maximum(1.0, np.abs(vec.spectral_ends[0]).max(axis=1))
    return per_op, float(per_op.max())


def qubit_triple(seed):
    """(c, M, the set c_i I + m_i.sigma) from one seeded Gaussian draw."""
    rng = np.random.default_rng(seed)
    c, m = rng.standard_normal(3), rng.standard_normal((3, 3))
    ops = tuple(
        make_hermitian(c[i] * np.eye(2) + sum(m[i, k] * PAULI[k] for k in range(3)), f"A{i}") for i in range(3)
    )
    return c, m, ObservableVec(ops)


@pytest.mark.parametrize("seed", range(20))
def test_qubit_triple_is_an_ellipsoid(seed):
    c, m, vec = qubit_triple(seed)
    assert vec.j == HalfInt(1)
    per_op, scale = scales(vec)
    for f in boundary3d(vec, 12, 24).faces:
        eta = f.direction.eta
        tilt = m.T @ eta
        assert f.is_point, f.direction
        assert abs(f.lambda_max - (eta @ c + np.linalg.norm(tilt))) <= 1e-13 * scale
        vertex = c + m @ tilt / np.linalg.norm(tilt)
        assert np.all(np.abs(f.vertices[0] - vertex) <= 1e-13 * per_op), f.direction


@pytest.mark.parametrize("seed", range(20))
def test_qubit_triple_membership_is_the_ellipsoid_margin(seed):
    """Points c + M s with |s| up to 1.5: the grid margin of the closed-form lambda_max, never negative inside."""
    c, m, vec = qubit_triple(seed)
    _, scale = scales(vec)
    etas = np.array([d.eta for d in sweep_directions(3, (12, 24))])
    tops = etas @ c + np.linalg.norm(etas @ m, axis=1)
    rng = np.random.default_rng(1000 + seed)
    for s in rng.standard_normal((10, 3)):
        s *= rng.uniform(0.0, 1.5) / np.linalg.norm(s)
        r = c + m @ s
        margin = membership(vec, r, (12, 24))
        assert abs(margin - float(np.min(tops - etas @ r))) <= 1e-13 * scale, s
        if np.linalg.norm(np.linalg.solve(m, r - c)) <= 1.0:
            assert margin >= 0.0, s


def commuting_set(n, d, seed, turned):
    """(the d joint eigenvalue points as a (d, n) array, the set U diag(lambda_i) U^dagger).

    lambda is one seeded Gaussian draw; U is the identity, or when turned a
    seeded QR unitary (conftest.conjugated).
    """
    lam = np.random.default_rng(seed).standard_normal((n, d))
    vec = ObservableVec(tuple(make_hermitian(np.diag(lam[i]).astype(complex), f"A{i}") for i in range(n)))
    return lam.T, conjugated(vec, seed) if turned else vec


@pytest.mark.parametrize("turned", [False, True], ids=["diagonal", "turned"])
@pytest.mark.parametrize("d", [3, 5, 7])
@pytest.mark.parametrize("n, grid", [(2, 360), (3, (12, 24))], ids=["pair", "triple"])
@pytest.mark.parametrize("seed", [0, 1])
def test_commuting_set_region_is_the_joint_eigenvalue_polytope(seed, n, grid, d, turned):
    points, vec = commuting_set(n, d, seed, turned)
    per_op, _ = scales(vec)
    region = sweep(vec, grid)
    for f in region.faces:
        gaps = np.max(np.abs(f.vertices[:, None] - points[None]) / per_op, axis=2)
        assert np.max(np.min(gaps, axis=1)) <= 1e-12, f.direction
    # an extreme eigenvalue is the certified hyperrect end, as the face layer gives it
    rect = hyperrect(vec)
    ends = points.copy()
    for i in range(n):
        ends[points[:, i] == points[:, i].max(), i] = rect.hi[i]
        ends[points[:, i] == points[:, i].min(), i] = rect.lo[i]
    for res in optimize_bounds(vec, region, KINDS).results:
        values = [combined(res.kind, p, rect) for p in ends]
        want = min(values) if res.kind.sign < 0 else max(values)
        assert abs(res.value - want) <= 1e-12, res.kind


@pytest.mark.parametrize(
    "vec, grid",
    [
        pytest.param(jsq_pair(HalfInt(5)), 180, id="jsq2d-5/2"),
        pytest.param(anticomm_vec(HalfInt(3), 1), (12, 24), id="anticomm1-3/2"),
        pytest.param(power_vec(HalfInt(4), 2), (12, 24), id="jpow2-2"),
    ],
)
def test_direct_sum_with_a_turned_copy_keeps_the_bounds(vec, grid):
    doubled = direct_sum([vec, conjugated(vec, 7)])
    assert doubled.dim == 2 * vec.dim and doubled.j == HalfInt(2 * vec.dim - 1)
    _, scale = scales(vec)
    region, region_2 = sweep(vec, grid), sweep(doubled, grid)
    for f, f_2 in zip(region.faces, region_2.faces, strict=True):
        assert abs(f_2.lambda_max - f.lambda_max) <= 1e-13 * scale, f.direction
    values = [r.value for r in optimize_bounds(vec, region, KINDS).results]
    values_2 = [r.value for r in optimize_bounds(doubled, region_2, KINDS).results]
    assert np.allclose(values_2, values, rtol=0.0, atol=1e-12)
