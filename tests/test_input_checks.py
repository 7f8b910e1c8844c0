"""Every input check of the library raises its own error type, one case per check.

Each case is a call that fails one check and nothing before it; the match
pins the message of that check, so a case that trips an earlier one fails.
"""

import math

import numpy as np
import pytest

from specrange.bounds import MeasureKind, combined, optimize_bounds, triviality_check
from specrange.definetti import AM, FAMILY_JPOW, convergence_sweep
from specrange.errors import DimensionMismatch, EmptyBoundary, UnsupportedFamily
from specrange.linalg import as_cmatrix, block_top_eigenvalues, expectation, make_hermitian, split_blocks
from specrange.numrange import Boundary, boundary2d, boundary3d, direction3, face, faces, hyperrect, membership, support
from specrange.spinops import HalfInt, ObservableVec, angular_momentum, j_triple, jsq_pair

ONE = HalfInt(2)


def _observable_vec(*ops):
    return ObservableVec(ops=ops, j=ONE, kind="J")


CASES = [
    ("measure-tag", lambda: MeasureKind("x"), ValueError, "unknown measure tag"),
    ("measure-kappa", lambda: MeasureKind("h", 1.0), ValueError, "takes no kappa"),
    ("combined-point", lambda: combined(MeasureKind.h(), [0.0], hyperrect(j_triple(ONE))), ValueError, "point shape"),
    (
        "optimize-empty",
        lambda: optimize_bounds(jsq_pair(ONE), Boundary(faces=[], grid=16), [MeasureKind.h()]),
        EmptyBoundary,
        "no faces",
    ),
    (
        "optimize-boundary-count",
        lambda: optimize_bounds(j_triple(ONE), boundary2d(jsq_pair(ONE), 16), [MeasureKind.h()]),
        DimensionMismatch,
        "face of 2 operators on",
    ),
    (
        "optimize-boundary-dim",
        lambda: optimize_bounds(jsq_pair(HalfInt(5)), boundary2d(jsq_pair(HalfInt(3)), 16), [MeasureKind.h()]),
        DimensionMismatch,
        "face of 2 operators on C\\^4, not 2 on C\\^6",
    ),
    (
        "triviality-boundary-count",
        lambda: triviality_check(jsq_pair(ONE), boundary3d(j_triple(ONE), 4, 8)),
        DimensionMismatch,
        "face of 3 operators on",
    ),
    (
        "triviality-boundary-dim",
        lambda: triviality_check(jsq_pair(HalfInt(5)), boundary2d(jsq_pair(HalfInt(3)), 16)),
        DimensionMismatch,
        "face of 2 operators on C\\^4, not 2 on C\\^6",
    ),
    ("sweep-family", lambda: convergence_sweep("nope", 1, [1], AM), UnsupportedFamily, "unknown family"),
    ("sweep-quantity", lambda: convergence_sweep(FAMILY_JPOW, 1, [1], "nope"), ValueError, "unknown quantity"),
    ("sweep-quantity-no-j", lambda: convergence_sweep(FAMILY_JPOW, 1, [], "nope"), ValueError, "unknown quantity"),
    ("cmatrix-shape", lambda: as_cmatrix(np.zeros((2, 3))), DimensionMismatch, "square matrix"),
    ("hermitian-stack", lambda: make_hermitian(np.zeros((2, 2, 2))), DimensionMismatch, "square matrix"),
    ("blocks-dims", lambda: split_blocks([np.eye(2), np.eye(3)]), DimensionMismatch, "differ in dimension"),
    (
        "top-coeffs",
        lambda: block_top_eigenvalues(np.zeros((1, 2)), j_triple(ONE).blocks),
        DimensionMismatch,
        "coefficients have shape",
    ),
    (
        "expectation-state",
        lambda: expectation(angular_momentum(ONE).jz, np.ones(2) / math.sqrt(2.0)),
        DimensionMismatch,
        "state length",
    ),
    ("boundary2d-triple", lambda: boundary2d(j_triple(ONE)), DimensionMismatch, "2-operator"),
    ("boundary3d-pair", lambda: boundary3d(jsq_pair(ONE), 4, 8), DimensionMismatch, "3-operator"),
    ("faces-deg-tol", lambda: faces(j_triple(ONE), [direction3(0.5, 0.5)], -1.0), ValueError, "deg_tol"),
    ("faces-deg-tol-no-direction", lambda: faces(j_triple(ONE), [], math.nan), ValueError, "deg_tol"),
    ("face-deg-tol", lambda: face(j_triple(ONE), direction3(0.5, 0.5), math.nan), ValueError, "deg_tol"),
    ("boundary2d-deg-tol", lambda: boundary2d(jsq_pair(ONE), 16, -1.0), ValueError, "deg_tol"),
    ("boundary3d-deg-tol", lambda: boundary3d(j_triple(ONE), 4, 8, math.nan), ValueError, "deg_tol"),
    ("support-deg-tol", lambda: support(j_triple(ONE), direction3(0.5, 0.5), -1.0), ValueError, "deg_tol"),
    ("support-deg-tol-inf", lambda: support(j_triple(ONE), direction3(0.5, 0.5), math.inf), ValueError, "deg_tol"),
    ("membership-point", lambda: membership(j_triple(ONE), [0.0, 0.0], (4, 8)), DimensionMismatch, "point has shape"),
    ("vec-count", lambda: _observable_vec(angular_momentum(ONE).jz), DimensionMismatch, "2 or 3 operators"),
    (
        "vec-dims",
        lambda: _observable_vec(angular_momentum(ONE).jz, angular_momentum(HalfInt(1)).jz),
        DimensionMismatch,
        "differ in dimension",
    ),
]


@pytest.mark.parametrize("call, error, message", [case[1:] for case in CASES], ids=[case[0] for case in CASES])
def test_input_check_raises_its_error(call, error, message):
    with pytest.raises(error, match=message):
        call()

