"""Eigensolver-independent reference oracles for the test suite.

``analytic_lambda_oracle`` gives lambda_max(phi) of cos(phi) Jx^2 + sin(phi) Jy^2
in closed form for small j; ``char_coeffs`` gives characteristic-polynomial
coefficients from traces of matrix powers. Neither uses an eigendecomposition,
so the tests can hold the eigensolver against them.
"""

import math

import numpy as np

from specrange.errors import UnsupportedJ
from specrange.linalg import HermObservable
from specrange.spinops import KIND_JSQ2D, HalfInt

# --- closed-form top eigenvalues of cos(phi) Jx^2 + sin(phi) Jy^2 -----------

_SUPPORTED_ORACLE_TWICE = (2, 3, 4, 5, 6, 7, 8)


def _fg(phi: float) -> tuple[float, float]:
    return math.cos(phi) + math.sin(phi), math.cos(phi) - math.sin(phi)


def _cubic_branch(phi: float, lead: float, p_coef: float, q_coef: float) -> float:
    f, g = _fg(phi)
    p = p_coef * (f * f + 3 * g * g)
    q = q_coef * (f**3 - 9 * f * g * g)
    arg = min(1.0, max(-1.0, -q / 2.0 * math.sqrt(27.0 / p**3)))
    return lead * f + 2.0 * math.sqrt(p / 3.0) * math.cos(math.acos(arg) / 3.0)


def _oracle_j1(phi: float) -> float:
    c, s = math.cos(phi), math.sin(phi)
    return max(c, s, c + s)


def _oracle_j32(phi: float) -> float:
    f, g = _fg(phi)
    return 0.25 * (5 * f + 2 * math.sqrt(f * f + 3 * g * g))


def _oracle_j2(phi: float) -> float:
    f, g = _fg(phi)
    return 2 * f + math.sqrt(f * f + 3 * g * g)


def _oracle_j52(phi: float) -> float:
    return 0.25 * _cubic_branch(phi, 35.0 / 3.0, 112.0 / 3.0, 1280.0 / 27.0)


def _oracle_j3(phi: float) -> float:
    f, g = _fg(phi)
    if 0.0 <= phi < math.pi / 2:
        return 5 * f + math.sqrt(f * f + 15 * g * g)
    if math.pi / 2 <= phi <= 5 * math.pi / 4:
        return 0.5 * (7 * f - 3 * g + math.sqrt(8.0) * math.sqrt(2 * f * f - 3 * f * g + 3 * g * g))
    return 0.5 * (7 * f + 3 * g + math.sqrt(8.0) * math.sqrt(2 * f * f + 3 * f * g + 3 * g * g))


def _oracle_j72(phi: float) -> float:
    f, g = _fg(phi)
    p = 168.0 * (f * f + 3 * g * g)
    q = 512.0 * (f**3 - 9 * f * g * g)
    u0 = 48384.0 * (f * f + 3 * g * g) ** 2
    u1 = 5971968.0 * (3 * f**6 - 5 * f**4 * g**2 + 145 * f**2 * g**4 + 49 * g**6)
    arg = min(1.0, max(-1.0, u1 / (2.0 * math.sqrt(u0**3))))
    s = math.sqrt((p + math.sqrt(u0) * math.cos(math.acos(arg) / 3.0)) / 6.0)
    # radicand sign fixed so the branch reproduces the extreme eigenvalue
    # (checked against j^2 at phi=0 and (j(j+1)-1/4)/sqrt(2) at phi=pi/4)
    inner = -4.0 * s * s + 2.0 * p - q / s
    return 0.25 * (21 * f + s + 0.5 * math.sqrt(max(0.0, inner)))


def _oracle_j4(phi: float) -> float:
    return 0.5 * _cubic_branch(phi, 40.0 / 3.0, 208.0 / 3.0, 4480.0 / 27.0)


_ORACLES = {
    2: _oracle_j1,
    3: _oracle_j32,
    4: _oracle_j2,
    5: _oracle_j52,
    6: _oracle_j3,
    7: _oracle_j72,
    8: _oracle_j4,
}


def analytic_lambda_oracle(family: str, j: HalfInt, phi: float) -> float:
    """Closed-form lambda_max(phi) for the planar Jx^2/Jy^2 sweep.

    Supported for j in {1, 3/2, 2, 5/2, 3, 7/2, 4}.
    """
    if family != KIND_JSQ2D:
        raise ValueError(f"oracle only covers family {KIND_JSQ2D!r}, got {family!r}")
    if j.twice not in _SUPPORTED_ORACLE_TWICE:
        raise UnsupportedJ(f"no closed form for j={j}")
    phi = math.fmod(phi, 2 * math.pi)
    if phi < 0:
        phi += 2 * math.pi
    return _ORACLES[j.twice](phi)


def char_coeffs(obs: HermObservable) -> np.ndarray:
    """Characteristic-polynomial coefficients S_0..S_d via the Newton recursion.

    S_l are the elementary symmetric functions of the eigenvalues, computed
    from traces of matrix powers: S_0 = 1, S_l = (1/l) sum_{i=1..l}
    (-1)^(i-1) tr(A^i) S_{l-i}.
    """
    d = obs.dim
    power_traces = np.empty(d + 1)
    acc = np.eye(d, dtype=np.complex128)
    for i in range(1, d + 1):
        acc = acc @ obs.mat
        power_traces[i] = float(np.real(np.trace(acc)))
    coeffs = np.empty(d + 1)
    coeffs[0] = 1.0
    for l in range(1, d + 1):
        s = 0.0
        for i in range(1, l + 1):
            s += (-1.0) ** (i - 1) * power_traces[i] * coeffs[l - i]
        coeffs[l] = s / l
    return coeffs
