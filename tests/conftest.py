import dataclasses
import os
import re

# one BLAS thread, as the benchmark runs; numpy is not imported yet when this
# file loads, so the setting takes effect, and a caller's own setting wins
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

CI_LONG = os.environ.get("SPECRANGE_CI_LONG", "") == "1"

import numpy as np  # noqa: E402
import scipy.linalg  # noqa: E402

from specrange.linalg import make_hermitian  # noqa: E402
from specrange.spinops import ObservableVec, anticomm_vec  # noqa: E402


def anticomm_sum_pair(j):
    """(A1 + A2, A3) of anticomm gamma = 1: Theta = e^{-i pi Jy} K fixes both, yet
    neither K nor e^{-i pi Jy} maps A1 + A2 to +-itself."""
    vec = anticomm_vec(j, 1)
    ops = (make_hermitian(vec.mats[0] + vec.mats[1], "A1+A2"), vec.ops[2])
    return ObservableVec(ops=ops)


def conjugated(vec, seed):
    """vec with every operator conjugated by one random unitary: the QR of a complex Gaussian, phases fixed."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((vec.dim, vec.dim)) + 1j * rng.standard_normal((vec.dim, vec.dim))
    q, r = np.linalg.qr(z)
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    return dataclasses.replace(vec, ops=tuple(make_hermitian(q @ op.mat @ q.conj().T, op.label) for op in vec.ops))


def direct_sum(parts):
    """The vector whose operators are block_diag of the parts' operators."""
    ops = tuple(
        make_hermitian(scipy.linalg.block_diag(*(part.mats[i] for part in parts)), parts[0].ops[i].label)
        for i in range(parts[0].n)
    )
    return ObservableVec(ops=ops, gamma=parts[0].gamma)

_CRITERION_RE = re.compile(r"test_criterion_(\d+)")
_criterion_outcomes: dict[int, str] = {}


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    match = _CRITERION_RE.search(report.nodeid)
    if match:
        _criterion_outcomes[int(match.group(1))] = report.outcome


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _criterion_outcomes:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for num in sorted(_criterion_outcomes):
        outcome = _criterion_outcomes[num]
        word = "PASS" if outcome == "passed" else outcome.upper()
        terminalreporter.write_line(f"criterion {num:2d}: {word}")
