"""Reference speed: a fixed kernel timed next to the workload, to cancel host speed swings.

On a shared host the same code runs 1.5 to 2 times slower in some minutes than
in others, because other tenants share the core, its caches and its memory
bus. The swing is common to all code running at that moment, so the benchmark
times this kernel alongside the workload and reports times in reference
seconds: a measured time multiplied by ``CAL_REF_S / c``, where ``c`` is the
time of the kernel measured just before and just after it.

The kernel does not import specrange, so a change to specrange moves reference
seconds one for one. It does what the library's hot paths do, written
independently: for fixed directions it combines three Hermitian matrices,
takes the top eigenvector and reads its expectation values, at a small, a
middle and a large dimension (Python and numpy dispatch at the first, LAPACK
at the last).
"""

import statistics
import time

import numpy as np

# the kernel's time, in seconds, on one idle core of a 2 GHz Intel Xeon
CAL_REF_S = 0.025
DIMS = (7, 31, 81)
DIRECTIONS = 12
KERNEL_CALLS = 3
# at most one sample per this many seconds, so sampling costs about a tenth of a run
SAMPLE_EVERY_S = 0.6


def _hermitian(rng, d: int) -> np.ndarray:
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (a + a.conj().T) / 2


_rng = np.random.default_rng(20181018)
_SETS = [[_hermitian(_rng, d) for _ in range(3)] for d in DIMS]
_DIRS = [v / np.linalg.norm(v) for v in _rng.normal(size=(DIRECTIONS, 3))]


def kernel() -> float:
    """Seconds taken by one pass of the fixed support sweep."""
    t0 = time.perf_counter()
    for mats in _SETS:
        for eta in _DIRS:
            combo = np.zeros_like(mats[0])
            for c, m in zip(eta, mats):
                combo += float(c) * m
            _, vectors = np.linalg.eigh(combo)
            top = vectors[:, -1]
            [float(np.real(top.conj() @ (m @ top))) for m in mats]
    return time.perf_counter() - t0


class Calibration:
    """Kernel samples taken through a run, at most one per ``SAMPLE_EVERY_S`` seconds.

    A sample is the median of ``KERNEL_CALLS`` kernel calls. An interval that
    starts after sample ``i - 1`` and ends before sample ``i`` is scaled by the
    mean of those two, so a slow spell is cancelled where it happens.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._last = -float("inf")

    def sample(self, force: bool = False) -> None:
        if force or time.perf_counter() - self._last >= SAMPLE_EVERY_S:
            self.samples.append(statistics.median(kernel() for _ in range(KERNEL_CALLS)))
            self._last = time.perf_counter()

    def mark(self) -> int:
        """Index of the next sample; take it when an interval to be scaled starts."""
        return len(self.samples)

    def to_ref(self, seconds: float, mark: int) -> float:
        """``seconds`` measured since ``mark``, in reference seconds."""
        return seconds * CAL_REF_S / statistics.fmean(self.samples[mark - 1 : mark + 1])
