"""Phase timing scaled by an interleaved calibration kernel.

On a 2-vCPU virtual machine shared with other workloads (CPython 3.11,
numpy 2.4, OpenBLAS 0.3.31), co-located load slowed whole runs by up to 1.6x
within minutes while CPU time still equalled wall time.
A fixed kernel, independent of grouprec, runs after every timed phase. The
phase's wall time is multiplied by (REFERENCE_S / k) ** SENSITIVITY, where k
is the mean of the kernel times just before and just after it. The result
reads in seconds at the reference speed, where the kernel takes REFERENCE_S.
Raw wall times are kept beside the scaled ones in every result file.

SENSITIVITY is measured, not tuned per workload. Over 252 interleaved
samples under that machine's background load, the log-log slope of phase time
against kernel time was 0.66 for full training steps, 0.75 for LightGCN
steps, 0.89 for a validation pass and 1.06 for loading a dataset. The kernel
is slowed more by co-located load than the average phase is.
"""

import contextlib
import time

import numpy as np
import scipy.sparse as sp

REFERENCE_S = 0.03  # about the kernel's best-of-3 time on that machine when idle
SENSITIVITY = 0.75

_rng = np.random.default_rng(0)
_E = _rng.random((5000, 64))
_IDX = _rng.integers(5000, size=5000)
_ADJ = sp.random(5275, 1513, density=0.005, format="csr", random_state=0)
_V = _rng.random((1513, 64))
_S = _rng.random((60, 1513))
_BANNED = [_rng.integers(1513, size=8).tolist() for _ in range(60)]
_LINES = [f"{a}\t{b}" for a, b in _rng.integers(5000, size=(4000, 2)).tolist()]


def _kernel():
    """The kinds of work grouprec does: interpreter and dict, text parsing,
    fresh page-faulted memory, BLAS, sparse products, scatter, elementwise,
    per-row top-k."""
    acc = {}
    for i in range(15000):
        acc[i % 97] = acc.get(i % 97, 0) + i
    seen = set()
    for line in _LINES:
        a, b = line.split("\t")
        seen.add((int(a), int(b)))
    for _ in range(4):
        np.ones(1 << 20).sum()  # 8 MB: above the mmap threshold, so every page faults
    _E[:1500] @ _E[:800].T
    for _ in range(4):
        _ADJ @ _V
        (1.0 / (1.0 + np.exp(-_E)) * _E).sum(0)
    np.add.at(np.zeros_like(_E), _IDX, _E[_IDX])
    for row, banned in zip(_S, _BANNED):
        s = row.copy()
        s[banned] = -np.inf
        top = np.argpartition(-s, 9)[:10]
        top[np.argsort(-s[top], kind="stable")]


def calibrate():
    """Best of three kernel runs, in seconds."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - t0)
    return best


class Phase:
    wall = None  # seconds on the wall clock
    scaled = None  # seconds at the reference speed


class Clock:
    """Times phases; each phase's closing kernel run opens the next one."""

    def __init__(self):
        self.calibrations = [calibrate()]

    @contextlib.contextmanager
    def phase(self):
        p = Phase()
        t0 = time.perf_counter()
        yield p
        p.wall = time.perf_counter() - t0
        after = calibrate()
        k = (self.calibrations[-1] + after) / 2
        p.scaled = p.wall * (REFERENCE_S / k) ** SENSITIVITY
        self.calibrations.append(after)
