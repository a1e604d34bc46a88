"""Fixed reference kernel used to normalise timings for machine speed.

The benchmark runs on shared machines whose speed drifts by up to 2x
within and between runs, switching between states every few seconds.
Every workload runs this kernel just before and just after each op, and
at the ticks inside long ops.  The kernel touches no hodgeheights code;
it repeats, in its own code, the kind of work the library spends its
time on: subspace calculus on small complex matrices (SVD-based bases,
sums, intersections and residuals), Chebyshev recurrences on short
arrays, and an exact rational elimination with Fractions.  A timing is
normalised by

    normalised = raw * (NOMINAL_MS / local_kernel_ms) ** ELASTICITY

(raised to the power ELASTICITY, see below), so it reads as the time
the work would take on a machine where this kernel takes NOMINAL_MS.
The kernel and both constants are part of the benchmark definition:
changing any of them changes every normalised metric.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

import numpy as np

# Bound at import, before the tracer can replace numpy.linalg.svd, so the
# kernel's own calls never show up in the layer counts.
_svd = np.linalg.svd

#: Kernel time (ms) of the nominal machine: about this kernel's median on
#: a 2-vCPU x86-64 container with single-threaded OpenBLAS, so that
#: normalised values there read close to raw ones.
NOMINAL_MS = 1.8

#: How much the workloads slow down, in log terms, per unit that the kernel
#: slows down.  On a contended host the kernel loses more speed than the
#: library's ops do; 0.85 kept the run-to-run spread of every end-to-end
#: timing of all three workloads lowest across slow and fast host states.
ELASTICITY = 0.85

_rng = np.random.default_rng(7)


def _cmat(rows: int, cols: int) -> np.ndarray:
    return _rng.standard_normal((rows, cols)) + 1j * _rng.standard_normal((rows, cols))


# (ambient dim, dim A, dim B): the sizes of the polylog structures N=4..10
_PAIRS = tuple((_cmat(n, a), _cmat(n, b)) for n, a, b in ((5, 2, 3), (7, 3, 4), (11, 5, 7)))
_INT_ROWS = tuple(tuple(int(x) for x in _rng.integers(-4, 5, size=7)) for _ in range(6))
_CHEB_NODES = -np.cos(np.pi * np.arange(33) / 32)
_CHEB_COEFFS = _cmat(40, 1)[:, 0] / (1.0 + np.arange(40)) ** 2
del _rng


def _span(m: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    u, s, _ = _svd(m, full_matrices=False)
    return u[:, : int(np.sum(s > tol * s[0]))]


def _null(m: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    _, s, vh = _svd(m, full_matrices=True)
    return vh[int(np.sum(s > tol * s[0])):, :].conj().T


def _rational_rank(rows) -> int:
    mat = [list(r) for r in rows]
    rank = 0
    for c in range(len(mat[0])):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][c] != 0), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        pv = mat[rank][c]
        mat[rank] = [x / pv for x in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[rank])]
        rank += 1
        if rank == len(mat):
            break
    return rank


def _clenshaw(coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    b1 = b2 = np.zeros(x.shape, dtype=complex)
    x2 = 2 * x
    for c in coeffs[:0:-1]:
        b1, b2 = c + x2 * b1 - b2, b1
    return coeffs[0] + x * b1 - b2


def _kernel() -> float:
    # About a quarter of the time in small LAPACK calls, the rest in
    # interpreter-bound work (numpy calls on short arrays, Fractions): on
    # shared machines the two slow down by different amounts, and this mix
    # tracked all three workloads best.
    acc = 0.0
    for a, b in _PAIRS:
        ba, bb = _span(a), _span(b)
        total = _span(np.hstack([ba, bb]))
        null = _null(np.hstack([ba, -bb]))
        meet = ba @ null[: ba.shape[1], :]
        resid = bb - total @ (total.conj().T @ bb)
        acc += float(np.linalg.norm(resid)) + meet.shape[1] + total.shape[1]
    for _ in range(6):
        acc += float(np.abs(_clenshaw(_CHEB_COEFFS, _CHEB_NODES)).sum())
    acc += _rational_rank([[Fraction(x) for x in row] for row in _INT_ROWS])
    return acc


def kernel_ms(reps: int = 1) -> float:
    """Run the kernel `reps` times and return its mean wall time in ms."""
    start = time.perf_counter()
    for _ in range(reps):
        _kernel()
    return (time.perf_counter() - start) * 1e3 / reps


def reps_for(op_seconds: float, share: float = 0.03) -> int:
    """Kernel runs per sample so that sampling costs about `share` of an op
    of `op_seconds`: long ops get a sample that spans more time."""
    return max(1, min(20, round(share * op_seconds * 1e3 / NOMINAL_MS)))


def warm(times: int = 3) -> None:
    for _ in range(times):
        _kernel()


def factor(samples: list[float], before: int, half_window: int = 2) -> float:
    """Speed factor for work done between kernel samples `before` and
    `before + 1`, from the median of the `2 * half_window` samples around
    it, so one disturbed kernel run does not skew it."""
    lo = max(0, before + 1 - half_window)
    return speed_factor(statistics.median(samples[lo: before + 1 + half_window]))


def speed_factor(kernel: float) -> float:
    """(NOMINAL_MS / kernel) ** ELASTICITY for a kernel time in ms."""
    return (NOMINAL_MS / kernel) ** ELASTICITY
