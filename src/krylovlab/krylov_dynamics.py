"""Krylov-space wavefunction propagation and spread complexity.

The Krylov tridiagonal matrix generates a hopping problem on the ordered
basis |K_0>, |K_1>, ...; the spread complexity K_S(t) = sum_n n |psi_n(t)|^2
measures how far the evolving state has moved down the chain.  Evolution is
done exactly through the eigendecomposition of the tridiagonal matrix, so
late-time plateaus carry no integrator error.  Dense kernels go through
`scipy.linalg`, so one OpenBLAS thread pool serves them all (numpy bundles a
second one, whose pool would fight the first for the cores).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dgemm, dgemv

from .spectral import eig_dense, eig_tridiagonal
from .tridiag import TridiagonalForm, householder_tridiagonalize, lanczos_dimension

DEFAULT_PEAK_THRESHOLD = 0.02
PLATEAU_FRACTION = 0.2        # final fraction of the grid averaged for the plateau
PLATEAU_DRIFT_TOL = 0.01      # max relative drift between halves of the final window
SMOOTH_WINDOW = 21            # moving-average width for single-realization peak tests
# single traces overshoot their own plateau by up to ~2.5% while settling, even
# when the ensemble mean is monotone; 5% sits in the gap below genuine peaks
REALIZATION_PEAK_THRESHOLD = 0.05


@dataclass(frozen=True)
class ComplexityTrace:
    times: np.ndarray         # ascending
    occupations: np.ndarray   # (ntimes, dim) of |psi_n(t)|^2
    ks: np.ndarray            # K_S(t)
    peak_value: float
    peak_time: float
    plateau: float
    has_peak: bool
    unitarity_residual: float  # max |sum_n |psi_n(t)|^2 - 1|


def build_tfd_krylov(H, beta: float = 0.0) -> TridiagonalForm:
    """Krylov chain seeded by the thermofield-double state at inverse temperature beta.

    The TFD amplitudes are w_m = e^(-beta E_m / 2)/sqrt(Z) over the eigenstates
    of H (uniform 1/sqrt(N) at beta = 0).  The chain of H from that state is
    the chain of diag(E) from w, so it needs the eigenvalues of H alone (no
    eigenvectors, no state vector): it is the Householder reduction of
    P diag(E) P, where the reflection P = I - 2 u u^T / u^T u with u = e1 + w
    maps e1 to -w, whose chain is that of w (u = e1 - w would cancel as w
    approaches the ground state e1).  The chain stops where Lanczos would, at
    the first off-diagonal below BREAKDOWN_RTOL * ||E||_2 = BREAKDOWN_RTOL * ||H||_F.
    Returns the tridiagonal form without a basis.
    """
    if beta < 0:
        raise ValueError("beta must be non-negative")
    lam = eig_dense(H)
    # shift by the ground energy so large beta cannot underflow to the zero vector
    w = np.exp(-0.5 * beta * (lam - lam[0]))
    w /= np.sqrt(w @ w)
    u = w.copy()
    u[0] += 1.0                     # w > 0, so u^T u >= 1 and nothing cancels
    Du = lam * u
    uu = u @ u
    M = np.diag(lam) - (2.0 / uu) * (np.outer(u, Du) + np.outer(Du, u)) \
        + (4.0 * (u @ Du) / uu**2) * np.outer(u, u)
    t = householder_tridiagonalize(M)
    m = lanczos_dimension(t.b, np.sqrt(lam @ lam))
    return TridiagonalForm(t.a[:m], t.b[: m - 1])


def propagate(t: TridiagonalForm, psi0: np.ndarray, times: np.ndarray,
              threshold: float = DEFAULT_PEAK_THRESHOLD) -> ComplexityTrace:
    """Evolve psi0 under the Krylov chain and record K_S(t).

    With the chain's eigenpairs (lam, U) and c0 = U^T psi0, psi(t) has the real
    part U (cos(lam t) c0) and the imaginary part -U (sin(lam t) c0).  The
    plateau is the mean of K_S over the final 20% of the grid; the peak fields
    report whether the pre-asymptotic maximum exceeds the plateau by more
    than `threshold` relative (if not, peak_value := plateau).
    """
    psi0 = np.asarray(psi0, dtype=float)
    if len(psi0) != len(t.a):
        raise ValueError("psi0 dimension does not match the tridiagonal form")
    if abs(np.sqrt(psi0 @ psi0) - 1.0) > 1e-12:
        raise ValueError("psi0 must have unit norm")
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if len(times) > 1 and np.any(np.diff(times) <= 0):
        raise ValueError("times must be strictly ascending")
    lam, U = eig_tridiagonal(t, want_vectors=True)   # U in Fortran order, as LAPACK returns it
    c0 = dgemv(1.0, U, psi0, trans=1)
    # (dim, ntimes) in Fortran order, the layout BLAS takes without a copy
    arg = np.outer(times, lam).T
    occ = dgemm(1.0, U, np.cos(arg) * c0[:, None]) ** 2 \
        + dgemm(1.0, U, np.sin(arg) * c0[:, None]) ** 2
    worst = float(np.max(np.abs(occ.sum(axis=0) - 1.0)))
    if worst > 1e-9:
        raise RuntimeError(f"unitarity violated: max |sum - 1| = {worst:.3g}")
    ks = dgemv(1.0, occ, np.arange(len(psi0), dtype=float), trans=1)
    has_peak, peak_value, peak_time, plateau = peak_fields(times, ks, threshold)
    return ComplexityTrace(times, occ.T, ks, peak_value, peak_time, plateau, has_peak, worst)


def _plateau_start(n: int) -> int:
    return min(max(int(np.ceil((1.0 - PLATEAU_FRACTION) * n)), 0), n - 1)


def peak_fields(times: np.ndarray, ks: np.ndarray, threshold: float = DEFAULT_PEAK_THRESHOLD):
    """(has_peak, peak_value, peak_time, plateau), the plateau being the mean of the
    final window; unlike detect_peak_curve it does not ask that window to be flat."""
    plateau = float(np.mean(ks[_plateau_start(len(times)):]))
    i = int(np.argmax(ks))
    if plateau > 0 and ks[i] > plateau * (1.0 + threshold):
        return True, float(ks[i]), float(times[i]), plateau
    return False, plateau, float(times[i]), plateau


def detect_peak_curve(times: np.ndarray, ks: np.ndarray,
                      threshold: float = DEFAULT_PEAK_THRESHOLD):
    """(has_peak, peak_value, peak_time) of a saturated (times, ks) curve, e.g. an ensemble mean.

    Requires the final window to be statistically flat: the means of its two
    halves must agree within PLATEAU_DRIFT_TOL relative, else the evolution
    was stopped too early and an error is raised.
    """
    if len(times) - _plateau_start(len(times)) < 10:
        raise ValueError("trace too short: need >= 10 points in the plateau window")
    drift = plateau_drift(times, ks)
    if drift > PLATEAU_DRIFT_TOL:
        raise ValueError(f"plateau not reached: final-window halves drift {drift:.3g} relative")
    return peak_fields(times, ks, threshold)[:3]


def plateau_drift(times: np.ndarray, ks: np.ndarray) -> float:
    """Relative drift between the two halves of the plateau window."""
    tail = ks[_plateau_start(len(times)):]
    half = len(tail) // 2
    plateau = float(np.mean(tail))
    if plateau <= 0:
        return np.inf
    return abs(float(np.mean(tail[half:])) - float(np.mean(tail[:half]))) / plateau


def build_time_grid(b1: float, N: int, points: int = 400) -> np.ndarray:
    """Geometric grid spanning early growth through well past saturation.

    The peak sits near N/(2 b1) and the slowest saturation times scale like
    2 pi N / b1; the grid runs from 1% of the former to 10x the latter.
    """
    if b1 <= 0:
        raise ValueError("b1 must be positive")
    t_peak = N / (2.0 * b1)
    t_sat = 2.0 * np.pi * N / b1
    return np.geomspace(1e-2 * t_peak, 10.0 * t_sat, points)


def smoothed_peak_flag(times: np.ndarray, ks: np.ndarray,
                       threshold: float = DEFAULT_PEAK_THRESHOLD,
                       window: int = SMOOTH_WINDOW) -> bool:
    """Peak indicator robust to single-realization noise.

    The trace is smoothed with a reflect-padded moving average and the
    maximum is searched only before the plateau window, so late-time
    fluctuations around the saturation value do not register as peaks.
    """
    n = len(ks)
    w = min(window, n if n % 2 else n - 1)
    if w >= 3:
        pad = w // 2
        padded = np.concatenate([ks[pad:0:-1], ks, ks[-2:-pad - 2:-1]])
        smooth = np.convolve(padded, np.ones(w) / w, mode="valid")
    else:
        smooth = ks
    start = _plateau_start(n)
    plateau = float(np.mean(smooth[start:]))
    head = smooth[:start]
    if plateau <= 0 or len(head) == 0:
        return False
    return bool(np.max(head) > plateau * (1.0 + threshold))
