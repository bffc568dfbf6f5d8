"""Krylov-space wavefunction propagation and spread complexity.

The Krylov tridiagonal matrix generates a hopping problem on the ordered
basis |K_0>, |K_1>, ...; the spread complexity K_S(t) = sum_n n |psi_n(t)|^2
of the state started at |K_0> measures how far it has moved down the chain.
Evolution is done exactly through the eigendecomposition of the tridiagonal
matrix, so late-time plateaus carry no integrator error.  Dense kernels go
through `scipy.linalg`, so one OpenBLAS thread pool serves them all (numpy
bundles a second one, whose pool would fight the first for the cores).
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.blas import dgemm, dgemv

from .spectral import eig_dense, eig_tridiagonal
from .tridiag import TridiagonalForm, householder_tridiagonalize, lanczos_dimension

PEAK_THRESHOLD = 0.02         # relative excess of the maximum over the plateau
PLATEAU_FRACTION = 0.2        # final fraction of the grid averaged for the plateau
TIME_POINTS = 400             # length of the geometric time grid
SMOOTH_WINDOW = 21            # moving-average width for single-realization peak tests
# single traces overshoot their own plateau by up to ~2.5% while settling, even
# when the ensemble mean is monotone; 5% sits in the gap below genuine peaks
REALIZATION_PEAK_THRESHOLD = 0.05


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


def propagate(t: TridiagonalForm, times: np.ndarray):
    """K_S(t) of the state started at |K_0> = e1, and the unitarity residual
    max_t |sum_n |psi_n(t)|^2 - 1|, returned as (ks, residual) without a check:
    the caller compares the residual against its tolerance.

    With the chain's eigenpairs (lam, U) and c0 = U^T e1, the first row of U,
    psi(t) has the real part U (cos(lam t) c0) and the imaginary part
    -U (sin(lam t) c0).
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if len(times) > 1 and np.any(np.diff(times) <= 0):
        raise ValueError("times must be strictly ascending")
    lam, U = eig_tridiagonal(t, want_vectors=True)   # U in Fortran order, as LAPACK returns it
    c0 = U[0]
    # (dim, ntimes) in Fortran order, the layout BLAS takes without a copy
    arg = np.outer(times, lam).T
    occ = dgemm(1.0, U, np.cos(arg) * c0[:, None]) ** 2 \
        + dgemm(1.0, U, np.sin(arg) * c0[:, None]) ** 2
    residual = float(np.max(np.abs(occ.sum(axis=0) - 1.0)))
    return dgemv(1.0, occ, np.arange(len(lam), dtype=float), trans=1), residual


def _plateau_start(n: int) -> int:
    return min(max(int(np.ceil((1.0 - PLATEAU_FRACTION) * n)), 0), n - 1)


def peak_fields(times: np.ndarray, ks: np.ndarray):
    """(has_peak, peak_value, peak_time, plateau), the plateau being the mean of the
    final window.  There is a peak when the maximum exceeds the plateau by more
    than PEAK_THRESHOLD relative; if not, peak_value := plateau."""
    plateau = float(np.mean(ks[_plateau_start(len(times)):]))
    i = int(np.argmax(ks))
    if plateau > 0 and ks[i] > plateau * (1.0 + PEAK_THRESHOLD):
        return True, float(ks[i]), float(times[i]), plateau
    return False, plateau, float(times[i]), plateau


def plateau_drift(times: np.ndarray, ks: np.ndarray) -> float:
    """Relative drift between the two halves of the plateau window."""
    tail = ks[_plateau_start(len(times)):]
    half = len(tail) // 2
    plateau = float(np.mean(tail))
    if plateau <= 0:
        return np.inf
    return abs(float(np.mean(tail[half:])) - float(np.mean(tail[:half]))) / plateau


def build_time_grid(b1: float, N: int) -> np.ndarray:
    """Geometric grid spanning early growth through well past saturation.

    The peak sits near N/(2 b1) and the slowest saturation times scale like
    2 pi N / b1; the grid runs from 1% of the former to 10x the latter.
    """
    if b1 <= 0:
        raise ValueError("b1 must be positive")
    t_peak = N / (2.0 * b1)
    t_sat = 2.0 * np.pi * N / b1
    return np.geomspace(1e-2 * t_peak, 10.0 * t_sat, TIME_POINTS)


def smoothed_peak_flag(times: np.ndarray, ks: np.ndarray) -> bool:
    """Peak indicator robust to single-realization noise.

    The trace is smoothed with a reflect-padded moving average and the
    maximum is searched only before the plateau window, so late-time
    fluctuations around the saturation value do not register as peaks.  A
    peak is a smoothed maximum above the plateau by more than
    REALIZATION_PEAK_THRESHOLD relative.
    """
    n = len(ks)
    w = min(SMOOTH_WINDOW, n if n % 2 else n - 1)
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
    return bool(np.max(head) > plateau * (1.0 + REALIZATION_PEAK_THRESHOLD))
