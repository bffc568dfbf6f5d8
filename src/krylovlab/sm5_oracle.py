"""Variance-propagation model of tridiagonalization for heteroskedastic matrices.

A Householder step on a Gaussian matrix with diagonal variance alpha and
off-diagonal variance beta produces a smaller block whose entry variances
follow closed leading-order maps A-D; iterating the maps and converting the
first-row variance to a norm through the Nakagami mean predicts the whole
Lanczos b(x) profile without touching a single matrix.  The quartic moment
sums (omega, mu, nu, zeta) quantify the reflector's deviation from a
uniformly mixing orthogonal matrix and are exposed for validation.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class VarianceState:
    """Entry-class variances of the current trailing block."""

    L: int            # current block dimension
    a: float          # variance of the (1,1) corner entry
    b_diag: float     # bulk diagonal variance
    c: float          # first-row off-diagonal variance (feeds the next b-norm)
    d_off: float      # bulk off-diagonal variance

    def __post_init__(self):
        if self.L < 1:
            raise ValueError("block dimension must be positive")
        for name in ("a", "b_diag", "c", "d_off"):
            if getattr(self, name) < 0:
                raise ValueError(f"variance {name} must be non-negative")

    @classmethod
    def initial(cls, N: int, alpha: float, beta: float) -> "VarianceState":
        return cls(N, alpha, alpha, beta, beta)


def nakagami_mean(L: int, sigma2: float) -> float:
    """Mean norm of an L-vector of iid N(0, sigma2) entries (chi-law mean)."""
    if sigma2 == 0:
        return 0.0
    from scipy.special import gammaln   # here, not at the top: see spectral
    return float(np.sqrt(2.0 * sigma2) * np.exp(gammaln((L + 1) / 2.0) - gammaln(L / 2.0)))


def _clamped(value: float) -> float:
    if value < 0:
        warnings.warn("negative variance clamped to zero in step_variances")
        return 0.0
    return value


def step_variances(s: VarianceState) -> VarianceState:
    """One Householder step of the variance recursion, evaluated at N = s.L.

    A = 2 beta + (alpha - 2 beta)/N     (new corner)
    B = alpha - 4 (alpha - 2 beta)/N    (new bulk diagonal)
    C = beta + 2 (alpha - 2 beta)/N     (new first row)
    D = beta + 3 (alpha - 2 beta)/N^2   (new bulk off-diagonal)
    with alpha = bulk diagonal variance and beta = bulk off-diagonal variance
    of the incoming block.  At alpha = 2 beta every map returns its own class
    unchanged: the Wigner ensemble is a fixed point.
    """
    if s.L < 3:
        raise ValueError("variance recursion needs block dimension >= 3")
    n = float(s.L)
    diff = s.b_diag - 2.0 * s.d_off
    A = _clamped(2.0 * s.d_off + diff / n)
    B = _clamped(s.b_diag - 4.0 * diff / n)
    C = _clamped(s.d_off + 2.0 * diff / n)
    D = _clamped(s.d_off + 3.0 * diff / n**2)
    return VarianceState(s.L - 1, A, B, C, D)


def predict_lanczos_profile(N: int, alpha: float, beta: float) -> np.ndarray:
    """Predicted ensemble-mean tridiagonal profile, rows (x, mean_a, mean_b).

    Iterates the variance recursion N-2 times from the (alpha, beta) start;
    at step k the pending b-norm collects L-1 = N-k first-row entries of
    variance c, so mean_b = Nakagami mean with (L = N-k, sigma2 = c); the
    diagonal stays zero-mean Gaussian throughout.
    """
    if N < 3:
        raise ValueError("need N >= 3")
    if alpha <= 0 or beta < 0:
        raise ValueError("need alpha > 0 and beta >= 0")
    s = VarianceState.initial(N, alpha, beta)
    rows = np.zeros((N - 2, 3))
    for k in range(1, N - 1):
        rows[k - 1] = (k / N, 0.0, nakagami_mean(s.L - 1, s.c))
        s = step_variances(s)
    return rows


def householder_moment_sums(N: int):
    """Closed-form quartic moment sums (omega, mu, nu, zeta) of the reflector.

    sum_l M^4_{li} = delta_{i1} omega + (1 - delta_{i1})(1 + mu) and
    sum_l M^2_{li} M^2_{lj} = (delta_{i1} + delta_{j1}) nu
                              + (1 - delta_{i1} - delta_{j1}) zeta.
    """
    if N < 8:
        raise ValueError("moment sums need N >= 8")
    n = float(N)
    r = np.sqrt(n)
    omega = (4 * n * r + n**3 - 12 * n + 16 * r - 81) / n**4
    mu = (n * r - 5 * n**2 * r - 4 * n**3 * r - 4 * n**3
          - 12 * n**2 - 28 * n + 65 * r - 46) / n**4.5
    nu = (2 * n * r + n**3 - 8 * n + 10 * r - 48) / n**4
    zeta = (11 * n * r + 3 * n**2 * r + 4 * n**2 + 28 * n + 31 * r + 150) / n**4.5
    return omega, mu, nu, zeta
