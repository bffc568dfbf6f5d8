"""Inverse participation ratios of Krylov vectors and the D2 scaling exponent.

IPR^l_K(phi_k) = sum_n |<n|phi_k>|^(2l) over computational basis states |n>,
i.e. the 2l-th moment of the components of the k-th Lanczos vector.  Its
decay with system size at fixed k rule (last vector, mid vector) defines the
fractal exponent D2 via IPR^2_K ~ N^(-D2).  The eigenstate-overlap recurrence
eta^k_m provides an independent small-N route to the same quantities.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .tridiag import TridiagonalForm


class KRule(str, Enum):
    LAST_VECTOR = "last"
    MID_VECTOR = "mid"


@dataclass(frozen=True)
class KrylovIprRecord:
    gamma: float
    N: int
    k: int
    ell: int
    ipr: float
    realizations: int

    def __post_init__(self):
        if self.ell < 1:
            raise ValueError("moment order ell must be a positive integer")
        lo = self.N ** (1.0 - self.ell)
        if not lo - 1e-12 <= self.ipr <= 1.0 + 1e-12:
            raise ValueError(f"ipr {self.ipr} outside [{lo}, 1] for N={self.N}, ell={self.ell}")


@dataclass(frozen=True)
class FractalExponent:
    gamma: float
    d2: float
    fit_stderr: float
    N_grid: np.ndarray

    def __post_init__(self):
        if self.fit_stderr < 0:
            raise ValueError("fit_stderr must be non-negative")


def krylov_ipr(basis: np.ndarray, k: int, ell: int) -> float:
    """2l-th component moment of Krylov vector k (columns of `basis`)."""
    if ell < 1 or int(ell) != ell:
        raise ValueError("ell must be a positive integer")
    if not 0 <= k < basis.shape[1]:
        raise ValueError(f"Krylov index {k} outside [0, {basis.shape[1] - 1}]")
    v = basis[:, k]
    nrm = np.sqrt(v @ v)
    if abs(nrm - 1.0) > 1e-10:
        raise ValueError(f"Krylov vector {k} is not normalized: |v| = {nrm}")
    return float(np.sum(np.abs(v) ** (2 * ell)))


def pick_k(N: int, k_rule: KRule) -> int:
    return N - 1 if KRule(k_rule) is KRule.LAST_VECTOR else N // 2


def fit_d2(records, k_rule: KRule = KRule.LAST_VECTOR) -> FractalExponent:
    """Fractal exponent from the size scaling of the ell = 2 Krylov IPR.

    `records` holds KrylovIprRecord entries at one gamma (ensemble means,
    one per N).  Regression of ln(ipr) on ln(N) gives slope -D2; the stderr
    is the standard error of the slope from the fit residuals.
    """
    recs = [r for r in records if r.ell == 2]
    if len({r.N for r in recs}) < 3:
        raise ValueError("need records at >= 3 distinct N")
    gammas = {r.gamma for r in recs}
    if len(gammas) != 1:
        raise ValueError(f"records mix gamma values: {sorted(gammas)}")
    rule = KRule(k_rule)
    for r in recs:
        if r.k != pick_k(r.N, rule):
            raise ValueError(f"record k={r.k} does not follow the {rule.value}-vector rule at N={r.N}")
    Ns = np.array([r.N for r in recs], dtype=float)
    y = np.log([r.ipr for r in recs])
    x = np.log(Ns)
    A = np.column_stack([x, np.ones_like(x)])
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ coef
    dof = max(len(y) - 2, 1)
    sx = x - x.mean()
    stderr = float(np.sqrt((resid @ resid) / dof / (sx @ sx)))
    return FractalExponent(float(next(iter(gammas))), float(-coef[0]), stderr,
                           np.array(sorted({r.N for r in recs})))


def overlap_recurrence(t: TridiagonalForm, E_m: float, eta0: float) -> np.ndarray:
    """Eigenstate-Krylov overlaps eta^k_m by forward three-term recursion.

    b_{n+1} eta^{n+1} = (E_m - a_n) eta^n - b_n eta^{n-1} with eta^{-1} = 0.
    Only reliable at small N (the recursion amplifies the growing solution);
    above N ~ 256 prefer projecting eigenvectors onto the stored Krylov basis.
    """
    a, b = t.a, t.b
    if np.any(b <= 0):
        raise ValueError("zero off-diagonal mid-spectrum: invariant subspace")
    n = len(a)
    eta = np.zeros(n)
    eta[0] = eta0
    prev = 0.0
    for k in range(n - 1):
        nxt = ((E_m - a[k]) * eta[k] - (b[k - 1] if k > 0 else 0.0) * prev) / b[k]
        prev = eta[k]
        eta[k + 1] = nxt
    return eta
