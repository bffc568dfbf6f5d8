"""Inverse participation ratios of Krylov vectors and the D2 scaling exponent.

IPR^l_K(phi_k) = sum_n |<n|phi_k>|^(2l) over computational basis states |n>,
i.e. the 2l-th moment of the components of the k-th Krylov vector; the ipr
cell forms only the vectors it reads, from the stored Householder reflectors
(`TridiagonalForm.columns`).  Its decay with system size at fixed k rule (last
vector, mid vector) defines the fractal exponent D2 via IPR^2_K ~ N^(-D2);
`fit_d2` regresses it from plain arrays of sizes and ensemble-mean IPRs.
"""

from __future__ import annotations

from enum import Enum

import numpy as np


class KRule(str, Enum):
    LAST_VECTOR = "last"
    MID_VECTOR = "mid"


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


def fit_d2(N_grid, ipr) -> tuple[float, float]:
    """Fractal exponent D2 and its standard error from the size scaling of the
    ell = 2 Krylov IPR at one gamma and one k rule.

    `ipr[i]` is the ensemble-mean IPR at size `N_grid[i]`; it must lie in
    [1/N, 1].  Regression of ln(ipr) on ln(N) gives slope -D2; the stderr is
    the standard error of the slope from the fit residuals.
    """
    for N, value in zip(N_grid, ipr):
        if not 1.0 / N - 1e-12 <= value <= 1.0 + 1e-12:
            raise ValueError(f"ipr {value} outside [{1.0 / N}, 1] for N={N}, ell=2")
    if len(set(N_grid)) < 3:
        raise ValueError("need IPRs at >= 3 distinct N")
    y = np.log(ipr)
    x = np.log(np.asarray(N_grid, dtype=float))
    A = np.column_stack([x, np.ones_like(x)])
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ coef
    dof = max(len(y) - 2, 1)
    sx = x - x.mean()
    return float(-coef[0]), float(np.sqrt((resid @ resid) / dof / (sx @ sx)))
