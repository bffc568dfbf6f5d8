"""Householder and Lanczos tridiagonalization with explicit Krylov bases.

Householder (LAPACK `sytrd`, with the basis from `orgqr`) is the reduction
every experiment uses.  The Lanczos recursion is kept as the independent
cross-check the tests compare against.  Both reductions use the start vector
e1 by default, so on a non-degenerate Krylov space they agree coefficient by
coefficient and their bases agree column by column.  Both take the matrix as
a plain array.  Off-diagonals are returned non-negative; reflector/recursion
signs are absorbed into the basis columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import get_lapack_funcs
from scipy.linalg.blas import dsyrk

_sytrd, _sytrd_lwork, _orgqr = get_lapack_funcs(
    ("sytrd", "sytrd_lwork", "orgqr"), (np.empty((2, 2), dtype=np.float64),))

BREAKDOWN_RTOL = 1e-12  # b_m below this times ||H||_F terminates Lanczos


@dataclass
class TridiagonalForm:
    a: np.ndarray                      # diagonal, length m
    b: np.ndarray                      # off-diagonal, length m-1, all >= 0
    basis: np.ndarray | None = None    # optional m Krylov columns in the computational basis

    def __post_init__(self):
        self.a = np.asarray(self.a, dtype=float)
        self.b = np.asarray(self.b, dtype=float)
        if self.b.shape != (max(len(self.a) - 1, 0),):
            raise ValueError("off-diagonal length must be len(a) - 1")
        if np.any(self.b < 0):
            raise ValueError("off-diagonals must be non-negative (sign convention)")

    def __len__(self):
        return len(self.a)

    def matrix(self) -> np.ndarray:
        """Dense m x m tridiagonal matrix."""
        T = np.diag(self.a)
        m = len(self.a)
        idx = np.arange(m - 1)
        T[idx, idx + 1] = self.b
        T[idx + 1, idx] = self.b
        return T


def householder_tridiagonalize(H, accumulate_basis: bool = False) -> TridiagonalForm:
    """Reduce a symmetric matrix to tridiagonal form by Householder reflections.

    LAPACK `sytrd` runs with the workspace of its own size query, which
    selects its blocked (level-3) path.  Returns coefficients with b >= 0.
    When `accumulate_basis` is set, the orthogonal transform Q (first column
    e1, so its columns span the Krylov spaces of e1) is formed by `orgqr`
    from the stored reflectors, with column signs flipped so that Q^T H Q has
    the returned non-negative off-diagonals.
    """
    A = np.asarray(H, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("expected a square matrix")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix entries must be finite")
    N = A.shape[0]
    if N == 1:
        basis = np.ones((1, 1)) if accumulate_basis else None
        return TridiagonalForm(A.diagonal().copy(), np.zeros(0), basis)
    lwork = int(_sytrd_lwork(N, lower=1)[0])
    # A^T is the symmetric A in Fortran order: f2py copies it without transposing
    c, d, e, tau, info = _sytrd(A.T, lower=1, lwork=lwork)
    if info != 0:
        raise RuntimeError(f"sytrd failed with info={info}")
    a = np.asarray(d, dtype=float)
    b = np.abs(np.asarray(e, dtype=float))
    basis = None
    if accumulate_basis:
        # reflector k acts on rows k+1.. and is stored below the subdiagonal of
        # column k, so Q[1:, 1:] is the QR-style product of c[1:, :N-1]
        V = c[1:, : N - 1]
        lwork = int(_orgqr(V, tau, lwork=-1)[1][0])
        Q1, _, info = _orgqr(V, tau, lwork=lwork)
        if info != 0:
            raise RuntimeError(f"orgqr failed with info={info}")
        Q = np.eye(N)
        Q[1:, 1:] = Q1
        # absorb off-diagonal signs into the columns so b >= 0
        signs = np.ones(N)
        sign_e = np.where(e < 0, -1.0, 1.0)
        signs[1:] = np.cumprod(sign_e)
        basis = Q * signs
    return TridiagonalForm(a, b, basis)


def lanczos_tridiagonalize(H, v0: np.ndarray | None = None,
                           steps: int | None = None) -> TridiagonalForm:
    """Lanczos three-term recursion with full (two-pass) reorthogonalization.

    Terminates early when the next off-diagonal falls below
    BREAKDOWN_RTOL * ||H||_F, returning the achieved Krylov dimension.
    """
    A = np.asarray(H, dtype=float)
    N = A.shape[0]
    m = N if steps is None else int(steps)
    if not 1 <= m <= N:
        raise ValueError(f"steps must lie in [1, {N}]")
    norm_H = np.linalg.norm(A, "fro")
    if v0 is None:
        v = np.zeros(N)
        v[0] = 1.0
    else:
        v = np.asarray(v0, dtype=float).copy()
        if abs(np.linalg.norm(v) - 1.0) > 1e-12:
            raise ValueError("start vector must have unit norm")
    V = np.zeros((N, m))
    a = np.zeros(m)
    b = np.zeros(max(m - 1, 0))
    V[:, 0] = v
    w = A @ v
    a[0] = v @ w
    w = w - a[0] * v
    k = 1
    while k < m:
        # two passes of Gram-Schmidt against every previous vector
        w -= V[:, :k] @ (V[:, :k].T @ w)
        w -= V[:, :k] @ (V[:, :k].T @ w)
        bk = np.linalg.norm(w)
        if bk < BREAKDOWN_RTOL * norm_H:
            return TridiagonalForm(a[:k], b[: k - 1], V[:, :k])
        b[k - 1] = bk
        v = w / bk
        V[:, k] = v
        w = A @ v
        a[k] = v @ w
        w = w - a[k] * v
        k += 1
    return TridiagonalForm(a, b, V)


def lanczos_dimension(b: np.ndarray, norm: float) -> int:
    """Krylov dimension at which Lanczos stops on these off-diagonals.

    The first b_k below BREAKDOWN_RTOL * norm ends the chain at k + 1
    vectors; `norm` is ||H||_F, the scale lanczos_tridiagonalize uses.
    """
    small = np.flatnonzero(np.asarray(b) < BREAKDOWN_RTOL * norm)
    return int(small[0]) + 1 if small.size else len(b) + 1


def basis_orthogonality_residual(basis: np.ndarray) -> float:
    """Max |Q^T Q - I| over the columns Q of `basis`, diagonal included; the Gram
    matrix is the lower triangle of one BLAS `syrk`, as numpy's Q.T @ Q computes it."""
    G = dsyrk(1.0, basis.T, lower=1)
    G[np.diag_indices_from(G)] -= 1.0
    return float(np.max(np.abs(G)))
