"""Householder and Lanczos tridiagonalization with their Krylov columns.

Householder (LAPACK `sytrd`) is the one dense reduction: every experiment and
every dense spectrum (`spectral.eig_dense`) starts from its form.  The form
keeps the reflectors in factored form; `TridiagonalForm.columns` applies them
(LAPACK `ormqr`) to the unit vectors of just the Krylov columns a caller reads.
The Lanczos recursion, which stores its basis, is the independent cross-check
the tests compare against.  Both start from e1 by default, so on a
non-degenerate Krylov space they agree coefficient by coefficient and column
by column.  Off-diagonals are returned non-negative; reflector/recursion signs
are absorbed into the Krylov columns.  `_openblas` calls both LAPACK routines.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _openblas

BREAKDOWN_RTOL = 1e-12  # b_m below this times ||H||_F terminates Lanczos
FINITE_CHECK_BLOCK = 65536  # entries the finiteness check masks at a time


@dataclass
class TridiagonalForm:
    a: np.ndarray                      # diagonal, length m
    b: np.ndarray                      # off-diagonal, length m-1, all >= 0
    basis: np.ndarray | None = None    # Lanczos: its m Krylov columns
    reflectors: tuple | None = None    # Householder: sytrd's (c, tau, e), e signed

    def __post_init__(self):
        self.a = np.asarray(self.a, dtype=float)
        self.b = np.asarray(self.b, dtype=float)
        if self.b.shape != (max(len(self.a) - 1, 0),):
            raise ValueError("off-diagonal length must be len(a) - 1")
        if np.any(self.b < 0):
            raise ValueError("off-diagonals must be non-negative (sign convention)")

    def columns(self, ks) -> np.ndarray:
        """Krylov columns ks of a Householder form as an N x len(ks) array: the stored
        reflectors applied to the unit vectors e_k in factored form, about 2 N^2
        flops per column (Golub and Van Loan, Matrix Computations, 5.1.6)."""
        ks = np.asarray(ks, dtype=int)
        c, tau, e = self.reflectors
        # absorb the off-diagonal signs into the columns so b >= 0
        signs = np.concatenate([[1.0], np.cumprod(np.where(e < 0, -1.0, 1.0))])
        N = len(c)
        E = np.zeros((N, len(ks)))
        E[ks, np.arange(len(ks))] = 1.0
        if N > 1:
            # reflector k acts on rows k+1.. and is stored below the subdiagonal of column
            # k, so Q[1:, 1:] is the QR-style product of c[1:, :N-1].  V views those
            # columns in place: Fortran order with leading dimension N, one element into
            # c's buffer.  Its last row runs past c[1:] into the next column, but ormqr
            # reads only rows < N-1 of an (N-1)-row product, so it never touches it.
            V = np.ndarray((N, N - 1), buffer=c.ravel(order="F")[1:], order="F")
            E[1:] = _openblas.ormqr(V, tau, E[1:])
        return E * signs[ks]


def householder_tridiagonalize(H, *, overwrite: bool = False) -> TridiagonalForm:
    """Reduce a symmetric matrix to tridiagonal form by Householder reflections.

    LAPACK `sytrd` runs with the workspace of its own size query, which
    selects its blocked (level-3) path.  Returns coefficients with b >= 0 and
    the reflectors of the orthogonal Q (first column e1, so its columns span
    the Krylov spaces of e1) with sytrd's signed off-diagonals; `columns` forms
    any of Q's columns, with the signs that give Q^T H Q those b >= 0.

    With `overwrite=True` a C-ordered float64 H, as the generators return it, is
    reduced in place: `sytrd` writes the reflectors, which `reflectors` then
    alias, over H's diagonal and upper triangle and never touches its strict
    lower one, and no N x N copy is made.  The bits are those of the copying
    call, since the same `sytrd` runs on the same values.  Any other H is copied
    either way.  Every entry, unread ones too, must be finite (checked in blocks).
    """
    A = np.asarray(H, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("expected a square matrix")
    flat = A.ravel(order="K")
    if not all(np.isfinite(flat[i:i + FINITE_CHECK_BLOCK]).all()
               for i in range(0, flat.size, FINITE_CHECK_BLOCK)):
        raise ValueError("matrix entries must be finite")
    # A^T is the symmetric A in Fortran order: copied without transposing, or with
    # overwrite reduced in A's own buffer
    c, d, e, tau = _openblas.sytrd(A.T, overwrite)
    return TridiagonalForm(d, np.abs(e), None, (c, tau, e))


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
    for k in range(m):
        if k:
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
    return TridiagonalForm(a, b, V)


def lanczos_dimension(b: np.ndarray, norm: float) -> int:
    """Krylov dimension at which Lanczos stops on these off-diagonals.

    The first b_k below BREAKDOWN_RTOL * norm ends the chain at k + 1
    vectors; `norm` is ||H||_F, the scale lanczos_tridiagonalize uses.
    """
    small = np.flatnonzero(np.asarray(b) < BREAKDOWN_RTOL * norm)
    return int(small[0]) + 1 if small.size else len(b) + 1
