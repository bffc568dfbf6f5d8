"""The ctypes binding of scipy's OpenBLAS against scipy's own f2py wrappers, bit for bit.

Each routine runs under the thread pin of its size, across the one-thread cut at
N = 144 and the 128-wide draw tiles, on RP draws whose chains are full (gamma 0),
fractal (1.5) and nearly diagonal (3).  The tests may import `scipy.linalg`; the
package does not.
"""
import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal, get_lapack_funcs
from scipy.linalg.blas import dgemm, dgemv, dnrm2

from krylovlab import EnsembleConfig, TridiagonalForm, _openblas, eig_tridiagonal, generate_rp

SIZES = [2, 3, 127, 128, 129, 144, 145, 256, 257, 512, 1024]
GAMMAS = [0.0, 1.5, 3.0]


def same_bits(*pairs):
    return all(np.asarray(x).tobytes() == np.asarray(y).tobytes()
               and np.asarray(x).shape == np.asarray(y).shape for x, y in pairs)


@pytest.fixture(scope="module")
def scipy_lapack():
    return dict(zip(("sytrd", "sytrd_lwork", "ormqr"),
                    get_lapack_funcs(("sytrd", "sytrd_lwork", "ormqr"), (np.empty((2, 2)),))))


@pytest.mark.parametrize("N", SIZES)
def test_every_routine_has_the_bits_of_scipys_wrapper(N, scipy_lapack):
    sytrd, ormqr = scipy_lapack["sytrd"], scipy_lapack["ormqr"]
    for gamma in GAMMAS:
        H = generate_rp(EnsembleConfig(N, gamma, seed=N))
        with _openblas._blas_threads(N):
            lwork = int(scipy_lapack["sytrd_lwork"](N, lower=1)[0])
            c, d, e, tau, info = sytrd(H.T, lower=1, lwork=lwork)
            assert info == 0
            assert same_bits(*zip((c, d, e, tau), _openblas.sytrd(H.T, False))), (N, gamma)

            V = np.ndarray((N, N - 1), buffer=c.ravel(order="F")[1:], order="F")
            E = np.zeros((N - 1, 3))
            E[[0, (N - 1) // 2, N - 2], [0, 1, 2]] = 1.0
            lwork = int(ormqr("L", "N", V, tau, E, -1)[1][0])
            cq = _openblas.ormqr(V, tau, E)
            assert same_bits((ormqr("L", "N", V, tau, E, lwork)[0], cq)), (N, gamma)
            assert cq.flags.f_contiguous

            a, b = d, np.abs(e)
            values = _openblas.stevd(a, b, False)
            lam, U = _openblas.stevd(a, b, True)
            assert same_bits((eigh_tridiagonal(a, b, eigvals_only=True), values),
                             *zip(eigh_tridiagonal(a, b), (lam, U))), (N, gamma)
            assert U.flags.f_contiguous

            Q = np.vstack([np.zeros((1, 3)), cq])            # C-ordered, as the ipr map has it
            assert same_bits((dgemm(1.0, H.T, Q), _openblas.dgemm(H.T, Q)),
                             (dgemm(1.0, Q, Q, trans_a=1), _openblas.dgemm(Q, Q, trans_a=True)),
                             (dgemv(1.0, U, lam, trans=1), _openblas.dgemv(U, lam)),
                             (dnrm2(H[0] - lam[-1] * U[:, 0]),
                              np.float64(_openblas.dnrm2(H[0] - lam[-1] * U[:, 0])))), (N, gamma)


@pytest.mark.parametrize("order", ["C", "F"])
def test_sytrd_overwrites_exactly_where_scipys_overwrite_a_does(order, scipy_lapack):
    # A^T of a C-ordered A is Fortran-contiguous and reduced in place; of an F-ordered A
    # it is copied, and A is left as it was
    H = np.asarray(generate_rp(EnsembleConfig(40, 1.0, seed=2)), order=order)
    got_H, expect_H = H.copy(order="K"), H.copy(order="K")
    lwork = int(scipy_lapack["sytrd_lwork"](40, lower=1)[0])
    expect = scipy_lapack["sytrd"](expect_H.T, lower=1, lwork=lwork, overwrite_a=1)
    got = _openblas.sytrd(got_H.T, True)
    assert same_bits(*zip(expect[:4], got), (expect_H, got_H))
    assert np.shares_memory(got[0], got_H) == np.shares_memory(expect[0], expect_H) \
        == (order == "C")
    assert same_bits((_openblas.sytrd(H.T, False)[0], got[0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("where", ["a", "b"])
def test_a_non_finite_coefficient_is_refused(bad, where):
    a, b = np.array([0.0, 1.0, 2.0]), np.array([1.0, 1.0])
    (a if where == "a" else b)[1] = bad
    with pytest.raises(ValueError, match="infs or NaNs"):
        eig_tridiagonal(TridiagonalForm(a, b))


def test_a_lapack_error_raises_runtime_error():
    # three reflectors cannot act on two rows: dormqr reports its argument K (info = -5)
    with pytest.raises(RuntimeError, match="dormqr failed with info=-5"):
        _openblas.ormqr(np.zeros((2, 3), order="F"), np.zeros(3), np.zeros((2, 1)))
