"""scipy's bundled OpenBLAS through `ctypes`: the BLAS thread pin and the six LAPACK
and BLAS routines of the sweeps, called as scipy's f2py wrappers call them.

They are the `scipy_`-prefixed, 32-bit-integer symbols of the one
`libscipy_openblas*.so` in `scipy.libs`, with the arguments and workspace sizes
that scipy's wrappers pass, so the bits are theirs (the tests compare them) without
the `scipy.linalg` import, most of a small sweep's memory.  numpy's own OpenBLAS has
other kernels and a second thread pool, so it is never called.  OpenBLAS's thread
count changes LAPACK's bits: each kernel gave equal bits at 1 and 2 threads for
each N up to 144 and other bits at 145, so `_blas_threads` pins the count by N (one
thread below the cut also halves the CPU time of small `sytrd` calls).
Bits that followed the host's core count would break a run's byte-identity, so
without the library `_library` raises, naming why, and no cell is computed; it
loads on first use, so `verify` and a resume with every cell done never load it.
"""

from __future__ import annotations

import ctypes
import functools
from contextlib import contextmanager
from pathlib import Path

import numpy as np

SERIAL_BLAS_MAX_N = 144         # largest N whose bits were equal at 1 and 2 threads
PARALLEL_BLAS_THREADS = 2

# the exports called and their return types; routines take pointers, then string lengths
_EXPORTS = {"scipy_openblas_get_num_threads": ctypes.c_int, "scipy_dnrm2_": ctypes.c_double,
            **dict.fromkeys(("scipy_openblas_get_config", "scipy_openblas_get_corename"),
                            ctypes.c_char_p),
            **dict.fromkeys(("scipy_openblas_set_num_threads", "scipy_dsytrd_", "scipy_dormqr_",
                             "scipy_dstevd_", "scipy_dgemm_", "scipy_dgemv_"))}
_CHAR = ctypes.c_size_t(1)
_ONE, _ZERO = ctypes.byref(ctypes.c_double(1.0)), ctypes.byref(ctypes.c_double(0.0))


@functools.cache
def _library():
    """scipy's bundled OpenBLAS, loaded once; RuntimeError, naming why, if there is none."""
    import scipy
    libs = Path(scipy.__file__).resolve().parent.parent / "scipy.libs"
    found = sorted(libs.glob("libscipy_openblas*.so"))
    if len(found) != 1:
        raise RuntimeError(f"no scipy OpenBLAS: {len(found)} libscipy_openblas*.so in {libs}")
    try:
        lib = ctypes.CDLL(str(found[0]))
    except OSError as err:
        raise RuntimeError(f"no scipy OpenBLAS: {found[0].name} did not load: {err}") from err
    for name, restype in _EXPORTS.items():
        fn = getattr(lib, name, None)
        if fn is None:
            raise RuntimeError(f"no scipy OpenBLAS: {found[0].name} has no {name}")
        fn.restype = restype
    return lib


@contextmanager
def _blas_threads(N: int):
    """scipy's OpenBLAS at the thread count of the rule on N; the previous count after."""
    lib = _library()
    previous = lib.scipy_openblas_get_num_threads()
    lib.scipy_openblas_set_num_threads(1 if N <= SERIAL_BLAS_MAX_N else PARALLEL_BLAS_THREADS)
    try:
        yield
    finally:
        lib.scipy_openblas_set_num_threads(previous)


def _int(value: int):
    return ctypes.byref(ctypes.c_int(value))


def _ptr(array: np.ndarray):
    """The address of array's data; it holds no reference, so the caller keeps array."""
    return ctypes.c_void_p(array.ctypes.data)


def _lapack(name: str, *args, chars: int = 1) -> None:
    """LAPACK's `name` on args and an info flag; RuntimeError unless info is 0."""
    info = ctypes.c_int()
    getattr(_library(), f"scipy_{name}_")(*args, ctypes.byref(info), *[_CHAR] * chars)
    if info.value:
        raise RuntimeError(f"{name} failed with info={info.value}")


def _lapack_queried(name: str, *args, chars: int = 1) -> None:
    """LAPACK's `name` on args and the workspace of its own size query."""
    work = np.empty(1)
    _lapack(name, *args, _ptr(work), _int(-1), chars=chars)
    work = np.empty(int(work[0]))
    _lapack(name, *args, _ptr(work), _int(len(work)), chars=chars)


def sytrd(a: np.ndarray, overwrite: bool):
    """dsytrd, UPLO = L, on the square float64 a as a Fortran array: (c, d, e, tau), c
    being a itself if `overwrite` and a is Fortran-contiguous and writeable, else a copy."""
    n = len(a)
    c = a if overwrite and a.flags.f_contiguous and a.flags.writeable else np.array(a, order="F")
    d, e, tau = np.empty(n), np.empty(n - 1), np.empty(n - 1)
    _lapack_queried("dsytrd", b"L", _int(n), _ptr(c), _int(max(n, 1)), _ptr(d), _ptr(e),
                    _ptr(tau))
    return c, d, e, tau


def ormqr(v: np.ndarray, tau: np.ndarray, c: np.ndarray) -> np.ndarray:
    """dormqr, SIDE = L and TRANS = N: Q c in a Fortran copy of c, Q the product of the
    len(tau) reflectors in the columns of the Fortran-contiguous v."""
    cq = np.array(c, order="F")
    m, n = cq.shape
    _lapack_queried("dormqr", b"L", b"N", _int(m), _int(n), _int(len(tau)), _ptr(v),
                    _int(len(v)), _ptr(tau), _ptr(cq), _int(m), chars=2)
    return cq


def stevd(d: np.ndarray, e: np.ndarray, vectors: bool):
    """dstevd on copies of d and e with scipy's workspace sizes: the ascending
    eigenvalues, or (values, vectors) with vector j the column j of a Fortran array."""
    n = len(d)
    w, e = np.array(d, dtype=float), np.array(e, dtype=float)
    ldz, lwork, liwork = (n, 1 + 4 * n + n * n, 3 + 5 * n) if vectors else (1, 1, 1)
    z, work, iwork = np.empty((ldz, ldz), order="F"), np.empty(lwork), np.empty(liwork, np.intc)
    _lapack("dstevd", b"V" if vectors else b"N", _int(n), _ptr(w), _ptr(e), _ptr(z), _int(ldz),
            _ptr(work), _int(lwork), _ptr(iwork), _int(liwork))
    return (w, z) if vectors else w


def dgemm(a: np.ndarray, b: np.ndarray, trans_a: bool = False) -> np.ndarray:
    """a b, or a^T b with trans_a, in a new Fortran array; a, b are read in Fortran order."""
    a, b = np.asfortranarray(a, dtype=float), np.asfortranarray(b, dtype=float)
    (lda, ka), (ldb, n) = a.shape, b.shape
    m, k = (ka, lda) if trans_a else (lda, ka)
    c = np.zeros((m, n), order="F")
    _library().scipy_dgemm_(b"T" if trans_a else b"N", b"N", _int(m), _int(n), _int(k), _ONE,
                            _ptr(a), _int(max(lda, 1)), _ptr(b), _int(max(ldb, 1)), _ZERO,
                            _ptr(c), _int(m), _CHAR, _CHAR)
    return c


def dgemv(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """a^T x (TRANS = T) in a new array; a is read in Fortran order."""
    a, x = np.asfortranarray(a, dtype=float), np.ascontiguousarray(x, dtype=float)
    m, n = a.shape
    y = np.zeros(n)
    _library().scipy_dgemv_(b"T", _int(m), _int(n), _ONE, _ptr(a), _int(m), _ptr(x), _int(1),
                            _ZERO, _ptr(y), _int(1), _CHAR)
    return y


def dnrm2(x: np.ndarray) -> float:
    x = np.ascontiguousarray(x, dtype=float)
    return _library().scipy_dnrm2_(_int(len(x)), _ptr(x), _int(1))
