"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written from scratch against textbook
definitions (Sturm sequences, characteristic polynomials, Monte-Carlo
surmises) rather than calling back into krylovlab, so agreement between the
two is evidence and not tautology.  The last few helpers serve the tests
only (matrix files, CSV reading, small formulas, the dense chain matrix, the
explicit one-step reflector, overlaps by projection, the Gram residual of a
whole basis) and so live here, not in the package.
"""
import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.linalg.blas import dsyrk

from krylovlab import EnsembleConfig, Normalization, nakagami_mean


def sturm_count(a, b, x):
    """Number of eigenvalues of the symmetric tridiagonal (a, b) below x.

    Counts sign agreements of the Sturm sequence of leading principal minors,
    evaluated in the standard overflow-safe ratio form.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    count = 0
    q = a[0] - x
    if q < 0:
        count += 1
    for i in range(1, len(a)):
        if q == 0.0:
            q = 1e-300
        q = a[i] - x - b[i - 1] ** 2 / q
        if q < 0:
            count += 1
    return count


def sturm_eigenvalues(a, b, tol=1e-12):
    """All eigenvalues of the symmetric tridiagonal (a, b) by Sturm bisection."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n = len(a)
    radius = np.abs(a).max() + (2 * np.abs(b).max() if len(b) else 0.0) + 1.0
    out = []
    for k in range(n):
        lo, hi = -radius, radius
        while hi - lo > tol * radius:
            mid = 0.5 * (lo + hi)
            if sturm_count(a, b, mid) <= k:
                lo = mid
            else:
                hi = mid
        out.append(0.5 * (lo + hi))
    return np.array(out)


def charpoly_eigenvalues(a, b):
    """Eigenvalues of a small symmetric tridiagonal via its characteristic
    polynomial, built from the three-term minor recurrence and solved with
    np.roots.  Reliable for n <= ~8."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    p_prev = np.array([1.0])                       # det of the empty block
    p = np.array([-1.0, a[0]])                     # a[0] - x
    for i in range(1, len(a)):
        term1 = np.polymul(np.array([-1.0, a[i]]), p)
        term2 = b[i - 1] ** 2 * p_prev
        padded = np.zeros(len(term1))
        padded[len(term1) - len(term2):] = term2
        p_prev, p = p, term1 - padded
    return np.sort(np.roots(p).real)


def charpoly_eigenvalues_full(H):
    """Eigenvalues of a small full matrix via the characteristic polynomial,
    with coefficients from the Faddeev-LeVerrier recursion (no eigensolver
    involved).  Reliable for n <= ~6."""
    H = np.asarray(H, dtype=float)
    n = H.shape[0]
    coeffs = [1.0]
    M = np.zeros_like(H)
    for k in range(1, n + 1):
        M = H @ M + coeffs[-1] * np.eye(n)
        coeffs.append(-np.trace(H @ M) / k)
    return np.sort(np.roots(coeffs).real)


def surmise_r_mc(samples=200_000, seed=20260815):
    """<r> of the 3x3 GOE surmise by direct Monte-Carlo."""
    rng = np.random.default_rng(seed)
    acc = 0.0
    block = 20_000
    done = 0
    while done < samples:
        m = min(block, samples - done)
        g = rng.standard_normal((m, 3, 3))
        h = (g + np.swapaxes(g, 1, 2)) / 2.0
        ev = np.linalg.eigvalsh(h)
        s1 = ev[:, 1] - ev[:, 0]
        s2 = ev[:, 2] - ev[:, 1]
        acc += np.sum(np.minimum(s1, s2) / np.maximum(s1, s2))
        done += m
    return acc / samples


def poisson_r_mean():
    """<r> for uncorrelated (Poisson) levels: 2 ln 2 - 1."""
    return 2.0 * np.log(2.0) - 1.0


def porter_thomas_ipr_mc(N, ell=2, samples=20_000, seed=7):
    """Mean IPR_ell of random unit vectors uniform on the sphere in R^N."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((samples, N))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return float(np.mean(np.sum(np.abs(v) ** (2 * ell), axis=1)))


def arcsine_dos(E, half_width=1.0):
    """Density 1/(pi sqrt(w^2 - E^2)) of the constant-b chain."""
    E = np.asarray(E, dtype=float)
    out = np.zeros_like(E)
    inside = np.abs(E) < half_width
    out[inside] = 1.0 / (np.pi * np.sqrt(half_width**2 - E[inside] ** 2))
    return out


def semicircle_dos(E, radius=2.0):
    """Wigner semicircle of the given support radius."""
    E = np.asarray(E, dtype=float)
    out = np.zeros_like(E)
    inside = np.abs(E) < radius
    out[inside] = 2.0 / (np.pi * radius**2) * np.sqrt(radius**2 - E[inside] ** 2)
    return out


def gaussian_dos(E, xi):
    """Zero-mean Gaussian density with standard deviation xi."""
    E = np.asarray(E, dtype=float)
    return np.exp(-(E**2) / (2.0 * xi**2)) / (xi * np.sqrt(2.0 * np.pi))


def ks_statistic(sorted_samples, cdf_grid_E, cdf_grid_F):
    """KS distance between an empirical sample and a tabulated model CDF."""
    s = np.asarray(sorted_samples, dtype=float)
    F = np.interp(s, cdf_grid_E, cdf_grid_F)
    n = len(s)
    emp_hi = np.arange(1, n + 1) / n
    emp_lo = np.arange(0, n) / n
    return float(max(np.abs(emp_hi - F).max(), np.abs(emp_lo - F).max()))


def tridiagonal_matrix(t):
    """Dense m x m matrix of a tridiagonal form with diagonal t.a and off-diagonal t.b."""
    T = np.diag(t.a)
    idx = np.arange(len(t.a) - 1)
    T[idx, idx + 1] = t.b
    T[idx + 1, idx] = t.b
    return T


def amplitudes_at(t, psi0, times):
    """Complex Krylov-basis amplitudes psi_n(t) = (e^(-i T t) psi0)_n, shape
    (ntimes, dim), from a dense eigendecomposition of the chain matrix T."""
    lam, U = np.linalg.eigh(tridiagonal_matrix(t))
    phases = np.exp(-1j * np.outer(np.atleast_1d(times), lam))
    return (phases * (U.T @ np.asarray(psi0, dtype=float))) @ U.T


def refine_peak(t, times, peak_time, points=200):
    """(peak_value, peak_time) of K_S from |K_0>, re-propagated on a linear grid
    bracketing the point of `times` nearest to `peak_time`."""
    i = int(np.argmin(np.abs(times - peak_time)))
    lo = times[max(i - 1, 0)]
    hi = times[min(i + 1, len(times) - 1)]
    fine = np.linspace(lo, hi, points) if hi > lo else np.array([float(peak_time)])
    e1 = np.eye(len(t.a))[0]
    ks = (np.abs(amplitudes_at(t, e1, fine)) ** 2) @ np.arange(len(t.a), dtype=float)
    j = int(np.argmax(ks))
    return float(ks[j]), float(fine[j])


def goodness_epsilon(fit):
    """Relative goodness of fit in percent, sqrt(dp + dq) * 100 / (max(p - 1, q - 1) + 1),
    for a lanczos_stats.AnsatzFit."""
    return float(np.sqrt(fit.dp + fit.dq) * 100.0 / (max(fit.p - 1.0, fit.q - 1.0) + 1.0))


def scaled_profile(t):
    """Pairs (x, b) with x = n/N for n = 1..N-1 of a tridiagonal form with N diagonals."""
    N = len(t.a)
    return np.column_stack([np.arange(1, N) / N, t.b])


def eigenstate_ipr(vectors, m, ell):
    """2l-th component moment of eigenvector m (column m of `vectors`, as eig_dense
    returns them); ell = 2 is the standard IPR."""
    if np.ndim(vectors) != 2:
        raise ValueError("eigenvectors are required")
    if ell < 1 or int(ell) != ell:
        raise ValueError("ell must be a positive integer")
    return float(np.sum(np.abs(vectors[:, m]) ** (2 * ell)))


def overlaps_by_projection(t, vectors):
    """eta^k_m = <psi_m|K_k> for all (m, k) from the eigenvectors (columns of `vectors`)
    and the Krylov basis stored on the tridiagonal form `t`; rows index m."""
    if t.basis is None:
        raise ValueError("tridiagonal form carries no Krylov basis")
    if np.ndim(vectors) != 2:
        raise ValueError("eigenvectors are required")
    return vectors.T @ t.basis


def basis_orthogonality_residual(basis: np.ndarray) -> float:
    """Max |Q^T Q - I| over the columns Q of `basis`, diagonal included; the Gram
    matrix is the lower triangle of one BLAS `syrk`, as numpy's Q.T @ Q computes it."""
    G = dsyrk(1.0, basis.T, lower=1)
    G[np.diag_indices_from(G)] -= 1.0
    return float(np.max(np.abs(G)))


def analytic_goe_b(N, beta, x):
    """Chi-law mean profile of the Wigner ensemble: b(x) ~ sqrt(beta N (1 - x))."""
    x = np.asarray(x, dtype=float)
    return np.sqrt(beta * N * (1.0 - x))


@dataclass(frozen=True)
class NakagamiSpec:
    """Chi law of the norm of an L-vector of iid N(0, sigma2) entries."""

    L: int
    sigma2: float

    def __post_init__(self):
        if self.L < 1 or self.sigma2 <= 0:
            raise ValueError("NakagamiSpec needs L >= 1 and sigma2 > 0")

    @property
    def mean(self):
        return nakagami_mean(self.L, self.sigma2)


def reflector_matrix(v):
    """Involutory reflector sending v to ||v|| e_1: M = I - u u^T / (||v||^2 - ||v|| v_1)."""
    v = np.asarray(v, dtype=float)
    nv = np.linalg.norm(v)
    if nv == 0:
        raise ValueError("cannot reflect the zero vector")
    u = v.copy()
    u[0] -= nv
    denom = nv**2 - nv * v[0]
    if denom <= 1e-14 * nv**2:
        return np.eye(len(v))      # v already along e_1
    return np.eye(len(v)) - np.outer(u, u) / denom


def first_row_after_step(H):
    """Off-tridiagonal first-row entries produced by one exact Householder step.

    Reflects the first column tail of H onto e_1 and returns row 1 of the
    transformed trailing block beyond the new off-diagonal; these entries
    carry the C-class variance of the variance recursion.
    """
    A = np.asarray(H, dtype=float)
    N = A.shape[0]
    if N < 4:
        raise ValueError("need N >= 4 for a nonempty first row")
    M = reflector_matrix(A[1:, 0])
    block = M @ A[1:, 1:] @ M
    return block[0, 1:].copy()


def save_matrix(H, path, cfg=None):
    """Binary dump of a symmetric matrix: 8-byte little-endian dim, then row-major float64
    entries.  A JSON sidecar `<path>.json` records the generating config `cfg` when given."""
    path = Path(path)
    with open(path, "wb") as fh:
        fh.write(struct.pack("<Q", len(H)))
        fh.write(np.ascontiguousarray(H, dtype="<f8").tobytes())
    if cfg is not None:
        side = {"N": cfg.N, "gamma": cfg.gamma,
                "normalization": Normalization(cfg.normalization).value,
                "seed": int(cfg.seed)}
        Path(f"{path}.json").write_text(json.dumps(side, indent=2) + "\n")


def load_matrix(path):
    """(H, cfg) as save_matrix wrote them to `path`; cfg is None without a sidecar."""
    path = Path(path)
    raw = path.read_bytes()
    (dim,) = struct.unpack_from("<Q", raw, 0)
    H = np.frombuffer(raw, dtype="<f8", offset=8).reshape(dim, dim).copy()
    if not np.array_equal(H, H.T):
        raise ValueError(f"{path} holds a matrix that is not exactly symmetric")
    cfg = None
    sidecar = Path(f"{path}.json")
    if sidecar.exists():
        d = json.loads(sidecar.read_text())
        cfg = EnsembleConfig(d["N"], d["gamma"], Normalization(d["normalization"]), d["seed"])
    return H, cfg


def read_csv(path):
    """(header, rows) of a CSV the package wrote, every field left a string."""
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def untiled_symmetric_gaussian(N, diag_sigma, off_sigma, rng, out=None):
    """The ensembles' symmetric Gaussian draw as first written: triu copy, scale, full sum."""
    raw = rng.standard_normal((N, N), out=out)
    diagonal = raw.diagonal() * diag_sigma
    upper = np.triu(raw, k=1)
    upper *= off_sigma
    H = upper + upper.T
    np.fill_diagonal(H, diagonal)
    return H


def copying_columns(t, ks):
    """Krylov columns ks of a Householder form as `TridiagonalForm.columns` first
    computed them: ormqr on a Fortran copy of the reflectors c[1:, :N-1]."""
    from scipy.linalg import get_lapack_funcs
    ks = np.asarray(ks, dtype=int)
    c, tau, e = t.reflectors
    signs = np.concatenate([[1.0], np.cumprod(np.where(e < 0, -1.0, 1.0))])
    E = np.zeros((len(c), len(ks)))
    E[ks, np.arange(len(ks))] = 1.0
    if len(c) > 1:
        V = np.asfortranarray(c[1:, :-1])
        ormqr = get_lapack_funcs("ormqr", (V,))
        lwork = int(ormqr("L", "N", V, tau, E[1:], -1)[1][0])
        E[1:], _, info = ormqr("L", "N", V, tau, E[1:], lwork)
        assert info == 0
    return E * signs[ks]


def tfd_matrix_four_temporaries(lam, beta):
    """P diag(E) P of `krylov_dynamics.build_tfd_krylov` for eigenvalues `lam`, as the
    whole-matrix expression with its four N x N temporaries first formed it."""
    w = np.exp(-0.5 * beta * (lam - lam[0]))
    w /= np.sqrt(w @ w)
    u = w.copy()
    u[0] += 1.0
    Du = lam * u
    uu = u @ u
    return np.diag(lam) - (2.0 / uu) * (np.outer(u, Du) + np.outer(Du, u)) \
        + (4.0 * (u @ Du) / uu**2) * np.outer(u, u)


def copying_ipr(H):
    """`experiments._w_ipr` as it first ran: `sytrd` on a copy of H, so that H stays
    the drawn matrix for the residual check without being restored."""
    from krylovlab import experiments
    from krylovlab.krylov_ipr import KRule, krylov_ipr, pick_k
    from krylovlab.tridiag import householder_tridiagonalize, lanczos_dimension
    t = householder_tridiagonalize(H)
    norm = np.sqrt(np.sum(t.a**2) + 2.0 * np.sum(t.b**2))
    dim = lanczos_dimension(t.b, norm)
    ks = [pick_k(dim, rule) for rule in KRule]
    cols = sorted({n for k in ks for n in (k - 1, k, k + 1) if 0 <= n < dim})
    Q = t.columns(cols)
    return (*(krylov_ipr(Q, cols.index(k), 2) for k in ks), dim,
            experiments._krylov_residual(H, t, cols, Q, ks, norm))
