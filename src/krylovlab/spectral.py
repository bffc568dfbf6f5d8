"""Tridiagonal eigensolver, level statistics, and density-of-states machinery.

The continuum DOS of a tridiagonal family with slowly varying coefficients is
rho(E) = (1/pi) int_0^1 dx Theta(W)/sqrt(W) with W = 4 b(x)^2 - (E - a(x))^2;
for the q-logarithm profile b(x)^2 = -p ln_q x it has the closed form

    rho(E) = sqrt(1/(4 pi p (1-q))) * Gamma(1/(1-q)) / Gamma(1/2 + 1/(1-q))
             * (1 - E^2 (1-q)/(4p))^((1+q)/(2(1-q)))

supported on |E| <= z = 2 sqrt(p/(1-q)), reducing to the semicircle at q = 0
and a Gaussian of variance 2p as q -> 1.  Spectra are plain arrays of
ascending eigenvalues.  A dense spectrum is that of its Householder form
(LAPACK `sytrd`, through `_openblas`), so one reduction serves every experiment.

`scipy.special` loads inside the functions that call it, on first use, as `nib`
loads `scipy.optimize`: it is most of the package's import time, which every CLI
run pays, and `verify` or a resumed sweep with every cell done never calls it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import _openblas
from .tridiag import TridiagonalForm, householder_tridiagonalize

GAUSSIAN_BRANCH_WIDTH = 1e-3   # switch of the closed form to its q -> 1 limit
DOS_THETA_NODES = 320          # Gauss-Legendre nodes per {W > 0} interval
DOS_SCAN_POINTS = 4001         # x grid on which the {W > 0} intervals are located


@dataclass(frozen=True)
class DosModel:
    p: float
    q: float

    def __post_init__(self):
        if self.p <= 0:
            raise ValueError(f"p must be positive, got {self.p}")
        if not 0 <= self.q < 1:
            raise ValueError(f"q must lie in [0, 1), got {self.q}")

    @property
    def half_width(self) -> float:
        return 2.0 * np.sqrt(self.p / (1.0 - self.q))


def eig_tridiagonal(t: TridiagonalForm, want_vectors: bool = False):
    """Eigenvalues of the tridiagonal form, or (values, vectors) with the
    eigenvectors in its own (Krylov) basis, column m for value m (LAPACK `stevd`)."""
    if not (np.isfinite(t.a).all() and np.isfinite(t.b).all()):
        raise ValueError("array must not contain infs or NaNs")
    return _openblas.stevd(t.a, t.b, want_vectors)


def eig_dense(H) -> np.ndarray:
    """Eigenvalues of a dense symmetric matrix (empirical spectra), H left as it is:
    `sytrd` on a copy, then `sterf` on the tridiagonal form, as LAPACK `syevd` runs
    for values, so the bits are syevd's."""
    return eig_tridiagonal(householder_tridiagonalize(H))


def r_statistics(values: np.ndarray, window_fraction: float = 0.5) -> float:
    """Mean consecutive-spacing ratio <r> over the central spectral window."""
    if not 0 < window_fraction <= 1:
        raise ValueError("window_fraction must lie in (0, 1]")
    v = np.sort(np.asarray(values, dtype=float))
    n = len(v)
    drop = int(round(n * (1.0 - window_fraction) / 2.0))
    w = v[drop: n - drop]
    if len(w) < 3:
        raise ValueError("need at least 3 eigenvalues inside the window")
    s = np.diff(w)
    hi = np.maximum(s[:-1], s[1:])
    lo = np.minimum(s[:-1], s[1:])
    if np.all(hi == 0):
        raise ValueError("all spacings degenerate")
    with np.errstate(invalid="ignore", divide="ignore"):
        r = np.where(hi > 0, lo / hi, 0.0)
    return float(np.mean(r))


def _interval_edges(xs, W):
    """Endpoints of the {W > 0} intervals on the grid xs (linear root refinement)."""
    pos = W > 0
    if not pos.any():
        return []
    edges = [xs[0]] if pos[0] else []
    for i in np.flatnonzero(np.diff(pos.astype(np.int8)) != 0):
        w0, w1 = W[i], W[i + 1]
        edges.append(xs[i] + (xs[i + 1] - xs[i]) * w0 / (w0 - w1))
    if pos[-1]:
        edges.append(xs[-1])
    return edges


def dos_from_lanczos(profile: np.ndarray, E_grid: np.ndarray) -> np.ndarray:
    """Quadrature of the continuum DOS integral for a coefficient profile.

    `profile` has rows (x, a, b).  Between samples, a and b^2 are interpolated
    piecewise-linearly.  Past the last sample the profile is extended to
    x = 1 by extrapolating b^2 linearly from its last two samples, clamped at
    0, with a held at its last value; below the first sample both are held.
    The extension matters because b^2 of the q-log profile vanishes linearly
    at x = 1 for every q, so the integrand carries an integrable
    1/sqrt(1 - x) tail up to x = 1 that a profile held constant past its last
    sample (x = (N-1)/N on a Lanczos grid) would cut off.  The integrable
    inverse-square-root singularities at the boundaries of {W > 0} are
    removed by the substitution x = lo + (hi - lo) sin^2(theta) on each
    interval; the interval ends and the integrand use the same extended
    profile.
    """
    profile = np.asarray(profile, dtype=float)
    if profile.size == 0:
        raise ValueError("empty profile")
    xp, ap, b2p = profile[:, 0], profile[:, 1], profile[:, 2] ** 2
    if len(xp) > 1 and xp[-1] < 1.0:   # a single row has no slope to extrapolate
        b2_end = b2p[-1] + (b2p[-1] - b2p[-2]) * (1.0 - xp[-1]) / (xp[-1] - xp[-2])
        xp, ap, b2p = (np.append(xp, 1.0), np.append(ap, ap[-1]),
                       np.append(b2p, max(b2_end, 0.0)))
    xs = np.linspace(0.0, 1.0, DOS_SCAN_POINTS)
    a_s = np.interp(xs, xp, ap)
    b2_s = np.interp(xs, xp, b2p)
    sin_sq, sin_2theta, wts = _theta_nodes()
    out = np.zeros(len(E_grid))
    for iE, E in enumerate(np.asarray(E_grid, dtype=float)):
        W = 4.0 * b2_s - (E - a_s) ** 2
        total = 0.0
        edges = _interval_edges(xs, W)
        for lo, hi in zip(edges[::2], edges[1::2]):
            x = lo + (hi - lo) * sin_sq
            Wx = 4.0 * np.interp(x, xp, b2p) - (E - np.interp(x, xp, ap)) ** 2
            good = Wx > 0
            total += float(np.sum(wts[good] * (hi - lo) * sin_2theta[good] / np.sqrt(Wx[good])))
        out[iE] = total / np.pi
    return out


@functools.cache
def _theta_nodes():
    """(sin^2 theta, sin 2 theta, weights) of the Gauss-Legendre rule on theta in
    [0, pi/2] that `dos_from_lanczos` applies to every {W > 0} interval."""
    nodes, wts = np.polynomial.legendre.leggauss(DOS_THETA_NODES)
    theta = 0.5 * (nodes + 1.0) * (np.pi / 2.0)
    out = np.sin(theta) ** 2, np.sin(2.0 * theta), wts * (np.pi / 4.0)
    for a in out:
        a.setflags(write=False)     # every call shares these arrays
    return out


def dos_closed_form(model: DosModel, E) -> np.ndarray:
    """Closed-form DOS of the q-logarithm profile; scalar or array E."""
    p, q = model.p, model.q
    E = np.asarray(E, dtype=float)
    if 1.0 - q < GAUSSIAN_BRANCH_WIDTH:
        # q -> 1 limit: Gaussian of variance 2p
        rho = np.exp(-(E**2) / (4.0 * p)) / np.sqrt(4.0 * np.pi * p)
        return rho if rho.ndim else float(rho)
    from scipy.special import gammaln
    z = model.half_width
    lognorm = (
        0.5 * np.log(1.0 / (4.0 * np.pi * p * (1.0 - q)))
        + gammaln(1.0 / (1.0 - q))
        - gammaln(0.5 + 1.0 / (1.0 - q))
    )
    core = 1.0 - E**2 * (1.0 - q) / (4.0 * p)
    expo = (1.0 + q) / (2.0 * (1.0 - q))
    with np.errstate(invalid="ignore"):
        rho = np.where(np.abs(E) <= z, np.exp(lognorm) * np.maximum(core, 0.0) ** expo, 0.0)
    return rho if rho.ndim else float(rho)


def ks_distance(model_density_on_grid: np.ndarray, E_grid: np.ndarray,
                samples: np.ndarray) -> float:
    """Kolmogorov-Smirnov distance between a gridded density and a sample."""
    rho = np.asarray(model_density_on_grid, dtype=float)
    E = np.asarray(E_grid, dtype=float)
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (rho[1:] + rho[:-1]) * np.diff(E))])
    cdf /= cdf[-1]
    emp = np.searchsorted(np.sort(samples), E, side="right") / len(samples)
    return float(np.max(np.abs(cdf - emp)))
