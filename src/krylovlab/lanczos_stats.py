"""Ansatz fits for Lanczos-coefficient profiles and related diagnostics.

The primary profile model is the q-logarithm Ansatz b(x)^2 = -p ln_q x with
ln_q x = (x^(1-q) - 1)/(1-q); q interpolates between the ergodic square-root
law (q = 0) and the localized log law (q = 1).  An alternate two-term model
p (1-x) - q ln x superposes the two limits directly.  Fits are damped
Gauss-Newton with an analytic Jacobian and a fixed starting point, so results
are bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.optimize import brentq
from scipy.special import gammaln


class FitError(RuntimeError):
    """Raised when a profile fit cannot be completed; carries the last iterate."""

    def __init__(self, message, last_iterate=None):
        super().__init__(message)
        self.last_iterate = last_iterate


class AnsatzForm(str, Enum):
    QLOG = "qlog"
    SUPERPOSITION = "superposition"


# fit sanity bounds for the q-logarithm form
QLOG_Q_RANGE = (-0.2, 1.05)


@dataclass(frozen=True)
class AnsatzFit:
    form: AnsatzForm
    p: float
    q: float
    dp: float          # variance estimate of p (Gauss-Newton covariance diagonal)
    dq: float          # variance estimate of q
    epsilon: float     # relative goodness of fit, percent
    x_min: float       # fit-domain lower cutoff
    scale: float       # pre-fit normalization applied to b^2


@dataclass(frozen=True)
class BinomialKernel:
    d: float

    def __post_init__(self):
        if self.d <= 0:
            raise ValueError(f"binomial width d must be positive, got {self.d}")


def q_log(x, q: float):
    """Tsallis q-logarithm ln_q x; continuous ln-branch for |q - 1| < 1e-8."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise ValueError("q_log requires x > 0")
    if abs(q - 1.0) < 1e-8:
        out = np.log(x)
    else:
        out = (x ** (1.0 - q) - 1.0) / (1.0 - q)
    return out if out.ndim else float(out)


def shifted_binomial(g, d: float):
    """bin(g, d) = 2^(-d) C(d, d(1/2 - g)) on the Gamma-function extension."""
    g = np.asarray(g, dtype=float)
    if np.any(np.abs(g) > 0.5):
        raise ValueError("g must lie in [-1/2, 1/2]")
    k = d * (0.5 - g)
    out = np.exp(-d * np.log(2.0) + gammaln(d + 1.0) - gammaln(k + 1.0)
                 - gammaln(d - k + 1.0))
    return out if out.ndim else float(out)


def nib(x: float, kernel: BinomialKernel) -> float:
    """Non-negative inverse of the shifted binomial: the g in [0, 1/2] with bin(g, d) = x."""
    d = kernel.d
    lo_val = shifted_binomial(0.5, d)     # = 2^(-d), minimum on the branch
    hi_val = shifted_binomial(0.0, d)     # maximum at g = 0
    if x <= 0:
        raise ValueError("nib is ill-defined at the origin")
    # the Gamma-extension endpoints carry last-ulp rounding, so admit x within
    # a relative hair of the branch range before rejecting
    rtol = 1e-9
    if not lo_val * (1.0 - rtol) <= x <= hi_val * (1.0 + rtol):
        raise ValueError(f"x = {x} outside the range [{lo_val:.3g}, {hi_val:.3g}] of bin(., {d})")
    if x >= hi_val:
        return 0.0
    if x <= lo_val:
        return 0.5
    return float(brentq(lambda g: shifted_binomial(g, d) - x, 0.0, 0.5, xtol=1e-14))


def nib_asymptotic(x: float, d: float) -> float:
    """Large-d entropic approximation g ~ sqrt(-ln x / (2 d))."""
    return float(np.sqrt(-np.log(x) / (2.0 * d)))


def _qlog_jacobian(x, p, q):
    lx = np.log(x)
    dm_dp = -q_log(x, q)
    if abs(q - 1.0) < 1e-8:
        dm_dq = p * 0.5 * lx**2
    else:
        t = x ** (1.0 - q)
        dm_dq = p * ((1.0 - q) * t * lx + 1.0 - t) / (1.0 - q) ** 2
    return np.column_stack([dm_dp, dm_dq])


def _gauss_newton(x, y, model, jacobian, theta0, itmax=200):
    """Damped (Levenberg) Gauss-Newton; returns (theta, covariance, cost)."""
    theta = np.asarray(theta0, dtype=float)
    r = y - model(x, *theta)
    cost = float(r @ r)
    lam = 1e-3
    for _ in range(itmax):
        J = jacobian(x, *theta)
        g = J.T @ r
        JTJ = J.T @ J
        moved = False
        for _ in range(60):
            damp = JTJ + lam * np.diag(np.maximum(np.diag(JTJ), 1e-30))
            try:
                step = np.linalg.solve(damp, g)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            cand = theta + step
            with np.errstate(over="ignore", invalid="ignore"):
                rc = y - model(x, *cand)
                cc = float(rc @ rc) if np.all(np.isfinite(rc)) else np.inf
            if cc < cost:
                theta, r, cost = cand, rc, cc
                lam = max(lam / 3.0, 1e-14)
                moved = True
                break
            lam *= 10.0
        if not moved:
            break
        if np.linalg.norm(step) < 1e-13 * (np.linalg.norm(theta) + 1e-30):
            break
    J = jacobian(x, *theta)
    JTJ = J.T @ J
    try:
        cov = np.linalg.inv(JTJ)
    except np.linalg.LinAlgError as err:
        raise FitError(f"singular Jacobian at the optimum: {err}", tuple(theta)) from err
    dof = max(len(np.atleast_1d(y)) - len(theta), 1)
    cov = cov * (cost / dof)
    return theta, cov, cost


def fit_ansatz(profile: np.ndarray, form: AnsatzForm = AnsatzForm.QLOG) -> AnsatzFit:
    """Nonlinear least squares of b(x)^2 against the chosen Ansatz.

    `profile` holds rows (x, b) over the full coefficient range; points below
    x_min = 8 times the smallest profile x are excluded from the fit.  The
    fitted curve is normalized by its own value at the smallest profile x
    (stored in `scale`), which puts the reported amplitude on the (0, 1]
    scale of the paper-style plots while staying insensitive to the first
    few coefficients.  Data that already
    lies in the unit band is left alone (scale = 1), so amplitudes of
    pre-scaled or synthetic profiles are reported as-is.
    """
    profile = np.asarray(profile, dtype=float)
    if profile.ndim != 2 or profile.shape[1] != 2:
        raise ValueError("profile must be an array of (x, b) rows")
    x_all, b_all = profile[:, 0], profile[:, 1]
    if np.any(~np.isfinite(b_all)):
        raise ValueError("profile contains non-finite b values")
    x_anchor = float(np.min(x_all))
    x_min = 8.0 * x_anchor
    keep = x_all >= x_min
    if np.count_nonzero(keep) < 10:
        raise ValueError("need at least 10 profile points above x_min")
    x = x_all[keep]
    y = b_all[keep] ** 2
    form = AnsatzForm(form)

    if form is AnsatzForm.QLOG:
        model = lambda xx, p, q: -p * q_log(xx, q)
        theta, cov, cost = _gauss_newton(x, y, model, _qlog_jacobian, (1.0, 0.5))
        P, Q = float(theta[0]), float(theta[1])
        varP, varQ = float(cov[0, 0]), float(cov[1, 1])
        scale = -P * q_log(x_anchor, Q)
    else:
        model = lambda xx, p, q: p * (1.0 - xx) - q * np.log(xx)
        jac = lambda xx, p, q: np.column_stack([1.0 - xx, -np.log(xx)])
        theta, cov, cost = _gauss_newton(x, y, model, jac, (1.0, 0.5))
        P, Q = float(theta[0]), float(theta[1])
        varP, varQ = float(cov[0, 0]), float(cov[1, 1])
        scale = P * (1.0 - x_anchor) - Q * np.log(x_anchor)

    if not np.isfinite(scale) or scale <= 0:
        raise FitError(f"non-positive fitted scale {scale}", (P, Q))
    # raw coefficient profiles have anchor values ~N; data already in the
    # unit band needs no normalization, so never scale up
    scale = float(scale) if scale > 1.0 else 1.0
    p_hat = P / scale
    dp_hat = varP / scale**2
    if form is AnsatzForm.SUPERPOSITION:
        # both terms of the linear form are amplitudes; normalize q like p
        Q = Q / scale
        varQ = varQ / scale**2
    dq_hat = varQ
    if form is AnsatzForm.QLOG:
        if not (QLOG_Q_RANGE[0] <= Q <= QLOG_Q_RANGE[1]) or p_hat <= 0:
            raise FitError(f"fit outside sanity bounds: p={p_hat:.4g}, q={Q:.4g}", (p_hat, Q))
    eps = _epsilon(p_hat, Q, dp_hat, dq_hat)
    return AnsatzFit(form, p_hat, float(Q), dp_hat, dq_hat, eps,
                     float(x_min), float(scale))


def _epsilon(p: float, q: float, dp: float, dq: float) -> float:
    denom = max(p - 1.0, q - 1.0) + 1.0
    if denom <= 0:
        raise ValueError(f"out-of-regime fit: epsilon denominator {denom} <= 0")
    return float(np.sqrt(dp + dq) * 100.0 / denom)


def xi_from_maximum(profile: np.ndarray, fit: AnsatzFit) -> float:
    """Calibrate xi of the localized log-law at the profile maximum.

    With the scaled profile peaking at x*, b_scaled(x*)^2 = -(xi^2/2) ln x*
    gives xi = b_scaled(x*) sqrt(2 / (-ln x*)).
    """
    profile = np.asarray(profile, dtype=float)
    x_all, b_all = profile[:, 0], profile[:, 1]
    keep = x_all >= fit.x_min
    x, b = x_all[keep], b_all[keep]
    i = int(np.argmax(b))
    x_star, b_star = x[i], b[i] / np.sqrt(fit.scale)
    if x_star >= 1.0:
        raise ValueError("profile maximum sits at x = 1; xi undefined")
    return float(b_star * np.sqrt(2.0 / (-np.log(x_star))))


def log_variance(b: np.ndarray) -> float:
    """SM-style pairwise log-ratio variance of the off-diagonals b:
    Var_j ln(b_{2j-1} / b_{2j})."""
    b = np.asarray(b, dtype=float)
    if np.any(b <= 0):
        raise ValueError("log_variance requires strictly positive b")
    odd = b[0::2]
    even = b[1::2]
    m = min(len(odd), len(even))
    if m < 2:
        raise ValueError("need at least two coefficient pairs")
    ratios = np.log(odd[:m] / even[:m])
    return float(np.var(ratios, ddof=1))


def fit_logvar_powerlaw(points: np.ndarray, N: int) -> dict:
    """Per-phase power-law fit sigma_b(gamma) = a gamma^n + c.

    Returns {"fractal": (a, n, c), "localized": (a, n, c)} for the regions
    gamma in (1, 2] and gamma > 2.  Every region the input touches needs
    >= 5 points; regions with no points at all are simply omitted (a sweep
    may cover a single phase).  Ergodic points gamma <= 1 are ignored.
    """
    pts = np.asarray(points, dtype=float)
    g, s = pts[:, 0], pts[:, 1]
    out = {}
    for name, mask in (("fractal", (g > 1.0) & (g <= 2.0)), ("localized", g > 2.0)):
        hits = np.count_nonzero(mask)
        if hits == 0:
            continue
        if hits < 5:
            raise ValueError(f"need >= 5 points in the {name} region, got {hits}")
        gg, ss = g[mask], s[mask]

        def model(xx, a, n, c):
            return a * xx**n + c

        def jac(xx, a, n, c):
            xn = xx**n
            return np.column_stack([xn, a * xn * np.log(xx), np.ones_like(xx)])

        a0 = max(ss.max() - ss.min(), 1e-4)
        theta, cov, cost = _gauss_newton(gg, ss, model, jac, (a0, 2.0, max(ss.min(), 1e-5)),
                                         itmax=400)
        out[name] = tuple(float(v) for v in theta)
    if not out:
        raise ValueError("no points in the fractal or localized regions")
    return out
