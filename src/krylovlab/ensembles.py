"""Seeded generation of Rosenzweig-Porter and heteroskedastic Gaussian matrices.

The RP Hamiltonian is H = A + N^(-gamma/2) B with A a diagonal Gaussian matrix
and B a GOE matrix.  Three normalization conventions are exposed because
different observables are defined at different overall scales: `paper-main`
(A_ii ~ N(0,1); B diagonal variance 1, off-diagonal 1/2), `unit-bandwidth`
(same structure with every variance divided by N), and `sm5` (a direct
heteroskedastic draw with diagonal variance 1/(2N) and off-diagonal variance
1/(4 N^(gamma+1))).  Every generator returns a plain float64 ndarray that is
exactly symmetric by construction; `heteroskedastic_equiv` gives the entry
variances (alpha, beta) of each convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np


class Normalization(str, Enum):
    PAPER_MAIN = "paper-main"
    UNIT_BANDWIDTH = "unit-bandwidth"
    SM5 = "sm5"


@dataclass(frozen=True)
class EnsembleConfig:
    N: int
    gamma: float
    normalization: Normalization = Normalization.PAPER_MAIN
    seed: int = 0

    def __post_init__(self):
        if self.N < 2:
            raise ValueError(f"matrix dimension must be >= 2, got {self.N}")
        if not np.isfinite(self.gamma) or self.gamma < 0:
            raise ValueError(f"gamma must be finite and >= 0, got {self.gamma}")
        if not (0 <= int(self.seed) < 2**64):
            raise ValueError("seed must fit in 64 unsigned bits")


MIRROR_TILE = 128       # side of the blocks the upper triangle is mirrored in


def _symmetric_gaussian(N, diag_sigma, off_sigma, rng):
    """Symmetric matrix with N(0, diag_sigma^2) diagonal, N(0, off_sigma^2) off-diagonal.

    The draw is scaled in place and its upper triangle U mirrored onto the
    lower one in MIRROR_TILE-square tiles, so no N x N temporary is made and
    each transposed copy stays in cache.  The bits are those of the sum
    triu(U) + triu(U).T: a diagonal tile is that sum, and an off-diagonal tile
    is U + 0.0 (which turns -0.0 into +0.0), copied transposed.  A matrix of
    one tile is the sum outright, which saves copying it back.
    """
    H = rng.standard_normal((N, N))
    diagonal = H.diagonal() * diag_sigma
    H *= off_sigma
    for i in range(0, N, MIRROR_TILE):
        rows = slice(i, i + MIRROR_TILE)
        upper = np.triu(H[rows, rows], k=1)
        if N <= MIRROR_TILE:
            H = upper + upper.T
            break
        H[rows, rows] = upper + upper.T
        for j in range(i + MIRROR_TILE, N, MIRROR_TILE):
            cols = slice(j, j + MIRROR_TILE)
            np.add(H[rows, cols], 0.0, out=H[rows, cols])
            H[cols, rows] = H[rows, cols].T
    np.fill_diagonal(H, diagonal)
    return H


def heteroskedastic_equiv(N: int, gamma: float, normalization) -> tuple:
    """Entry variances (alpha, beta) matching the chosen ensemble convention."""
    norm = Normalization(normalization)
    if norm is Normalization.SM5:
        try:
            beta = 1.0 / (4.0 * float(N) ** (gamma + 1.0))
        except OverflowError:       # N^(gamma+1) beyond float range: beta underflows to 0
            beta = 0.0
        return 1.0 / (2.0 * N), beta
    with np.errstate(under="ignore"):
        supp2 = float(N) ** (-float(gamma))
    alpha, beta = 1.0 + supp2, supp2 / 2.0
    if norm is Normalization.UNIT_BANDWIDTH:
        alpha, beta = alpha / N, beta / N
    return alpha, beta


def generate_rp(cfg: EnsembleConfig) -> np.ndarray:
    """Draw one RP realization under the configured normalization convention."""
    N, gamma = cfg.N, cfg.gamma
    norm = Normalization(cfg.normalization)
    if norm is Normalization.SM5:
        return generate_heteroskedastic(N, *heteroskedastic_equiv(N, gamma, norm), cfg.seed)
    rng = np.random.default_rng(np.random.SeedSequence(int(cfg.seed)))
    scale = 1.0 if norm is Normalization.PAPER_MAIN else 1.0 / np.sqrt(N)
    # suppression factor applied to B; guard the gamma -> infinity limit against underflow
    with np.errstate(under="ignore"):
        supp = float(N) ** (-gamma / 2.0)
    a_diag = rng.standard_normal(N) * scale
    H = _symmetric_gaussian(N, scale, scale / np.sqrt(2.0), rng)
    H *= supp
    H[np.diag_indices(N)] += a_diag
    return H


def generate_heteroskedastic(N: int, alpha: float, beta: float, seed: int) -> np.ndarray:
    """Symmetric Gaussian matrix with <H_ij^2> = alpha on the diagonal, beta off it."""
    if N < 2:
        raise ValueError(f"matrix dimension must be >= 2, got {N}")
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if beta < 0:
        raise ValueError(f"beta must be non-negative, got {beta}")
    rng = np.random.default_rng(np.random.SeedSequence(int(seed)))
    return _symmetric_gaussian(N, np.sqrt(alpha), np.sqrt(beta), rng)


def realization_seeds(base_seed: int, count: int, *tags: int) -> np.ndarray:
    """Derive `count` independent 64-bit seeds from (base_seed, *tags).

    The derivation is a pure function of its arguments, so a cell's matrices
    depend only on the manifest, never on the order or place they are drawn in.
    """
    ss = np.random.SeedSequence([int(base_seed), *[int(t) for t in tags]])
    return ss.generate_state(count, np.uint64)


def tag_from_gamma(gamma: float) -> int:
    """Stable integer tag for a gamma value (3 decimal places)."""
    return int(round(float(gamma) * 1000.0))
