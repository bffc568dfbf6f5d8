"""Seeded generation of Rosenzweig-Porter and heteroskedastic Gaussian matrices.

The RP Hamiltonian is H = A + N^(-gamma/2) B with A a diagonal Gaussian matrix
and B a GOE matrix.  Three normalization conventions are exposed because
different observables are defined at different overall scales: `paper-main`
(A_ii ~ N(0,1); B diagonal variance 1, off-diagonal 1/2), `unit-bandwidth`
(same structure with every variance divided by N), and `sm5` (a direct
heteroskedastic draw with diagonal variance 1/(2N) and off-diagonal variance
1/(4 N^(gamma+1))).
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


@dataclass(frozen=True)
class DenseSymmetric:
    """A symmetric matrix realization plus the config that produced it."""

    entries: np.ndarray
    meta: EnsembleConfig | None = None

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def __post_init__(self):
        m = self.entries
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("entries must be a square matrix")
        if not np.array_equal(m, m.T):
            raise ValueError("entries must be exactly symmetric")


def _built_symmetric(entries, meta) -> DenseSymmetric:
    """DenseSymmetric of a matrix symmetric by construction, skipping the O(N^2) check."""
    mat = object.__new__(DenseSymmetric)
    object.__setattr__(mat, "entries", entries)
    object.__setattr__(mat, "meta", meta)
    return mat


def _symmetric_gaussian(N, diag_sigma, off_sigma, rng):
    """Symmetric matrix with N(0, diag_sigma^2) diagonal, N(0, off_sigma^2) off-diagonal."""
    raw = rng.standard_normal((N, N))
    diagonal = raw.diagonal() * diag_sigma
    upper = np.triu(raw, k=1)
    del raw             # free the draw before the sum allocates another N x N array
    upper *= off_sigma
    H = upper + upper.T
    np.fill_diagonal(H, diagonal)
    return H


def generate_rp(cfg: EnsembleConfig) -> DenseSymmetric:
    """Draw one RP realization under the configured normalization convention."""
    N, gamma = cfg.N, cfg.gamma
    rng = np.random.default_rng(np.random.SeedSequence(int(cfg.seed)))
    norm = Normalization(cfg.normalization)
    if norm is Normalization.SM5:
        alpha = 1.0 / (2.0 * N)
        beta = 1.0 / (4.0 * N ** (gamma + 1.0))
        return _built_symmetric(_symmetric_gaussian(N, np.sqrt(alpha), np.sqrt(beta), rng), cfg)
    scale = 1.0 if norm is Normalization.PAPER_MAIN else 1.0 / np.sqrt(N)
    # suppression factor applied to B; guard the gamma -> infinity limit against underflow
    with np.errstate(under="ignore"):
        supp = float(N) ** (-gamma / 2.0)
    a_diag = rng.standard_normal(N) * scale
    H = _symmetric_gaussian(N, scale, scale / np.sqrt(2.0), rng)
    H *= supp
    H[np.diag_indices(N)] += a_diag
    return _built_symmetric(H, cfg)


def generate_heteroskedastic(N: int, alpha: float, beta: float, seed: int) -> DenseSymmetric:
    """Symmetric Gaussian matrix with <H_ij^2> = alpha on the diagonal, beta off it."""
    if N < 2:
        raise ValueError(f"matrix dimension must be >= 2, got {N}")
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if beta < 0:
        raise ValueError(f"beta must be non-negative, got {beta}")
    rng = np.random.default_rng(np.random.SeedSequence(int(seed)))
    return _built_symmetric(_symmetric_gaussian(N, np.sqrt(alpha), np.sqrt(beta), rng), None)


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
