"""Seeded experiment sweeps over (gamma, N) grids with resumable file output.

`EXPERIMENTS` has one row per experiment: its CLI help, its cell ((gamma, N)
-> CSV rows and a JSON summary), its aggregate-table header, and an optional
post-fit on plain arrays read from the finished grid's summaries (D2 for ipr,
the per-phase power laws for logvar).

Every sweep is fully determined by its RunManifest: per-realization seeds are
derived from (seed, gamma-tag, N), realizations are aggregated in index order,
and floats are written at fixed precision, so two runs of the same manifest
produce byte-identical tables.  A cell's realizations run one after another on
the calling thread: scipy's f2py LAPACK wrappers hold the GIL, so threads would
only fight over one OpenBLAS pool.  Dense kernels and products go through
`scipy.linalg`, so that one pool serves them all; numpy bundles a second pool
that fights the first for the cores: with numpy's `H @ Q` in the ipr check the
krylov-chain sweeps took 0.73-0.81 s, with scipy's `dgemm` 0.57-0.64 s (2 CPUs).

OpenBLAS's thread count changes LAPACK's output bits, so `_per_realization`,
which every cell goes through, sets scipy's count around the realizations:
1 thread for N <= SERIAL_BLAS_MAX_N, else PARALLEL_BLAS_THREADS, then the old
count again.  A cell's bytes depend neither on the host's core count and
OPENBLAS_NUM_THREADS nor on its caller (`run` or a test); the tridiagonal
eigenvalues and small fits after the map gave equal bits at counts 1-4.  Each
dense kernel gave the same bits at 1 and 2 threads for each N up to 144 and
other bits at 145, so below the cut one thread moves no bit; it halves the
CPU time of small sytrd/syevd calls, which a second thread spends busy-waiting,
and avoids a stall in which every such call took 8 ms instead of 0.2-0.5 ms.
Above the cut 2 threads keep large reductions fast.  The manifest's unhashed
`environment` records the rule, OpenBLAS's build and kernel names (another
CPU's kernels give other bits), the Python, numpy and scipy versions, the CPU
count and thread variables, or why the cells run unpinned (no scipy OpenBLAS),
and the wall seconds of the last call to `run` that computed a cell (a resume
with every cell done keeps them).

Importing this module loads no `scipy.linalg` or `scipy.special` (most of the
package's import time): the kernels import them on first use, and `scipy` loads
when a run first looks for its OpenBLAS, so `verify` and a resume with every cell
done load neither.

A cell draws all its realizations into one N x N buffer, an anonymous `mmap`
that lives outside malloc's heap and is unmapped when the cell ends, and the
maps that discard their matrix reduce it in place and take its Frobenius norm
without an N x N temporary.  Fresh N x N arrays would come from glibc's heap,
which splits the freed 8 MiB blocks of N = 1024 matrices for small requests, so
each new matrix raised a sweep's peak RSS; a heap buffer per cell still did.
"""

from __future__ import annotations

import ctypes
import functools
import mmap
import numbers
import os
import platform
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__, runio
from .ensembles import (EnsembleConfig, Normalization, generate_rp, heteroskedastic_equiv,
                        realization_seeds, tag_from_gamma)
from .krylov_dynamics import (build_tfd_krylov, build_time_grid, peak_fields, plateau_drift,
                              propagate, smoothed_peak_flag)
from .krylov_ipr import KRule, fit_d2, krylov_ipr, pick_k
from .lanczos_stats import AnsatzForm, FitError, fit_ansatz, fit_logvar_powerlaw, log_variance
from .sm5_oracle import predict_lanczos_profile
from .spectral import (DosModel, dos_closed_form, dos_from_lanczos, eig_dense, eig_tridiagonal,
                       ks_distance, r_statistics)
from .tridiag import TridiagonalForm, householder_tridiagonalize, lanczos_dimension

MAX_N = 8192
MAX_WORK = 1e14
SERIAL_BLAS_MAX_N = 144         # largest N whose bits were equal at 1 and 2 threads
PARALLEL_BLAS_THREADS = 2
SQUARES_PER_PASS = 16384        # elements `_sum_of_squares` squares at a time


def _typed(value, kind, what: str):
    """`value` as a plain int, float, bool or str if it is a `kind`, numpy scalars included;
    a bool is no number, so a bool, a string or a float count is refused, not cast."""
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        raise ValueError(f"{what} must be {kind.__name__.lower()}, not {value!r}")
    return {numbers.Integral: int, numbers.Real: float}.get(kind, kind)(value)


@dataclass(frozen=True)
class RunManifest:
    experiment: str
    gamma_grid: tuple
    N_grid: tuple
    realizations: int = 10
    seed: int = 0
    normalization: str = Normalization.PAPER_MAIN.value
    output_dir: str = "runs"
    beta: float = 0.0               # spread: TFD inverse temperature
    allow_large: bool = False

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}; pick from {tuple(EXPERIMENTS)}")
        for name, kind in (("realizations", numbers.Integral), ("seed", numbers.Integral),
                           ("beta", numbers.Real), ("allow_large", bool), ("output_dir", str)):
            object.__setattr__(self, name, _typed(getattr(self, name), kind, name))
        for grid, kind in (("gamma_grid", numbers.Real), ("N_grid", numbers.Integral)):
            object.__setattr__(self, grid, tuple(_typed(v, kind, grid) for v in getattr(self, grid)))
        if not self.gamma_grid or not self.N_grid:
            raise ValueError("gamma_grid and N_grid must be non-empty")
        if not all(0 <= g < np.inf for g in self.gamma_grid):
            raise ValueError("gamma values must be finite and non-negative")
        tags = [tag_from_gamma(g) for g in self.gamma_grid]
        shared = [g for g, tag in zip(self.gamma_grid, tags) if tags.count(tag) > 1]
        if shared:      # the tag names a cell's files and seeds its realizations
            raise ValueError(f"gamma values {shared} agree to 3 decimals and would share cells")
        if any(n < 2 for n in self.N_grid):
            raise ValueError("matrix sizes must be >= 2")
        repeated = sorted({n for n in self.N_grid if self.N_grid.count(n) > 1})
        if repeated:    # N, like the tag, names a cell's files and seeds its realizations
            raise ValueError(f"matrix sizes {repeated} repeat and would share cells")
        if self.realizations < 1:
            raise ValueError("realizations must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 bits")
        Normalization(self.normalization)
        # beta is a provenance key: a beta the numbers ignore would only void finished cells
        if self.experiment == "spread" and not 0 <= self.beta < np.inf:
            raise ValueError("beta must be finite and non-negative")
        if self.experiment != "spread" and self.beta != 0:
            raise ValueError("beta applies to spread only")
        n_max = max(self.N_grid)
        work = self.realizations * float(n_max) ** 3
        if n_max > MAX_N and not self.allow_large:
            raise ValueError(
                f"N = {n_max} exceeds the desk-scale limit {MAX_N}; pass the override flag")
        if work > MAX_WORK and not self.allow_large:
            raise ValueError(
                f"realizations x N^3 = {work:.3g} exceeds {MAX_WORK:.0g}; pass the override flag")

    def to_dict(self) -> dict:     # the grids stay tuples; JSON writes them as lists
        return {**asdict(self), "version": __version__}


# ---------------------------------------------------------------------------
# per-realization maps H -> observables

def _sum_of_squares(H) -> float:
    """np.sum(H * H) to the bit, without its temporary the size of H.  numpy sums a
    contiguous array pairwise, splitting n elements at n // 2 less n // 2 % 8, so
    this walks that split and squares and sums each subtree of at most
    SQUARES_PER_PASS elements in one call."""
    def pairwise(v):
        if len(v) <= SQUARES_PER_PASS:
            return np.add.reduce(v * v)
        n2 = len(v) // 2
        n2 -= n2 % 8
        return pairwise(v[:n2]) + pairwise(v[n2:])
    return float(pairwise(H.ravel(order="K")))      # np.sum(H * H) sums in memory order


def _w_profile(H):
    """(a, b, max of the relative trace and Frobenius invariant residuals); H's
    invariants are taken before the reduction, which overwrites H."""
    tr = float(np.trace(H))
    fro2 = _sum_of_squares(H)
    t = householder_tridiagonalize(H, overwrite=True)
    res_tr = abs(t.a.sum() - tr) / (abs(tr) + 1.0)
    res_fro = abs(np.sum(t.a**2) + 2.0 * np.sum(t.b**2) - fro2) / (fro2 + 1.0)
    return t.a, t.b, max(res_tr, res_fro)


def _w_rstat(H):
    return r_statistics(eig_dense(H))


def _krylov_residual(H, t, cols, Q, ks, norm):
    """Max of the Gram residual |Q^T Q - I| of the Krylov columns `cols` (Q's columns)
    and, at each k in ks, ||H q_k - b_{k-1} q_{k-1} - a_k q_k - b_k q_{k+1}|| / norm with
    norm = ||H||_F, a neighbour outside `cols` counting as zero."""
    from scipy.linalg.blas import dgemm, dnrm2
    q = dict(zip(cols, Q.T))
    b = np.append(t.b, 0.0)         # b[-1] = b[N-1] = 0 close the chain at both ends
    # H^T = H is H in Fortran order, so BLAS takes it without a copy
    HQ = dgemm(1.0, H.T, np.column_stack([q[k] for k in ks]))
    relation = max(dnrm2(HQ[:, j] - b[k - 1] * q.get(k - 1, 0.0) - t.a[k] * q[k]
                          - b[k] * q.get(k + 1, 0.0)) for j, k in enumerate(ks))
    gram = np.max(np.abs(dgemm(1.0, Q, Q, trans_a=1) - np.eye(len(cols))))
    return max(float(gram), float(relation) / norm)


def _w_ipr(H):
    t = householder_tridiagonalize(H)     # not in place: the residual check reads H
    # keep the e1 Krylov vectors the Lanczos recursion would have produced;
    # ||H||_F^2 = sum a^2 + 2 sum b^2 is invariant under the reduction
    norm = np.sqrt(np.sum(t.a**2) + 2.0 * np.sum(t.b**2))
    dim = lanczos_dimension(t.b, norm)
    ks = [pick_k(dim, rule) for rule in KRule]
    # the columns the IPRs read and their neighbours in the truncated chain
    cols = sorted({n for k in ks for n in (k - 1, k, k + 1) if 0 <= n < dim})
    Q = t.columns(cols)
    return (*(krylov_ipr(Q, cols.index(k), 2) for k in ks), dim,
            _krylov_residual(H, t, cols, Q, ks, norm))


def _w_logvar(H):
    return log_variance(householder_tridiagonalize(H, overwrite=True).b)


def _per_realization(manifest: RunManifest, gamma: float, N: int, fn):
    """fn(H) over the cell's seeded realizations H, in order, at the BLAS threads of N.
    Every H is drawn into one mmap-backed buffer, so fn may overwrite H but must not
    keep it, or a view of it: the next realization is drawn over it."""
    seeds = realization_seeds(manifest.seed, manifest.realizations, tag_from_gamma(gamma), N)
    buffer = np.frombuffer(mmap.mmap(-1, N * N * 8), dtype=np.float64).reshape(N, N)
    with _blas_threads(N):
        return [fn(generate_rp(EnsembleConfig(N, gamma, manifest.normalization, int(seed)),
                               out=buffer))
                for seed in seeds]


def _stderr(samples: np.ndarray):
    """Standard error of the mean over realizations (axis 0); zero for one realization."""
    if len(samples) < 2:
        return np.zeros(samples.shape[1:])
    return samples.std(axis=0, ddof=1) / np.sqrt(len(samples))


# ---------------------------------------------------------------------------
# cells

def _profile_stats(out, N: int):
    A, B, res = (np.stack(v) for v in zip(*out))
    return np.arange(1, N) / N, A.mean(axis=0)[: N - 1], B.mean(axis=0), _stderr(B), res.max()


def mean_profile_cell(manifest: RunManifest, gamma: float, N: int):
    """Ensemble-mean Householder profile: (x, mean_a, mean_b, stderr_b, residual)."""
    return _profile_stats(_per_realization(manifest, gamma, N, _w_profile), N)


def _identity_check(residual) -> dict:      # the trace and Frobenius identities of a cell
    return {"tridiag_identity_residual": {"value": residual, "tol": 1e-8}}


def _cell_profile(manifest, gamma, N):
    x, mean_a, mean_b, stderr_b, res = mean_profile_cell(manifest, gamma, N)
    imax = int(np.argmax(mean_b))
    summary = {
        "aggregate": [[gamma, N, manifest.realizations, float(mean_b[imax]), float(x[imax])]],
        "checks": _identity_check(res),
    }
    return ["x", "mean_a", "mean_b", "stderr_b"], list(zip(x, mean_a, mean_b, stderr_b)), summary


def _cell_fit(manifest, gamma, N):
    """The profile cell's table and check, with the Ansatz fits as its aggregate."""
    header, rows, summary = _cell_profile(manifest, gamma, N)
    prof = np.array(rows)[:, [0, 2]]        # x, mean_b
    fits = {form: fit_ansatz(prof, form) for form in (AnsatzForm.QLOG, AnsatzForm.SUPERPOSITION)}
    summary["aggregate"] = [[gamma, N, f.p, f.q, f.dp, f.dq, f.epsilon, form.value]
                            for form, f in fits.items()]
    return header, rows, summary


def _cell_rstat(manifest, gamma, N):
    rs = np.array(_per_realization(manifest, gamma, N, _w_rstat))
    rescaled = (gamma - 2.0) * np.log(N)
    summary = {"aggregate": [[gamma, N, float(rs.mean()), float(_stderr(rs)), float(rescaled)]]}
    return ["realization", "r"], [(i, v) for i, v in enumerate(rs)], summary


def _cell_dos(manifest, gamma, N):
    out = _per_realization(manifest, gamma, N, _w_profile)
    pooled = np.sort(np.concatenate(
        [eig_tridiagonal(TridiagonalForm(a, b)) for a, b, _ in out]))
    x, mean_a, mean_b, _, identity_res = _profile_stats(out, N)

    fit = fit_ansatz(np.column_stack([x, mean_b]), AnsatzForm.QLOG)
    p_raw = fit.p * fit.scale
    # the closed form lives on 0 <= q < 1; clamp small ergodic undershoots to the
    # semicircle end and localized overshoots into the log-limit branch
    q_eff = float(np.clip(fit.q, 0.0, 1.0 - 5e-4))
    model = DosModel(p_raw, q_eff)

    span = pooled[-1] - pooled[0]
    E = np.linspace(pooled[0] - 0.02 * span, pooled[-1] + 0.02 * span, 401)
    profile = np.column_stack([x, mean_a, mean_b])
    rho_quad = dos_from_lanczos(profile, E)
    rho_closed = dos_closed_form(model, E)
    ks_quad = ks_distance(rho_quad, E, pooled)
    ks_closed = ks_distance(rho_closed, E, pooled)
    norm_quad = float(np.trapezoid(rho_quad, E))
    summary = {
        "aggregate": [[gamma, N, p_raw, fit.q, ks_quad, ks_closed]],
        "checks": {"dos_norm_deviation": {"value": norm_quad - 1.0, "tol": 0.02},
                   **_identity_check(identity_res)},
    }
    return ["E", "rho_quadrature", "rho_closed"], list(zip(E, rho_quad, rho_closed)), summary


def _cell_spread(manifest, gamma, N):
    times = None

    def realize(H):
        """(K_S(t), unitarity residual) of H's TFD chain; realization 0's b_1 fixes
        the time grid that every other realization shares."""
        nonlocal times
        t = build_tfd_krylov(H, manifest.beta)
        if times is None:
            times = build_time_grid(t.b[0], N)
        return propagate(t, times)

    out = _per_realization(manifest, gamma, N, realize)
    KS = np.stack([ks for ks, _ in out])
    unit_dev = max(u for _, u in out)
    ks_mean = KS.mean(axis=0)
    stderr = _stderr(KS)
    # a curve that has not saturated, or a non-unitary evolution, is written and
    # fails its plateau_drift or unitarity_residual check
    has_peak, peak_value, peak_time, plateau = peak_fields(times, ks_mean)
    fraction = float(np.mean([smoothed_peak_flag(times, row) for row in KS]))
    summary = {
        "aggregate": [[gamma, N, peak_value, peak_time, plateau, int(has_peak), fraction]],
        "checks": {"plateau_drift": {"value": plateau_drift(times, ks_mean), "tol": 0.01},
                   "unitarity_residual": {"value": unit_dev, "tol": 1e-9}},
    }
    return ["t", "Ks_mean", "Ks_stderr"], list(zip(times, ks_mean, stderr)), summary


def _cell_ipr(manifest, gamma, N):
    out = _per_realization(manifest, gamma, N, _w_ipr)
    *iprs, dims, res = map(np.array, zip(*out))     # iprs: one array per KRule
    truncated = int(np.count_nonzero(dims != N))
    summary = {
        "aggregate": [[gamma, N, pick_k(N, rule), 2, float(v.mean()), float(_stderr(v))]
                      for rule, v in zip(KRule, iprs)],
        "checks": {"lanczos_truncations": {"value": truncated, "tol": 0},
                   "krylov_residual": {"value": float(res.max()), "tol": 1e-10}},
    }
    header = ["realization", *(f"ipr_{rule.value}" for rule in KRule)]
    return header, [(i, *row) for i, row in enumerate(zip(*iprs))], summary


def _cell_logvar(manifest, gamma, N):
    sig = np.array(_per_realization(manifest, gamma, N, _w_logvar))
    summary = {"aggregate": [[gamma, N, float(sig.mean()), float(_stderr(sig))]]}
    return ["realization", "sigma_b"], [(i, v) for i, v in enumerate(sig)], summary


def _cell_sm5(manifest, gamma, N):
    _, _, mean_b, _, identity_res = mean_profile_cell(manifest, gamma, N)
    alpha, beta = heteroskedastic_equiv(N, gamma, manifest.normalization)
    pred = predict_lanczos_profile(N, alpha, beta)      # rows (x, 0, b) for n = 1..N-2
    x = pred[:, 0]
    b_pred = pred[:, 2]
    b_emp = mean_b[: N - 2]
    vanishing = np.flatnonzero(b_emp == 0) + 1
    if vanishing.size:      # a diagonal draw, its off-diagonal variance underflowed to 0
        raise ValueError(f"empirical b_n vanishes at {vanishing.size} of n = 1..{N - 2} "
                         f"(first n = {vanishing[0]}), so its relative error is undefined")
    rel = np.abs(b_pred - b_emp) / np.abs(b_emp)
    mid = (x >= 0.1) & (x <= 0.9)
    summary = {
        "aggregate": [[gamma, N, float(rel[mid].max()), float(rel[mid].mean())]],
        "checks": _identity_check(identity_res),
    }
    rows = list(zip(x, b_pred, b_emp, rel))
    return ["x", "b_predicted", "b_empirical", "rel_error"], rows, summary


def _post_ipr(manifest: RunManifest, summaries: dict, out_dir: Path):
    """Regress D2 per gamma and k rule whenever the sweep covers >= 3 sizes."""
    if len(manifest.N_grid) < 3:
        return
    rows = []
    for gamma in manifest.gamma_grid:
        # an ipr cell's aggregate holds one row per KRule, in KRule's order
        for i, rule in enumerate(KRule):
            ipr = [summaries[(gamma, N)]["aggregate"][i][4] for N in manifest.N_grid]
            rows.append([gamma, rule.value, *fit_d2(manifest.N_grid, ipr)])
    runio.write_csv(Path(out_dir) / "d2.csv", ["gamma", "k_rule", "D2", "stderr"], rows)


def _post_logvar(manifest: RunManifest, summaries: dict, out_dir: Path):
    """Per-phase power-law fits per N; written when some phase holds >= 5 gamma points."""
    rows = []
    for N in manifest.N_grid:
        points = np.array([[gamma, summaries[(gamma, N)]["aggregate"][0][2]]
                           for gamma in manifest.gamma_grid])
        rows += [[N, phase, *fit] for phase, fit in fit_logvar_powerlaw(points).items()]
    if rows:
        runio.write_csv(Path(out_dir) / "logvar_powerlaw.csv", ["N", "phase", "a", "n", "c"], rows)


class Experiment(NamedTuple):
    help: str
    cell: Callable          # (manifest, gamma, N) -> (header, rows, summary)
    header: list            # columns of aggregate.csv, one row per summary "aggregate" entry
    post: Callable | None = None    # (manifest, summaries, out_dir) once every cell is done


EXPERIMENTS = {
    "profile": Experiment("ensemble-mean tridiagonal coefficient profiles", _cell_profile,
                          ["gamma", "N", "realizations", "b_max", "x_at_max"]),
    "fit": Experiment("profile sweep plus q-log and superposition Ansatz fits", _cell_fit,
                      ["gamma", "N", "p", "q", "dp", "dq", "epsilon", "form"]),
    "rstat": Experiment("consecutive level-spacing ratio <r> over the grid", _cell_rstat,
                        ["gamma", "N", "r_mean", "r_stderr", "rescaled_gamma"]),
    "dos": Experiment("density of states from profile quadrature and closed form", _cell_dos,
                      ["gamma", "N", "p_raw", "q", "ks_quadrature", "ks_closed"]),
    "spread": Experiment("spread-complexity traces with peak/plateau summaries", _cell_spread,
                         ["gamma", "N", "peak_value", "peak_time", "plateau", "has_peak",
                          "has_peak_fraction"]),
    "ipr": Experiment("Krylov-vector inverse participation ratios and D2 regression", _cell_ipr,
                      ["gamma", "N", "k", "ell", "ipr", "stderr"], _post_ipr),
    "logvar": Experiment("pairwise log-variance of b-coefficients and power-law fits",
                         _cell_logvar, ["gamma", "N", "sigma_b", "stderr"], _post_logvar),
    "sm5": Experiment("variance-recursion predicted profiles vs empirical ones", _cell_sm5,
                      ["gamma", "N", "max_rel_mid", "mean_rel_mid"]),
}


# the exports of scipy's OpenBLAS that runs call, with their C signatures
_OPENBLAS_EXPORTS = {
    "scipy_openblas_get_num_threads": ([], ctypes.c_int),
    "scipy_openblas_set_num_threads": ([ctypes.c_int], None),
    "scipy_openblas_get_config": ([], ctypes.c_char_p),
    "scipy_openblas_get_corename": ([], ctypes.c_char_p),
}


@functools.cache
def _scipy_openblas():
    """(scipy's bundled OpenBLAS, None), or (None, why the cells run unpinned); loaded once."""
    import scipy
    libs = Path(scipy.__file__).resolve().parent.parent / "scipy.libs"
    found = sorted(libs.glob("libscipy_openblas*.so"))
    if len(found) != 1:
        return None, f"{len(found)} libscipy_openblas*.so files in {libs}"
    try:
        lib = ctypes.CDLL(str(found[0]))
    except OSError as err:
        return None, f"{found[0].name} did not load: {err}"
    for name, (argtypes, restype) in _OPENBLAS_EXPORTS.items():
        fn = getattr(lib, name, None)
        if fn is None:
            return None, f"{found[0].name} has no {name}"
        fn.argtypes, fn.restype = argtypes, restype
    return lib, None


def _environment() -> dict:
    """Static facts on the interpreter, libraries, CPUs and BLAS the cells ran on, for
    the manifest's unhashed `environment`; an unset thread variable is recorded as null."""
    import scipy
    lib, why = _scipy_openblas()
    blas = {"blas_threads": f"unpinned: {why}"} if lib is None else {
        "blas_threads": {"serial_max_n": SERIAL_BLAS_MAX_N, "threads": PARALLEL_BLAS_THREADS},
        "openblas_config": lib.scipy_openblas_get_config().decode(),
        "openblas_corename": lib.scipy_openblas_get_corename().decode()}
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "cpus": len(os.sched_getaffinity(0)), **blas,
            **{var: os.environ.get(var) for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}}


@contextmanager
def _blas_threads(N: int):
    """scipy's OpenBLAS at the thread count of the rule on N; the previous count after."""
    lib, _ = _scipy_openblas()
    if lib is None:
        yield
        return
    previous = lib.scipy_openblas_get_num_threads()
    lib.scipy_openblas_set_num_threads(1 if N <= SERIAL_BLAS_MAX_N else PARALLEL_BLAS_THREADS)
    try:
        yield
    finally:
        lib.scipy_openblas_set_num_threads(previous)


def run(manifest: RunManifest, workers: int | None = None) -> int:
    """Execute a sweep; returns 0 when every cell (and post-processing) succeeded.
    A cell fails when it raises or when `runio.check_results` fails a check of its
    summary, new or resumed.  `workers` is ignored (realizations run in order on the
    calling thread); it is kept only because the benchmark's `bench/run.py` passes it,
    and goes with the next benchmark change."""
    started = time.perf_counter()
    out_dir = Path(manifest.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    experiment = EXPERIMENTS[manifest.experiment]
    payload = manifest.to_dict()
    provenance = {key: payload[key] for key in runio.PROVENANCE_KEYS}
    failures = []
    summaries = {}
    agg_rows = []
    computed = False
    for gamma in manifest.gamma_grid:
        for N in manifest.N_grid:
            stem = runio.cell_stem(manifest.experiment, gamma, N)
            summary = runio.cell_complete(out_dir, stem, provenance)
            if summary is None:
                computed = True
                try:
                    header, rows, summary = experiment.cell(manifest, gamma, N)
                except Exception as err:  # noqa: BLE001 - record and keep sweeping
                    failures.append((stem, f"{type(err).__name__}: {err}"))
                    continue
                summary.update(status="ok", gamma=gamma, N=N, **provenance)
                runio.write_cell(out_dir, stem, header, rows, summary)
            summaries[(gamma, N)] = summary
            agg_rows += summary["aggregate"]
            failures += [(stem, f"check {name} {value} > {tol}")
                         for name, value, tol, passed in runio.check_results(summary)
                         if not passed]
    runio.write_csv(out_dir / runio.AGGREGATE_NAME, experiment.header, agg_rows)
    for table in out_dir.glob("*.csv"):     # an earlier grid's post table is not this run's
        if table.name != runio.AGGREGATE_NAME:
            table.unlink()
    if experiment.post and len(summaries) == len(manifest.gamma_grid) * len(manifest.N_grid):
        try:
            experiment.post(manifest, summaries, out_dir)
        except Exception as err:  # noqa: BLE001
            failures.append(("post", f"{type(err).__name__}: {err}"))
    if failures:
        payload["failures"] = [f"{stem}: {msg}" for stem, msg in failures]
    wall_s = time.perf_counter() - started
    if not computed:    # a resume with every cell done keeps the wall time of the run that computed them
        previous = (runio.load_manifest(out_dir)[0] or {}).get("environment")
        wall_s = previous.get("wall_s", wall_s) if isinstance(previous, dict) else wall_s
    payload["environment"] = {**_environment(), "wall_s": wall_s}
    runio.finalize_manifest(out_dir, payload)
    for stem, msg in failures:
        print(f"FAIL {stem}: {msg}")
    return 1 if failures else 0


def verify(output_dir) -> int:
    """Print the pass/fail table of the run's RunManifest grid; 0 iff the run passes."""
    def grid_stems(record):
        m = RunManifest(**{f.name: record[f.name] for f in fields(RunManifest) if f.name in record})
        return [runio.cell_stem(m.experiment, g, N) for g in m.gamma_grid for N in m.N_grid]
    ok, lines = runio.verify_outputs(Path(output_dir), grid_stems)
    for line in lines:
        print(line)
    print("VERIFY:", "pass" if ok else "FAIL")
    return 0 if ok else 1
